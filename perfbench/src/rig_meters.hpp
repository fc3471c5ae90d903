#pragma once
// Per-rank meters of one CoupledRig run segment, and their aggregation into
// the op2/jm76/minimpi per-layer metrics that rig_rk and serve_mix report.
#include <vector>

#include "perfbench/src/common.hpp"
#include "src/jm76/coupled.hpp"

namespace perfbench {

/// Field layout of one rank's record (doubles, gathered to rank 0; counts
/// stay exact). Workloads may append their own fields after kRigFields.
enum RigField : int {
  kIsHs, kRow, kLoopS, kLoopCalls, kLoopElems, kCouplerWait, kStepS, kSearchS, kCuIdle,
  kCandidates, kMsgs, kBytes, kWaitS, kRigFields
};

/// This rank's record after a run segment: CoupledRig::stats(), the op2
/// totals of its context (HS only) and its own minimpi traffic `own`.
std::vector<double> rig_record(vcgt::jm76::CoupledRig& rig, const OwnTraffic& own);

/// Sums of the per-layer meters over run segments.
struct RigLayers {
  double steps = 0.0, wall = 0.0, slab_allocs = 0.0;
  double loop_max = 0.0, loop_calls = 0.0, loop_elems = 0.0, loop_s = 0.0;
  double coupler_max = 0.0, wait_max = 0.0;
  double search = 0.0, cu_idle = 0.0, candidates = 0.0, msgs = 0.0, bytes = 0.0;
  double slowest_step_s = 0.0, slowest_attributed_s = 0.0;

  /// The HS record with the largest step-loop time among `nranks` records of
  /// `stride` doubles: rows of a coupled step wait for each other, so its
  /// steps are the rig's steps.
  static const double* slowest_hs(const std::vector<double>& all, int nranks, int stride);
  /// Adds one segment of `steps` physical steps and `wall` seconds.
  void add(const std::vector<double>& all, int nranks, int stride, int steps, double wall,
           double slabs);
  /// Sets the op2, jm76, minimpi and ledger metrics (per physical step).
  void report(Result* res) const;
};

}  // namespace perfbench
