#include "perfbench/src/rig_meters.hpp"

#include <algorithm>

namespace perfbench {

std::vector<double> rig_record(vcgt::jm76::CoupledRig& rig, const OwnTraffic& own) {
  std::vector<double> rec(kRigFields, 0.0);
  const auto& st = rig.stats();
  rec[kIsHs] = st.is_cu ? 0.0 : 1.0;
  rec[kRow] = st.row_or_iface;
  rec[kCouplerWait] = st.coupler_wait;
  rec[kStepS] = st.step_seconds;
  rec[kSearchS] = st.search_seconds;
  rec[kCuIdle] = st.cu_idle_seconds;
  rec[kCandidates] = static_cast<double>(st.candidates);
  rec[kMsgs] = own.msgs;
  rec[kBytes] = own.bytes;
  rec[kWaitS] = own.wait_s;
  if (auto* ctx = rig.context()) {
    const auto loops = ctx->total_stats();
    rec[kLoopS] = loops.seconds;
    rec[kLoopCalls] = static_cast<double>(loops.invocations);
    rec[kLoopElems] = static_cast<double>(loops.elements);
  }
  return rec;
}

const double* RigLayers::slowest_hs(const std::vector<double>& all, int nranks, int stride) {
  const double* slow = nullptr;
  for (int r = 0; r < nranks; ++r) {
    const double* f = &all[static_cast<std::size_t>(r * stride)];
    if (f[kIsHs] != 0.0 && (slow == nullptr || f[kStepS] > slow[kStepS])) slow = f;
  }
  return slow;
}

void RigLayers::add(const std::vector<double>& all, int nranks, int stride, int nsteps,
                    double seg_wall, double slabs) {
  steps += nsteps;
  wall += seg_wall;
  slab_allocs += slabs;
  double seg_loop_max = 0.0, seg_wait_max = 0.0, seg_coupler_max = 0.0;
  for (int r = 0; r < nranks; ++r) {
    const double* f = &all[static_cast<std::size_t>(r * stride)];
    msgs += f[kMsgs];
    bytes += f[kBytes];
    if (f[kIsHs] == 0.0) {
      search += f[kSearchS];
      cu_idle += f[kCuIdle];
      candidates += f[kCandidates];
      continue;
    }
    seg_loop_max = std::max(seg_loop_max, f[kLoopS]);
    seg_wait_max = std::max(seg_wait_max, f[kWaitS]);
    seg_coupler_max = std::max(seg_coupler_max, f[kCouplerWait]);
    loop_calls += f[kLoopCalls];
    loop_elems += f[kLoopElems];
    loop_s += f[kLoopS];
  }
  loop_max += seg_loop_max;
  wait_max += seg_wait_max;
  coupler_max += seg_coupler_max;
  const double* slow = slowest_hs(all, nranks, stride);
  slowest_step_s += slow[kStepS];
  slowest_attributed_s += slow[kLoopS] + slow[kCouplerWait];
}

void RigLayers::report(Result* res) const {
  res->set("op2.loop_ms_per_step", loop_max / steps * 1e3);
  res->set("op2.elems_per_s", loop_elems / loop_s);
  res->set("op2.loop_calls_per_step", loop_calls / steps);
  res->set("jm76.coupler_wait_ms_per_step", coupler_max / steps * 1e3);
  res->set("jm76.search_ms_per_step", search / steps * 1e3);
  res->set("jm76.cu_idle_frac", cu_idle / wall);
  res->set("jm76.candidates_per_step", candidates / steps);
  res->set("minimpi.msgs_per_step", msgs / steps);
  res->set("minimpi.bytes_per_step", bytes / steps);
  res->set("minimpi.wait_ms_per_step", wait_max / steps * 1e3);
  res->set("minimpi.slab_allocs_per_step", slab_allocs / steps);
  // Step-loop time of the slowest HS rank that op2 loops and coupler waits
  // do not cover.
  res->set("ledger.unattributed_frac", 1.0 - slowest_attributed_s / slowest_step_s);
}

}  // namespace perfbench
