#pragma once
// Shared plumbing of the vcgt end-to-end benchmark: command-line options,
// the metric registry every workload reports into, order statistics,
// committed-reference lookup and the seeded generator that picks inputs.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hydra/config.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/rig/rowspec.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string refs_dir = "perfbench/refs";
  std::string out_dir = ".bench_build/perfbench-out";
  /// Regenerates the workload's committed references instead of measuring.
  bool emit_refs = false;
};

/// One reported metric. Units come from the registry (kEndToEnd /
/// kPerLayer), so a workload only ever sets values.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// Outcome of one benchmark run. Every operation is attempted and either
/// passes its correctness check or counts as failed (never skipped).
struct Result {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, std::string> meta;

  void set(const std::string& name, double v) { values[name] = v; }
  /// Records one failed operation with its reason.
  void fail(const std::string& why);
};

// --- time -------------------------------------------------------------------
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// --- statistics -------------------------------------------------------------
/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process [MB] (getrusage, no file access).
double peak_rss_mb();

// --- references -------------------------------------------------------------
/// A committed reference file: `key value` lines, `#` comments. Keys are
/// dotted paths ("op.2.p_back_ratio", "op.2.row1.mean_p").
class Refs {
 public:
  static Refs load(const std::string& path);
  [[nodiscard]] bool has(const std::string& key) const { return kv_.count(key) != 0; }
  /// Throws std::runtime_error naming the file when the key is missing.
  [[nodiscard]] double get(const std::string& key) const;
  /// Number of consecutive "<prefix>.<i>.<field>" entries from i = 0.
  [[nodiscard]] int count(const std::string& prefix, const std::string& field) const;

 private:
  std::string path_;
  std::map<std::string, double> kv_;
};

/// |a - b| <= rtol * max(|a|, |b|) + atol, and both finite.
bool close(double a, double b, double rtol, double atol = 0.0);

/// splitmix64: the one seeded generator of the benchmark's input choices.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

/// This rank's own send/wait meters of a communicator. Each rank reads
/// only its own entry, in its own program order, so a diff between two
/// snapshots counts exactly the traffic that rank issued in between.
struct OwnTraffic {
  double msgs = 0.0;
  double bytes = 0.0;
  double wait_s = 0.0;
  static OwnTraffic read(const vcgt::minimpi::Comm& comm);
  OwnTraffic operator-(const OwnTraffic& o) const {
    return {msgs - o.msgs, bytes - o.bytes, wait_s - o.wait_s};
  }
};

// --- traced-run helpers -----------------------------------------------------
/// The traced operations of one run. Each is recorded on its own (enable()
/// clears the ring buffers), ring-buffer drops are summed for
/// trace.dropped, and the first one is written as a Chrome trace to
/// `<out_dir>/<workload>-seed<seed>.trace.json`. Open and close while the
/// ranks are quiescent (between barriers).
class TracedOps {
 public:
  explicit TracedOps(const Options& opt) : opt_(opt) {}
  void open();
  void close();
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  const Options& opt_;
  std::uint64_t dropped_ = 0;
  bool written_ = false;
};

// --- hardware floors (traced runs only) ---------------------------------------
struct Floors {
  double triad_gbs = 0.0;      ///< plain C++ STREAM triad
  double op2_triad_gbs = 0.0;  ///< the same triad as an op2 direct par_loop
  double pingpong_us = 0.0;    ///< 2-rank small-payload Comm round trip
  double array_mb = 0.0;       ///< size of each triad array
  double l3_mb = 0.0;          ///< last-level cache the arrays are sized against
};
Floors measure_floors();

/// Set-up layers of one blade row timed from outside: mesh generation,
/// op2 partition and hydra initialize of a serial RowSolver at `res`.
struct RowSetupLayers {
  double mesh_gen_ms = 0.0;
  double partition_ms = 0.0;
  double init_ms = 0.0;
};
/// Medians over `reps` serial set-ups of `row` (the work one single-rank
/// Hydra Session does when a coupled rig is constructed).
RowSetupLayers time_row_setup(const vcgt::rig::RowSpec& row,
                              const vcgt::rig::MeshResolution& res,
                              const vcgt::hydra::FlowConfig& flow, double omega, int reps);

// --- workloads --------------------------------------------------------------
Result run_rig_rk(const Options& opt);
Result run_row_implicit(const Options& opt);
Result run_serve_mix(const Options& opt);
/// Prints `blocks` blocks of serve_mix's seeded schedule, one "mode spec"
/// line per session (spec "hN" hot, "cN" cold). Used by the benchmark's
/// own tests.
void print_serve_schedule(const Options& opt, int blocks);

}  // namespace perfbench
