#include "perfbench/src/common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/trace.hpp"

namespace perfbench {

// Every workload reports every metric of the active list; BENCHMARK.json
// names the same metrics (checked by perfbench/tests).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"op_ms.p50", "ms"}, {"op_ms.p90", "ms"},
    {"ops_per_s", "1/s"},     {"mcups", "Mcell/s"}, {"peak_rss_mb", "MB"},
};

// Per-step metrics are per coupled physical step on rig_rk and serve_mix and
// per outer (pseudo-time) iteration on row_implicit; "_per_outer" metrics
// belong to row_implicit. A layer a workload does not run reports 0.
const std::vector<MetricDef> kPerLayer = {
    {"op2.loop_ms_per_step", "ms"},
    {"op2.elems_per_s", "elem/s"},
    {"op2.loop_calls_per_step", "count"},
    {"op2.halo_msgs_per_outer", "count"},
    {"op2.halo_bytes_per_outer", "B"},
    {"op2.halo_wait_ms_per_outer", "ms"},
    {"op2.partition_ms", "ms"},
    {"hydra.outer_iters", "count"},
    {"hydra.init_ms", "ms"},
    {"krylov.iters_per_outer", "count"},
    {"krylov.ms_per_outer", "ms"},
    {"jm76.coupler_wait_ms_per_step", "ms"},
    {"jm76.search_ms_per_step", "ms"},
    {"jm76.cu_idle_frac", "fraction"},
    {"jm76.candidates_per_step", "count"},
    {"minimpi.msgs_per_step", "count"},
    {"minimpi.bytes_per_step", "B"},
    {"minimpi.wait_ms_per_step", "ms"},
    {"minimpi.slab_allocs_per_step", "count"},
    {"minimpi.wait_ms_per_outer", "ms"},
    {"rig.mesh_gen_ms", "ms"},
    {"serve.setup_ms.warm", "ms"},
    {"serve.setup_ms.cached", "ms"},
    {"serve.setup_ms.cold", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.cache_hits_per_session", "count"},
    {"serve.cache_misses_per_session", "count"},
    {"serve.cache_evictions_per_session", "count"},
    {"serve.warm_frac", "fraction"},
    {"hw.triad_gbs", "GB/s"},
    {"op2.triad_gbs", "GB/s"},
    {"minimpi.pingpong_us", "us"},
    {"trace.overhead_frac", "fraction"},
    {"trace.dropped", "count"},
    {"ledger.unattributed_frac", "fraction"},
};

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return v[lo] + f * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

Refs Refs::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perfbench: cannot read reference file " + path);
  Refs refs;
  refs.path_ = path;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string key;
    double value = 0.0;
    if (!(ls >> key)) continue;
    if (!(ls >> value)) throw std::runtime_error(path + ": malformed line for " + key);
    refs.kv_[key] = value;
  }
  return refs;
}

double Refs::get(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::runtime_error(path_ + ": missing reference " + key);
  return it->second;
}

int Refs::count(const std::string& prefix, const std::string& field) const {
  int n = 0;
  while (has(prefix + "." + std::to_string(n) + "." + field)) ++n;
  return n;
}

bool close(double a, double b, double rtol, double atol) {
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= rtol * std::max(std::fabs(a), std::fabs(b)) + atol;
}

OwnTraffic OwnTraffic::read(const vcgt::minimpi::Comm& comm) {
  const auto t = comm.traffic();
  const auto r = static_cast<std::size_t>(comm.rank());
  return {static_cast<double>(t.rank_messages[r]), static_cast<double>(t.rank_bytes[r]),
          t.rank_wait[r]};
}

// Large enough that one traced operation of any workload never wraps the
// per-thread ring (trace.dropped must stay 0).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

void TracedOps::open() { vcgt::trace::enable(kTraceCapacity); }

void TracedOps::close() {
  vcgt::trace::disable();
  dropped_ += vcgt::trace::dropped();
  if (written_) return;
  std::filesystem::create_directories(opt_.out_dir);
  vcgt::trace::write_chrome_trace(opt_.out_dir + "/" + opt_.workload + "-seed" +
                                  std::to_string(opt_.seed) + ".trace.json");
  written_ = true;
}

}  // namespace perfbench
