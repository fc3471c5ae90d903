// rig_rk — the paper's production path: a coupled 2-row rig (IGV + R1), one
// Hydra Session rank per row plus one Coupler Unit, explicit chained RK
// inner iterations, pipelined ADT sliding plane.
//
// One operation is an episode: CoupledRig::reinitialize() followed by
// run(kSteps). Every episode starts from the same state, so its per-row
// monitors are checked against the committed reference of the operating
// point the seed picked. Step times come from StepFn timestamps of the
// slowest HS row.
#include <iomanip>
#include <iostream>
#include <memory>

#include "perfbench/src/common.hpp"
#include "perfbench/src/rig_meters.hpp"
#include "src/jm76/coupled.hpp"
#include "src/util/trace.hpp"

namespace perfbench {

namespace vc = vcgt;

namespace {

constexpr double kRpm = 11000.0;
constexpr int kRows = 2;
/// ~25k cells per HS rank: the paper's per-core load at the strong-scaling
/// end of Fig. 9 (4.58B nodes over 65,536 cores ~ 70k per core).
const vc::rig::MeshResolution kRes{16, 12, 128};
constexpr int kInner = 3;   ///< pseudo-time iterations per physical step
constexpr int kSteps = 10;  ///< physical steps per episode
constexpr int kSetups = 21;  ///< full set-ups timed per run (setup_s = median)
/// Monitors agree with the reference to this relative tolerance: loose
/// enough for reordered sums (vectorisation, reproducible folds), far
/// tighter than any change of operating point.
constexpr double kRtol = 1e-7;

vc::jm76::CoupledConfig make_config(double p_back_ratio) {
  vc::jm76::CoupledConfig cfg;
  cfg.rig = vc::rig::rig250_spec(kRows, kRpm);
  cfg.res = kRes;
  cfg.flow.inner_iters = kInner;
  cfg.flow.p_back_ratio = p_back_ratio;
  cfg.hs_ranks.assign(kRows, 1);
  cfg.cus_per_interface = 1;
  cfg.search = vc::jm76::SearchKind::Adt;
  cfg.pipelined = true;
  return cfg;
}

/// Record layout: the shared rig meters, then this workload's monitors and
/// the step durations of the episode.
constexpr int kMonitors = kRigFields;  ///< mean_p, rms, mdot_in, mdot_out
constexpr int kStepTimes = kMonitors + 4;
constexpr int kRecord = kStepTimes + kSteps;
const char* kMonitorNames[] = {"mean_p", "rms", "mdot_in", "mdot_out"};

/// Rank-0 accumulation over measured episodes of one kind (traced or not).
struct Totals {
  std::vector<double> steps_s;       ///< step durations of the slowest HS row
  std::vector<double> episode_rate;  ///< steps per second of each episode
  RigLayers layers;
};

}  // namespace

Result run_rig_rk(const Options& opt) {
  const auto refs = Refs::load(opt.refs_dir + "/rig_rk.ref");
  const int nops = refs.count("op", "p_back_ratio");
  if (nops == 0) throw std::runtime_error("rig_rk.ref: empty operating-point catalog");
  Rng rng(opt.seed);
  const int op = static_cast<int>(rng.below(static_cast<std::size_t>(nops)));
  const std::string opkey = "op." + std::to_string(op);
  const auto cfg = make_config(refs.get(opkey + ".p_back_ratio"));
  const int world_size = cfg.layout().world_size();

  Result res;
  res.meta["operating_point"] = std::to_string(op);
  res.meta["busy_threads"] = std::to_string(world_size);
  Totals tot, traced;
  std::vector<double> setups;
  TracedOps traced_ops(opt);
  std::vector<double> emitted;  // emit mode: the records of one episode

  // Rank 0's check and accumulation of one measured episode.
  auto account = [&](const std::vector<double>& all, int episode, double wall, double slabs,
                     Totals& t) {
    ++res.attempted;
    const double* slow = RigLayers::slowest_hs(all, world_size, kRecord);
    for (int k = 0; k < kSteps; ++k) t.steps_s.push_back(slow[kStepTimes + k]);
    t.episode_rate.push_back(kSteps / wall);
    t.layers.add(all, world_size, kRecord, kSteps, wall, slabs);
    std::string bad;
    for (int r = 0; r < world_size; ++r) {
      const double* f = &all[static_cast<std::size_t>(r * kRecord)];
      if (f[kIsHs] == 0.0) continue;
      const std::string row = "row" + std::to_string(static_cast<int>(f[kRow]));
      for (int m = 0; m < 4; ++m) {
        const double want = refs.get(opkey + "." + row + "." + kMonitorNames[m]);
        if (!close(f[kMonitors + m], want, kRtol)) {
          bad = row + "." + kMonitorNames[m] + " = " + std::to_string(f[kMonitors + m]) +
                ", reference " + std::to_string(want);
        }
      }
    }
    if (!bad.empty()) res.fail("rig_rk episode " + std::to_string(episode) + ": " + bad);
  };

  auto episodes = [&](vc::minimpi::Comm& world, vc::jm76::CoupledRig& rig, bool emit) {
    const bool root = world.rank() == 0;
    std::vector<std::int64_t> stamps;
    stamps.reserve(kSteps);
    const auto on_step = [&](int) { stamps.push_back(now_ns()); };
    const double t_start = now_s();
    for (int episode = 0;; ++episode) {
      // Odd episodes of a traced run record; even ones stay untraced so
      // the tracing overhead is measured in the same process.
      const bool trace_this = opt.trace && episode % 2 == 1;
      rig.reinitialize();
      stamps.clear();
      if (root && trace_this) traced_ops.open();
      world.barrier();
      const double b1 = now_s();
      const std::uint64_t slabs0 = root ? world.pool_stats().slab_allocs : 0;
      const OwnTraffic own0 = OwnTraffic::read(world);
      const std::int64_t t0 = now_ns();
      {
        vc::trace::Span span("bench:rig.run");
        rig.run(kSteps, kInner, on_step);
      }
      const OwnTraffic own = OwnTraffic::read(world) - own0;
      world.barrier();
      const double wall = now_s() - b1;
      const std::uint64_t slabs = root ? world.pool_stats().slab_allocs - slabs0 : 0;
      if (root && trace_this) traced_ops.close();

      std::vector<double> rec = rig_record(rig, own);
      rec.resize(kRecord, 0.0);
      if (auto* solver = rig.solver()) {
        rec[kMonitors + 0] = solver->mean_pressure();
        rec[kMonitors + 1] = solver->residual_rms();
        rec[kMonitors + 2] = solver->mass_flow(vc::rig::BoundaryGroup::Inlet);
        rec[kMonitors + 3] = solver->mass_flow(vc::rig::BoundaryGroup::Outlet);
        for (std::size_t k = 0; k < stamps.size() && k < kSteps; ++k) {
          const std::int64_t prev = k == 0 ? t0 : stamps[k - 1];
          rec[kStepTimes + k] = static_cast<double>(stamps[k] - prev) * 1e-9;
        }
      }
      const auto all = world.gatherv(std::span<const double>(rec), 0);

      int go = 0;
      if (root) {
        if (emit) {
          emitted = all;
        } else if (episode > 0) {  // episode 0 is the untimed warm-up
          account(all, episode, wall, static_cast<double>(slabs), trace_this ? traced : tot);
        }
        // At least one measured episode, and one of each kind when traced.
        const int min_last = opt.trace ? 2 : 1;
        go = emit ? 0 : (now_s() - t_start < opt.seconds || episode < min_last) ? 1 : 0;
      }
      if (world.bcast_value(go, 0) == 0) break;
    }
  };

  auto run_op = [&](const vc::jm76::CoupledConfig& c, bool emit) {
    vc::minimpi::World::run(world_size, [&](vc::minimpi::Comm& world) {
      std::unique_ptr<vc::jm76::CoupledRig> rig;
      for (int i = 0; i < (emit ? 1 : kSetups); ++i) {
        rig.reset();
        world.barrier();
        const double t0 = now_s();
        rig = std::make_unique<vc::jm76::CoupledRig>(world, c);
        world.barrier();
        if (world.rank() == 0) setups.push_back(now_s() - t0);
      }
      episodes(world, *rig, emit);
    });
  };

  if (opt.emit_refs) {
    std::cout << std::setprecision(17);
    for (int i = 0; i < nops; ++i) {
      const std::string key = "op." + std::to_string(i);
      run_op(make_config(refs.get(key + ".p_back_ratio")), /*emit=*/true);
      std::cout << key << ".p_back_ratio " << refs.get(key + ".p_back_ratio") << "\n";
      for (int r = 0; r < world_size; ++r) {
        const double* f = &emitted[static_cast<std::size_t>(r * kRecord)];
        if (f[kIsHs] == 0.0) continue;
        for (int m = 0; m < 4; ++m) {
          std::cout << key << ".row" << static_cast<int>(f[kRow]) << "." << kMonitorNames[m]
                    << " " << f[kMonitors + m] << "\n";
        }
      }
    }
    return res;
  }

  run_op(cfg, /*emit=*/false);

  const double cells = static_cast<double>(kRows) * kRes.nx * kRes.nr * kRes.ntheta;
  res.meta["samples"] = std::to_string(tot.steps_s.size()) + " steps, " +
                        std::to_string(setups.size()) + " set-ups";
  res.set("setup_s", median(setups));
  res.set("op_ms.p50", quantile(tot.steps_s, 0.5) * 1e3);
  res.set("op_ms.p90", quantile(tot.steps_s, 0.9) * 1e3);
  // Rates are medians over episodes, so a burst of interference from
  // outside the process moves them no more than it moves the step median.
  res.set("ops_per_s", median(tot.episode_rate));
  res.set("mcups", cells * kInner * median(tot.episode_rate) * 1e-6);
  res.set("peak_rss_mb", peak_rss_mb());

  if (opt.trace) {
    tot.layers.report(&res);
    res.set("trace.overhead_frac",
            quantile(traced.steps_s, 0.5) / quantile(tot.steps_s, 0.5) - 1.0);
    res.set("trace.dropped", static_cast<double>(traced_ops.dropped()));
    const auto layers = time_row_setup(cfg.rig.rows[1], kRes, cfg.flow, cfg.rig.omega(), 3);
    res.set("rig.mesh_gen_ms", layers.mesh_gen_ms);
    res.set("op2.partition_ms", layers.partition_ms);
    res.set("hydra.init_ms", layers.init_ms);
  }
  return res;
}

}  // namespace perfbench
