// serve_mix — one closed-loop client against serve::Server: it submits a
// session, waits for it, and only then submits the next. One 3-rank worker
// world runs 2-row sessions on a small mesh. The sessions sweep operating
// points in blocks of fixed mode shares:
//   warm   (60%) the same spec as the previous session: the parked rig is
//               reinitialized;
//   cached (20%) a hot spec revisited after others: a fresh rig is built
//               from the PlanCache;
//   cold   (20%) a new operating point: a full build plus a cache write,
//               and LRU evictions once the cache is full.
// With these shares the latency p50 falls inside the warm sessions and the
// p90 inside the cold ones. The seed only shuffles the order inside each
// block.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "perfbench/src/common.hpp"
#include "perfbench/src/rig_meters.hpp"
#include "src/jm76/coupled.hpp"
#include "src/serve/server.hpp"
#include "src/util/trace.hpp"

namespace perfbench {

namespace vc = vcgt;

namespace {

constexpr double kRpm = 11000.0;
const char* kTier = "medium";
constexpr int kSteps = 10;  ///< physical steps per session
constexpr int kInner = 1;
constexpr int kSetups = 5;  ///< server start-ups timed per run (setup_s = median)
/// Blocks whose cache meters count (the same sessions in every run, so the
/// per-session cache counts repeat exactly).
constexpr int kCountBlocks = 8;
/// Cold specs the cache holds beside the hot ones. A hot spec is evicted
/// only when more cold specs than this arrive between two of its visits;
/// the round-robin revisits keep that gap at 6 or fewer.
constexpr int kColdResident = 8;

enum class Mode { Warm, Cached, Cold };
const char* mode_name(Mode m) {
  return m == Mode::Warm ? "warm" : m == Mode::Cached ? "cached" : "cold";
}

struct Catalog {
  std::vector<double> hot;  ///< p_back_ratio of the hot specs
  double cold_base = 0.0;   ///< cold spec k runs at cold_base + k * cold_step
  double cold_step = 0.0;
};

Catalog load_catalog(const Options& opt) {
  const auto refs = Refs::load(opt.refs_dir + "/serve_mix.ref");
  Catalog c;
  const int nhot = refs.count("hot", "p_back_ratio");
  for (int i = 0; i < nhot; ++i) {
    c.hot.push_back(refs.get("hot." + std::to_string(i) + ".p_back_ratio"));
  }
  if (c.hot.size() < 2) throw std::runtime_error("serve_mix.ref: needs >= 2 hot specs");
  c.cold_base = refs.get("cold.p_back_ratio.base");
  c.cold_step = refs.get("cold.p_back_ratio.step");
  return c;
}

vc::serve::SessionSpec make_spec(double p_back_ratio) {
  vc::serve::SessionSpec spec;
  spec.rig = "rig250";
  spec.nrows = 2;
  spec.rpm = kRpm;
  spec.tier = kTier;
  spec.hs_ranks = {1, 1};
  spec.cus_per_interface = 1;
  spec.flow.p_back_ratio = p_back_ratio;
  spec.nsteps = kSteps;
  spec.inner = kInner;
  return spec;
}

/// One scheduled session: its mode and its spec (hot index, or cold number).
struct Planned {
  Mode mode = Mode::Warm;
  bool hot = true;
  int index = 0;
};

/// Block `b` of the schedule, continuing from the parked spec `*parked`
/// and the cached-revisit rotation `*rr`. 6 warm, 2 cached, 2 cold, in a
/// seeded order.
std::vector<Planned> plan_block(Rng& rng, int nhot, Planned* parked, int* rr, int* next_cold) {
  std::vector<Mode> modes = {Mode::Warm, Mode::Warm, Mode::Warm,   Mode::Warm, Mode::Warm,
                             Mode::Warm, Mode::Cached, Mode::Cached, Mode::Cold, Mode::Cold};
  for (std::size_t i = modes.size() - 1; i > 0; --i) std::swap(modes[i], modes[rng.below(i + 1)]);
  std::vector<Planned> out;
  for (const Mode m : modes) {
    Planned p;
    p.mode = m;
    if (m == Mode::Warm) {
      p.hot = parked->hot;
      p.index = parked->index;
    } else if (m == Mode::Cached) {
      int h = *rr % nhot;
      if (parked->hot && parked->index == h) h = ++*rr % nhot;
      ++*rr;
      p.hot = true;
      p.index = h;
    } else {
      p.hot = false;
      p.index = (*next_cold)++;
    }
    *parked = p;
    out.push_back(p);
  }
  return out;
}

struct ScheduleState {
  Rng rng;
  Planned parked;
  int rr = 0;
  int next_cold = 0;
  ScheduleState(std::uint64_t seed, int nhot)
      : rng(seed), parked{Mode::Cold, true, nhot - 1} {}  // priming parks the last hot spec
};

bool same_frames(const std::vector<vc::serve::StepFrame>& a,
                 const std::vector<vc::serve::StepFrame>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].step != b[i].step || a[i].time != b[i].time || a[i].rms != b[i].rms ||
        a[i].mdot_in != b[i].mdot_in || a[i].mdot_out != b[i].mdot_out ||
        a[i].mean_p != b[i].mean_p || a[i].power != b[i].power) {
      return false;
    }
  }
  return true;
}

struct Sample {
  Mode mode;
  double latency_s, setup_s, run_s;
  bool warm;  ///< the server reused a parked session (JobOutcome::warm)
};

/// Per-step layer meters of one session spec, run directly on a CoupledRig
/// with the session's own per-step monitors (the Server keeps its contexts
/// private).
void replica_layers(const vc::serve::SessionSpec& spec, Result* res) {
  const auto cfg = spec.coupled_config(nullptr);
  const int ws = spec.world_size();
  RigLayers layers;
  vc::minimpi::World::run(ws, [&](vc::minimpi::Comm& world) {
    vc::jm76::CoupledRig rig(world, cfg);
    const auto on_step = [&](int) {
      if (rig.role().kind != vc::jm76::Role::Kind::HydraSession || rig.role().row != 0) return;
      auto& s = *rig.solver();
      (void)s.residual_rms();
      (void)s.mass_flow(vc::rig::BoundaryGroup::Inlet);
      (void)s.mass_flow(vc::rig::BoundaryGroup::Outlet);
      (void)s.mean_pressure();
      (void)s.shaft_power();
    };
    rig.run(spec.nsteps, spec.inner, on_step);  // warm-up: builds every plan
    rig.reinitialize();
    world.barrier();
    const double t0 = now_s();
    const std::uint64_t slabs0 = world.pool_stats().slab_allocs;
    const OwnTraffic own0 = OwnTraffic::read(world);
    rig.run(spec.nsteps, spec.inner, on_step);
    const OwnTraffic own = OwnTraffic::read(world) - own0;
    world.barrier();
    const double wall = now_s() - t0;
    const auto slabs = static_cast<double>(world.pool_stats().slab_allocs - slabs0);
    const auto rec = rig_record(rig, own);
    const auto all = world.gatherv(std::span<const double>(rec), 0);
    if (world.rank() == 0) layers.add(all, ws, kRigFields, spec.nsteps, wall, slabs);
  });
  layers.report(res);
}

}  // namespace

void print_serve_schedule(const Options& opt, int blocks) {
  const auto cat = load_catalog(opt);
  ScheduleState st(opt.seed, static_cast<int>(cat.hot.size()));
  for (int b = 0; b < blocks; ++b) {
    for (const auto& p : plan_block(st.rng, static_cast<int>(cat.hot.size()), &st.parked,
                                    &st.rr, &st.next_cold)) {
      std::cout << mode_name(p.mode) << " " << (p.hot ? "h" : "c") << p.index << "\n";
    }
  }
}

Result run_serve_mix(const Options& opt) {
  const auto cat = load_catalog(opt);
  const int nhot = static_cast<int>(cat.hot.size());
  Result res;
  res.meta["busy_threads"] = std::to_string(make_spec(1.0).world_size());
  auto spec_of = [&](const Planned& p) {
    return make_spec(p.hot ? cat.hot[static_cast<std::size_t>(p.index)]
                           : cat.cold_base + cat.cold_step * p.index);
  };

  // Resident size of one spec's artifacts, from an untimed probe session.
  std::size_t spec_bytes = 0;
  {
    vc::serve::Server probe;
    const auto t = probe.submit(make_spec(cat.hot[0]));
    if (!t.accepted || !probe.wait(t.job_id).ok) throw std::runtime_error("serve_mix: probe failed");
    spec_bytes = probe.plan_cache().stats().bytes;
  }
  vc::serve::ServerOptions sopts;
  sopts.cache_bytes = spec_bytes * static_cast<std::size_t>(nhot + kColdResident) + spec_bytes / 2;

  std::map<std::uint64_t, std::vector<vc::serve::StepFrame>> first_frames;
  // Runs one session through the closed loop and checks it. Returns false
  // when the session failed (already counted).
  auto session = [&](vc::serve::Server& server, const vc::serve::SessionSpec& spec,
                     Mode mode, Sample* sample) {
    ++res.attempted;
    const double t0 = now_s();
    const auto ticket = server.submit(spec);
    if (!ticket.accepted) {
      res.fail("serve_mix: session rejected: " + ticket.reason);
      return false;
    }
    const auto out = server.wait(ticket.job_id);
    sample->latency_s = now_s() - t0;
    sample->warm = out.ok && out.warm;
    sample->setup_s = out.setup_seconds;
    sample->run_s = out.run_seconds;
    sample->mode = mode;
    if (!out.ok) {
      res.fail("serve_mix: session failed: " + out.error);
      return false;
    }
    if (static_cast<int>(out.frames.size()) != spec.nsteps) {
      res.fail("serve_mix: " + std::to_string(out.frames.size()) + " frames for " +
               std::to_string(spec.nsteps) + " steps");
      return false;
    }
    for (const auto& f : out.frames) {
      if (!std::isfinite(f.rms) || !std::isfinite(f.mdot_in) || !std::isfinite(f.mdot_out) ||
          !std::isfinite(f.mean_p) || !std::isfinite(f.power)) {
        res.fail("serve_mix: non-finite StepFrame at step " + std::to_string(f.step));
        return false;
      }
    }
    const auto [it, fresh] = first_frames.try_emplace(spec.hash(), out.frames);
    if (!fresh && !same_frames(it->second, out.frames)) {
      res.fail("serve_mix: repeated spec's frames differ from its first run");
      return false;
    }
    const bool ok_mode = mode == Mode::Warm     ? out.warm
                         : mode == Mode::Cached ? !out.warm && out.plans_cached
                                                : !out.warm && !out.plans_cached;
    if (!ok_mode) {
      res.fail(std::string("serve_mix: session planned ") + mode_name(mode) +
               " ran warm=" + std::to_string(out.warm) +
               " plans_cached=" + std::to_string(out.plans_cached));
      return false;
    }
    return true;
  };

  // Set-up: server start-up plus the priming pass over the hot specs.
  std::vector<double> setups;
  std::unique_ptr<vc::serve::Server> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const double t0 = now_s();
    server = std::make_unique<vc::serve::Server>(sopts);
    for (int h = 0; h < nhot; ++h) {
      Sample s{};
      session(*server, make_spec(cat.hot[static_cast<std::size_t>(h)]), Mode::Cold, &s);
    }
    setups.push_back(now_s() - t0);
  }

  ScheduleState st(opt.seed, nhot);
  std::vector<Sample> samples, traced_samples;
  const auto c0 = server->plan_cache().stats();
  auto c1 = c0;
  TracedOps traced_ops(opt);
  std::vector<double> block_rate;  ///< sessions per second of each untraced block
  long window_warm = 0;            ///< sessions of the counted window the server ran warm
  const double t_start = now_s();
  for (int block = 0;; ++block) {
    const bool trace_this = opt.trace && block % 2 == 1;
    if (trace_this) traced_ops.open();
    const double b0 = now_s();
    for (const auto& p : plan_block(st.rng, nhot, &st.parked, &st.rr, &st.next_cold)) {
      Sample s{};
      vc::trace::Span span("bench:serve.session");
      if (session(*server, spec_of(p), p.mode, &s)) {
        (trace_this ? traced_samples : samples).push_back(s);
      }
      if (block < kCountBlocks && s.warm) ++window_warm;
    }
    if (trace_this) {
      traced_ops.close();
    } else {
      block_rate.push_back(10.0 / (now_s() - b0));
    }
    if (block + 1 == kCountBlocks) c1 = server->plan_cache().stats();
    if (block + 1 >= kCountBlocks && now_s() - t_start >= opt.seconds) break;
  }
  server.reset();

  auto latencies = [](const std::vector<Sample>& v) {
    std::vector<double> out;
    for (const auto& s : v) out.push_back(s.latency_s);
    return out;
  };
  const auto lat = latencies(samples);
  const auto tier = vc::rig::resolution_tier(kTier);
  const double cells = 2.0 * tier.nx * tier.nr * tier.ntheta;
  for (const Mode m : {Mode::Warm, Mode::Cached, Mode::Cold}) {
    std::vector<double> v;
    for (const auto& s : samples) {
      if (s.mode == m) v.push_back(s.latency_s * 1e3);
    }
    res.meta[std::string("latency_ms.p50.") + mode_name(m)] = std::to_string(median(v));
  }
  res.meta["samples"] = std::to_string(samples.size()) + " sessions, " +
                        std::to_string(setups.size()) + " set-ups";
  res.set("setup_s", median(setups));
  res.set("op_ms.p50", quantile(lat, 0.5) * 1e3);
  res.set("op_ms.p90", quantile(lat, 0.9) * 1e3);
  // Closed-loop throughput: the median over blocks of sessions per second,
  // so a burst of outside interference weighs no more than in the latencies.
  res.set("ops_per_s", median(block_rate));
  res.set("mcups", cells * kInner * kSteps * median(block_rate) * 1e-6);
  res.set("peak_rss_mb", peak_rss_mb());

  if (opt.trace) {
    auto by_mode = [&](Mode m, auto field) {
      std::vector<double> v;
      for (const auto& s : samples) {
        if (s.mode == m) v.push_back(field(s));
      }
      return median(v) * 1e3;
    };
    const auto setup_of = [](const Sample& s) { return s.setup_s; };
    res.set("serve.setup_ms.warm", by_mode(Mode::Warm, setup_of));
    res.set("serve.setup_ms.cached", by_mode(Mode::Cached, setup_of));
    res.set("serve.setup_ms.cold", by_mode(Mode::Cold, setup_of));
    std::vector<double> run_s, overhead_s;
    for (const auto& s : samples) {
      run_s.push_back(s.run_s);
      overhead_s.push_back(s.latency_s - s.setup_s - s.run_s);
    }
    res.set("serve.run_ms", median(run_s) * 1e3);
    res.set("serve.overhead_ms", median(overhead_s) * 1e3);
    const double n = 10.0 * kCountBlocks;
    res.set("serve.cache_hits_per_session", static_cast<double>(c1.hits - c0.hits) / n);
    res.set("serve.cache_misses_per_session", static_cast<double>(c1.misses - c0.misses) / n);
    res.set("serve.cache_evictions_per_session",
            static_cast<double>(c1.evictions - c0.evictions) / n);
    // What the server did, over every session submitted in the window; a
    // rejected or failed session counts as not warm.
    res.set("serve.warm_frac", static_cast<double>(window_warm) / n);
    res.set("trace.overhead_frac", median(latencies(traced_samples)) / median(lat) - 1.0);
    res.set("trace.dropped", static_cast<double>(traced_ops.dropped()));
    replica_layers(make_spec(cat.hot[0]), &res);
    const auto spec = make_spec(cat.hot[0]);
    const auto cfg = spec.coupled_config(nullptr);
    const auto layers = time_row_setup(cfg.rig.rows[1], cfg.res, cfg.flow, cfg.rig.omega(), 3);
    res.set("rig.mesh_gen_ms", layers.mesh_gen_ms);
    res.set("op2.partition_ms", layers.partition_ms);
    res.set("hydra.init_ms", layers.init_ms);
  }
  return res;
}

}  // namespace perfbench
