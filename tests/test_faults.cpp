// FaultPlan chaos layer: deterministic fault injection in minimpi, recv
// timeouts, the progress watchdog, and the end-to-end seeded chaos run over
// the coupled hydra+jm76 rig (the ISSUE-1 acceptance scenario).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>

#include "src/hydra/monitors.hpp"
#include "src/jm76/coupled.hpp"
#include "src/jm76/monolithic.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/minimpi/pool.hpp"
#include "src/op2/op2.hpp"
#include "tests/testmesh.hpp"

namespace {

using namespace vcgt;
using namespace vcgt::minimpi;

/// A chaos config with every transient kind enabled at a rate high enough to
/// fire on small workloads, and delays short enough to keep tests fast.
FaultConfig transient_chaos(std::uint64_t seed, double p = 0.08) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.p_delay = p;
  cfg.p_duplicate = p;
  cfg.p_reorder = p;
  cfg.p_drop = p;
  cfg.delay_seconds = 2e-5;
  cfg.drop_attempts = 1;  // always within the retry budget: transparent
  return cfg;
}

/// A deterministic p2p + collective workload; returns a per-rank checksum
/// that is sensitive to payload content and per-(src, tag) order.
std::uint64_t run_workload(Comm& c) {
  const int nr = c.size();
  const int me = c.rank();
  std::uint64_t sum = 0;
  for (int round = 0; round < 12; ++round) {
    // Everyone sends two stamped messages to every other rank on two tags.
    for (int dst = 0; dst < nr; ++dst) {
      if (dst == me) continue;
      for (int tag = 0; tag < 2; ++tag) {
        const std::uint64_t a = static_cast<std::uint64_t>(me * 1000 + round * 10 + tag);
        const std::uint64_t b = a + 7;
        c.send_value(a, dst, tag);
        c.send_value(b, dst, tag);
      }
    }
    for (int src = 0; src < nr; ++src) {
      if (src == me) continue;
      for (int tag = 0; tag < 2; ++tag) {
        const auto a = c.recv_value<std::uint64_t>(src, tag);
        const auto b = c.recv_value<std::uint64_t>(src, tag);
        // FIFO per (src, tag): b must be the message sent after a.
        sum = sum * 1315423911u + a;
        sum = sum * 1315423911u + b;
        if (b != a + 7) return ~std::uint64_t{0};  // order violation sentinel
      }
    }
    sum += c.allreduce_sum_u64(static_cast<std::uint64_t>(me + round));
    c.barrier();
  }
  return sum;
}

TEST(FaultPlan, TransientChaosIsTransparentAndSeedReproducible) {
  constexpr int kRanks = 4;
  std::vector<std::uint64_t> clean(kRanks), chaotic(kRanks);

  World::run(kRanks, [&](Comm& c) { clean[static_cast<std::size_t>(c.rank())] = run_workload(c); });

  auto chaos_events = [&](std::vector<std::uint64_t>* sums) {
    WorldOptions opts;
    opts.fault = std::make_shared<FaultPlan>(transient_chaos(1234));
    World::run(kRanks, [&](Comm& c) { (*sums)[static_cast<std::size_t>(c.rank())] = run_workload(c); },
               opts);
    EXPECT_GE(opts.fault->distinct_kinds(), 3);
    return opts.fault->events();
  };

  const auto events1 = chaos_events(&chaotic);
  EXPECT_EQ(clean, chaotic) << "transient faults changed observable results";
  ASSERT_FALSE(events1.empty());

  // Same seed, fresh plan, same workload: the identical fault sequence.
  std::vector<std::uint64_t> again(kRanks);
  const auto events2 = chaos_events(&again);
  EXPECT_EQ(clean, again);
  EXPECT_EQ(events1, events2) << "seeded fault sequence is not reproducible";
}

TEST(FaultPlan, ScheduledDuplicateDeliversOnce) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.schedule.push_back({0, 0, FaultKind::Duplicate});
  WorldOptions opts;
  opts.fault = std::make_shared<FaultPlan>(cfg);
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(41, 1, 3);  // op 0: duplicated on the wire
      c.send_value(42, 1, 3);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 3), 41);
      EXPECT_EQ(c.recv_value<int>(0, 3), 42);
      // The duplicate must have been suppressed, not queued.
      std::vector<std::byte> extra;
      EXPECT_FALSE(c.try_recv_bytes(0, 3, &extra));
    }
    c.barrier();
  }, opts);
  ASSERT_EQ(opts.fault->events().size(), 1u);
  EXPECT_EQ(opts.fault->events()[0].kind, FaultKind::Duplicate);
}

TEST(FaultPlan, ScheduledReorderPreservesPerSourceFifo) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.schedule.push_back({0, 0, FaultKind::Reorder});  // defer the first send
  WorldOptions opts;
  opts.fault = std::make_shared<FaultPlan>(cfg);
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 4; ++i) c.send_value(i, 1, 9);
    } else {
      // The deferred message physically arrives behind later ones; the seq
      // protocol must still deliver 0,1,2,3.
      for (int i = 0; i < 4; ++i) EXPECT_EQ(c.recv_value<int>(0, 9), i);
    }
    c.barrier();
  }, opts);
}

TEST(FaultPlan, DropWithinBudgetRetriesTransparently) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.drop_attempts = 3;  // < default max_send_attempts (5)
  cfg.schedule.push_back({0, 0, FaultKind::DropSend});
  WorldOptions opts;
  opts.fault = std::make_shared<FaultPlan>(cfg);
  TrafficStats stats;
  World::run(2, [&](Comm& c) {
    if (c.rank() == 0) c.send_value(17, 1, 1);
    if (c.rank() == 1) {
      EXPECT_EQ(c.recv_value<int>(0, 1), 17);
    }
    c.barrier();
    if (c.rank() == 0) stats = c.traffic();
  }, opts);
  EXPECT_EQ(stats.send_retries, 3u);
  EXPECT_EQ(stats.rank_retries.at(0), 3u);
}

TEST(FaultPlan, DropBeyondBudgetSurfacesTransientSendError) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.drop_attempts = 99;  // exhausts any budget
  cfg.schedule.push_back({0, 0, FaultKind::DropSend});
  WorldOptions opts;
  opts.fault = std::make_shared<FaultPlan>(cfg);
  opts.max_send_attempts = 3;
  try {
    World::run(2, [](Comm& c) {
      if (c.rank() == 0) c.send_value(1, 1, 5);
      if (c.rank() == 1) (void)c.recv_value<int>(0, 5);
    }, opts);
    FAIL() << "expected TransientSendError";
  } catch (const TransientSendError& e) {
    EXPECT_EQ(e.rank, 0);
    EXPECT_EQ(e.dst, 1);
    EXPECT_EQ(e.tag, 5);
    EXPECT_EQ(e.attempts, 3);
  }
}

TEST(FaultPlan, ScheduledRankDeathIsDiagnosedNotHung) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.schedule.push_back({1, 2, FaultKind::KillRank});
  WorldOptions opts;
  opts.fault = std::make_shared<FaultPlan>(cfg);
  // Rank 1 dies at its third comm op while peers sit in recv and barrier:
  // without poison-wake this deadlocks; with it, the death is structured.
  EXPECT_THROW(World::run(3, [](Comm& c) {
    if (c.rank() == 1) {
      c.send_value(1, 0, 1);       // op 0
      c.send_value(2, 0, 1);       // op 1
      c.send_value(3, 0, 1);       // op 2: killed here
    } else if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) (void)c.recv_value<int>(1, 1);
      (void)c.recv_value<int>(1, 2);  // never sent: woken by poison
    } else {
      c.barrier();  // never completed: woken by poison
    }
  }, opts), RankKilled);
}

TEST(RecvTimeout, BoundedRecvThrowsStructuredTimeout) {
  WorldOptions opts;
  opts.recv_timeout = 0.05;
  opts.recv_retries = 1;
  try {
    World::run(2, [](Comm& c) {
      if (c.rank() == 1) (void)c.recv_value<int>(0, 77);  // nobody sends
    }, opts);
    FAIL() << "expected RecvTimeout";
  } catch (const RecvTimeout& e) {
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.src, 0);
    EXPECT_EQ(e.tag, 77);
    // Two rounds of 0.05s each were waited through.
    EXPECT_GE(e.waited_seconds, 0.08);
  }
}

TEST(RecvTimeout, DoesNotFireWhenMessageArrives) {
  WorldOptions opts;
  opts.recv_timeout = 5.0;
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) c.send_value(5, 1, 2);
    if (c.rank() == 1) {
      EXPECT_EQ(c.recv_value<int>(0, 2), 5);
    }
  }, opts);
}

TEST(Watchdog, ConvertsSilentDeadlockIntoWorldStalled) {
  WorldOptions opts;
  opts.stall_timeout = 0.1;
  try {
    // A classic circular wait: both ranks receive on a tag the other never
    // sends. Without the watchdog this test would hang forever.
    World::run(2, [](Comm& c) {
      (void)c.recv_bytes(1 - c.rank(), 123);
    }, opts);
    FAIL() << "expected WorldStalled";
  } catch (const WorldStalled& e) {
    const auto& rep = e.report();
    ASSERT_EQ(rep.blocked.size(), 2u);
    for (const auto& b : rep.blocked) {
      EXPECT_EQ(b.op, "recv");
      EXPECT_EQ(b.tag, 123);
      EXPECT_EQ(b.peer, 1 - b.rank);
      EXPECT_GE(b.seconds, opts.stall_timeout);
    }
    // The diagnosis names ranks, ops and traffic.
    const std::string what = e.what();
    EXPECT_NE(what.find("blocked in recv"), std::string::npos);
    EXPECT_NE(what.find("traffic at stall"), std::string::npos);
  }
}

TEST(Watchdog, LeavesSlowButProgressingWorldAlone) {
  WorldOptions opts;
  opts.stall_timeout = 0.25;
  World::run(2, [](Comm& c) {
    // Continuous traffic for ~3 stall windows: never a stall.
    for (int i = 0; i < 60; ++i) {
      const int peer = 1 - c.rank();
      c.send_value(i, peer, 4);
      EXPECT_EQ(c.recv_value<int>(peer, 4), i);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }, opts);
}

// One rank computes without a comm op for over three stall windows while
// its peer waits in recv: the op counter stands still and the peer is
// blocked beyond stall_timeout, but the computing rank can still send, so
// it is not a stall. Checked for World::run and for WorkerPool's watchdog.
TEST(Watchdog, PeerComputingWithoutOpsIsNotAStall) {
  WorldOptions opts;
  opts.stall_timeout = 0.1;
  const auto job = [](Comm& c) {
    if (c.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(350));
      c.send_value(7, 1, 5);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 5), 7);
    }
  };
  EXPECT_NO_THROW(World::run(2, job, opts));

  WorkerPool pool(2, opts);
  const auto res = pool.submit([&](Comm& c, std::shared_ptr<void>&) { job(c); }).get();
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.world_rebuilt);
}

// A rank that waits on a peer which has already returned can never be
// served: with every rank still running blocked, it is a stall. The pool's
// watchdog poisons the job's world and the pool rebuilds it.
TEST(Watchdog, RankWaitingOnReturnedPeerIsAStall) {
  WorldOptions opts;
  opts.stall_timeout = 0.1;
  const auto job = [](Comm& c) {
    if (c.rank() == 1) (void)c.recv_bytes(0, 321);
  };
  try {
    World::run(2, job, opts);
    FAIL() << "expected WorldStalled";
  } catch (const WorldStalled& e) {
    const auto& rep = e.report();
    ASSERT_EQ(rep.blocked.size(), 1u);
    EXPECT_EQ(rep.blocked[0].rank, 1);
    EXPECT_EQ(rep.blocked[0].tag, 321);
  }

  WorkerPool pool(2, opts);
  const auto res = pool.submit([&](Comm& c, std::shared_ptr<void>&) { job(c); }).get();
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.world_rebuilt);
  EXPECT_TRUE(res.rank_errors[0].empty());
  EXPECT_FALSE(res.rank_errors[1].empty());
}

TEST(Poison, RecvThrowsEvenWithQueuedMessage) {
  // Poison beats a queued matching message: rank 1 delivers the message and
  // *then* dies; rank 0's payload sits in the mailbox, but a receive issued
  // after the abort must still throw rather than hand out data from an
  // aborted computation.
  EXPECT_THROW(World::run(2, [](Comm& c) {
    if (c.rank() == 1) {
      c.send_value(11, 0, 6);
      throw std::logic_error("rank 1 dies after sending");
    }
    while (!c.aborted()) std::this_thread::yield();
    EXPECT_THROW((void)c.recv_value<int>(1, 6), WorldAborted);
  }), std::logic_error);
}

TEST(HaloError, RecvTimeoutNamesSetAndPeerForLoopAndChain) {
  // Rank 1 skips a halo-reading step that rank 0 runs; rank 0's bounded
  // receive must surface a HaloError naming the set and the silent peer,
  // both from a solo par_loop's exchange and from a LoopChain's fused epoch.
  const auto mesh = test::make_grid(8, 6);
  WorldOptions opts;
  opts.recv_timeout = 0.05;
  // Healthy receives (set-up collectives, the first step) then tolerate a
  // 0.2 s scheduling skew between the ranks on a loaded or sanitized host.
  opts.recv_retries = 3;
  for (const bool chained : {false, true}) {
    SCOPED_TRACE(chained ? "LoopChain" : "par_loop");
    std::optional<op2::HaloError> caught;
    World::run(2, [&](Comm& comm) {
      op2::Context ctx(comm);
      auto& nodes = ctx.decl_set("nodes", mesh.nnode);
      auto& edges = ctx.decl_set("edges", mesh.nedge);
      auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
      auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
      auto& x = ctx.decl_dat<double>(nodes, 1, "x");
      auto& res = ctx.decl_dat<double>(nodes, 1, "res");
      ctx.partition(op2::Partitioner::Rcb, coords);
      const auto zero_k = [](double* r) { *r = 0.0; };
      const auto flux_k = [](const double* xa, const double* xb, double* ra, double* rb) {
        *ra += *xb - *xa;
        *rb -= *xb - *xa;
      };
      // Writing x dirties its halo, so the following read exchanges it.
      const auto step = [&] {
        op2::par_loop("touch", nodes, [](double* v) { *v += 1.0; }, op2::rw(x));
        if (chained) {
          op2::LoopChain chain(ctx, "flux_chain");
          chain.add("zero", nodes, zero_k, op2::write(res));
          chain.add("flux", edges, flux_k, op2::read(x, e2n, 0), op2::read(x, e2n, 1),
                    op2::inc(res, e2n, 0), op2::inc(res, e2n, 1));
          chain.execute();
        } else {
          op2::par_loop("flux", edges, flux_k, op2::read(x, e2n, 0), op2::read(x, e2n, 1),
                        op2::inc(res, e2n, 0), op2::inc(res, e2n, 1));
        }
      };
      step();  // both ranks: collective plan build, one clean exchange
      // The chained case must reach the receive through a fused epoch.
      if (chained) {
        EXPECT_EQ(ctx.find_chain("flux_chain")->halo_epochs, 1u);
      }
      if (comm.rank() == 1) return;
      try {
        step();
      } catch (const op2::HaloError& e) {
        caught = e;
      }
    }, opts);
    ASSERT_TRUE(caught.has_value());
    EXPECT_FALSE(caught->sending);
    EXPECT_EQ(caught->set, "nodes");
    EXPECT_EQ(caught->peer, 1);
  }
}

TEST(FaultConfig, FromEnvParsesSeedProbabilitiesAndKill) {
  ::setenv("VCGT_FAULT_SEED", "42", 1);
  ::setenv("VCGT_FAULT_P_DROP", "0.5", 1);
  ::setenv("VCGT_FAULT_KILL", "3:17", 1);
  const auto cfg = FaultConfig::from_env();
  ::unsetenv("VCGT_FAULT_SEED");
  ::unsetenv("VCGT_FAULT_P_DROP");
  ::unsetenv("VCGT_FAULT_KILL");
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.p_drop, 0.5);
  EXPECT_DOUBLE_EQ(cfg.p_delay, 0.02);  // default when seed is set
  ASSERT_EQ(cfg.schedule.size(), 1u);
  EXPECT_EQ(cfg.schedule[0].rank, 3);
  EXPECT_EQ(cfg.schedule[0].op, 17u);
  EXPECT_EQ(cfg.schedule[0].kind, FaultKind::KillRank);

  // No chaos env: a quiet config, and env-driven World::run stays fault-free.
  const auto quiet = FaultConfig::from_env();
  EXPECT_FALSE(quiet.enabled());
  EXPECT_EQ(World::options_from_env().fault, nullptr);
}

// ---------------------------------------------------------------------------
// Acceptance scenario: seeded chaos over the 4-rank coupled hydra+jm76 rig
// (VCGT_FAULT_SEED=42 semantics, expressed as an explicit WorldOptions so the
// test controls the plan object and can interrogate its event log).
// ---------------------------------------------------------------------------

jm76::CoupledConfig chaos_rig_config() {
  jm76::CoupledConfig cfg;
  cfg.rig = rig::rig250_spec(2);
  cfg.res = rig::resolution_tier("tiny");
  hydra::FlowConfig flow;
  flow.inner_iters = 2;
  flow.dt_phys = 5e-5;
  flow.rotor_swirl_frac = 0.05;
  flow.stator_swirl_frac = 0.02;
  cfg.flow = flow;
  cfg.hs_ranks = {1, 1};
  cfg.cus_per_interface = 2;  // world: 1 + 1 + 1*2 = 4 ranks
  cfg.pipelined = false;
  return cfg;
}

struct CoupledRunResult {
  std::vector<std::vector<double>> q;  ///< per row, global flow field
  std::vector<std::vector<hydra::MonitorRecorder::Record>> monitors;  ///< per row
};

CoupledRunResult run_coupled(const WorldOptions& opts) {
  const auto cfg = chaos_rig_config();
  constexpr int kSteps = 3;
  CoupledRunResult out;
  out.q.resize(2);
  out.monitors.resize(2);
  minimpi::World::run(cfg.layout().world_size(), [&](minimpi::Comm& world) {
    jm76::CoupledRig rigrun(world, cfg);
    std::unique_ptr<hydra::MonitorRecorder> rec;
    if (auto* solver = rigrun.solver()) rec = std::make_unique<hydra::MonitorRecorder>(*solver);
    for (int t = 0; t < kSteps; ++t) {
      rigrun.run(1);
      if (rec) rec->sample(t);
    }
    if (auto* solver = rigrun.solver()) {
      const auto row = static_cast<std::size_t>(rigrun.role().row);
      out.q[row] = solver->context().fetch_global(solver->q());
      out.monitors[row] = rec->history();
    }
  }, opts);
  return out;
}

TEST(ChaosAcceptance, SeededChaosCoupledRunIsBitIdenticalToFaultFree) {
  const CoupledRunResult clean = run_coupled(WorldOptions{});

  WorldOptions chaos;
  chaos.fault = std::make_shared<FaultPlan>(transient_chaos(42, 0.2));
  const CoupledRunResult faulty = run_coupled(chaos);

  // >= 3 distinct transient fault kinds actually fired.
  EXPECT_GE(chaos.fault->distinct_kinds(), 3);
  ASSERT_FALSE(chaos.fault->events().empty());

  // Flow fields: bit-identical per row.
  for (std::size_t row = 0; row < 2; ++row) {
    ASSERT_EQ(clean.q[row].size(), faulty.q[row].size());
    ASSERT_FALSE(clean.q[row].empty());
    for (std::size_t i = 0; i < clean.q[row].size(); ++i) {
      ASSERT_EQ(clean.q[row][i], faulty.q[row][i]) << "row " << row << " entry " << i;
    }
  }
  // Monitors: bit-identical histories.
  for (std::size_t row = 0; row < 2; ++row) {
    ASSERT_EQ(clean.monitors[row].size(), faulty.monitors[row].size());
    for (std::size_t t = 0; t < clean.monitors[row].size(); ++t) {
      const auto& a = clean.monitors[row][t];
      const auto& b = faulty.monitors[row][t];
      EXPECT_EQ(a.step, b.step);
      EXPECT_EQ(a.time, b.time);
      EXPECT_EQ(a.rms, b.rms);
      EXPECT_EQ(a.mdot_in, b.mdot_in);
      EXPECT_EQ(a.mdot_out, b.mdot_out);
      EXPECT_EQ(a.mean_p, b.mean_p);
      EXPECT_EQ(a.power, b.power);
    }
  }

  // Same seed twice: same fault sequence (the reproducibility witness).
  WorldOptions chaos2;
  chaos2.fault = std::make_shared<FaultPlan>(transient_chaos(42, 0.2));
  (void)run_coupled(chaos2);
  EXPECT_EQ(chaos.fault->events(), chaos2.fault->events());
}

TEST(ChaosAcceptance, KilledRankProducesStructuredDiagnosisNotHang) {
  FaultConfig cfg = transient_chaos(42, 0.2);
  cfg.schedule.push_back({3, 6, FaultKind::KillRank});  // a CU rank mid-run
  WorldOptions opts;
  opts.fault = std::make_shared<FaultPlan>(cfg);
  EXPECT_THROW((void)run_coupled(opts), WorldAborted);
  // The kill is in the event log at exactly the scheduled (rank, op).
  bool found = false;
  for (const auto& e : opts.fault->events()) {
    if (e.kind == FaultKind::KillRank) {
      EXPECT_EQ(e.rank, 3);
      EXPECT_EQ(e.op, 6u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ChaosAcceptance, DistributedMonolithicWithHalosSurvivesChaos) {
  // Halo exchanges under chaos: a 3-rank distributed monolithic rig (op2
  // halos + sliding plane inside one comm) must match its fault-free self
  // bitwise under a transient-only plan.
  jm76::MonolithicConfig mono;
  mono.rig = rig::rig250_spec(2);
  mono.res = rig::resolution_tier("tiny");
  hydra::FlowConfig flow;
  flow.inner_iters = 2;
  flow.dt_phys = 5e-5;
  flow.rotor_swirl_frac = 0.05;
  flow.stator_swirl_frac = 0.02;
  mono.flow = flow;

  auto run_mono = [&](const WorldOptions& opts) {
    std::vector<double> q;
    minimpi::World::run(3, [&](minimpi::Comm& world) {
      jm76::MonolithicRig mrig(world, mono);
      mrig.run(3);
      if (world.rank() == 0) q = mrig.context().fetch_global(mrig.solver(1).q());
      else (void)mrig.context().fetch_global(mrig.solver(1).q());
    }, opts);
    return q;
  };

  const auto clean = run_mono(WorldOptions{});
  WorldOptions chaos;
  chaos.fault = std::make_shared<FaultPlan>(transient_chaos(42, 0.04));
  const auto faulty = run_mono(chaos);
  EXPECT_GE(chaos.fault->distinct_kinds(), 3);
  ASSERT_EQ(clean.size(), faulty.size());
  ASSERT_FALSE(clean.empty());
  for (std::size_t i = 0; i < clean.size(); ++i) ASSERT_EQ(clean[i], faulty[i]) << i;
}

}  // namespace
