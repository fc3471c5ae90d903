// vcgt::serve — SessionSpec value semantics, protocol framing, WorkerPool
// lifecycle, plan-cache identity/eviction and admission control
// (DESIGN.md §12). The chaos-fault serve tests live in
// test_serve_chaos.cpp (label "chaos").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/minimpi/pool.hpp"
#include "src/op2/plancache.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/serve/session_spec.hpp"
#include "src/serve/storm.hpp"
#include "src/util/bytes.hpp"
#include "src/util/fmt.hpp"

namespace {

using namespace vcgt;

serve::SessionSpec tiny_spec(int ranks_per_row = 1, int nrows = 1) {
  serve::SessionSpec spec;
  spec.nrows = nrows;
  spec.tier = "tiny";
  spec.hs_ranks.assign(static_cast<std::size_t>(nrows), ranks_per_row);
  spec.nsteps = 2;
  spec.flow.inner_iters = 3;
  return spec;
}

// --- SessionSpec ------------------------------------------------------------

TEST(SessionSpec, RoundTripPreservesEverything) {
  auto spec = tiny_spec(2, 2);
  spec.rig = "rig250_swan_neck";
  spec.rpm = 12345.0;
  spec.tier = "";
  spec.res = {12, 5, 9};
  spec.flow.second_order = true;
  spec.flow.flux_scheme = hydra::FlowConfig::FluxScheme::Roe;
  spec.op2cfg.partial_halos = true;
  spec.op2cfg.grouped_halos = true;
  spec.search = jm76::SearchKind::Bins;
  spec.sharded_setup = true;
  spec.inner = 7;
  spec.fault.seed = 9;
  spec.fault.p_drop = 0.25;
  spec.fault.schedule.push_back({1, 33, minimpi::FaultKind::KillRank});

  const auto bytes = spec.serialize();
  const auto back = serve::SessionSpec::deserialize(bytes);
  EXPECT_TRUE(back == spec);
  EXPECT_EQ(back.hash(), spec.hash());
  EXPECT_EQ(back.setup_hash(), spec.setup_hash());
  EXPECT_EQ(back.fault.schedule.size(), 1u);
  EXPECT_EQ(back.fault.schedule[0].op, 33u);
  EXPECT_EQ(back.res.ntheta, 9);
  EXPECT_TRUE(back.sharded_setup);
}

TEST(SessionSpec, SetupHashIgnoresPerJobKnobs) {
  const auto base = tiny_spec();
  auto variant = base;
  variant.nsteps = 99;
  variant.inner = 5;
  variant.fault.seed = 4;
  variant.fault.p_delay = 0.5;
  // Same setup artifacts, different job: cache/warm key unchanged, job
  // identity changed.
  EXPECT_EQ(variant.setup_hash(), base.setup_hash());
  EXPECT_NE(variant.hash(), base.hash());
  EXPECT_NE(variant.fault_hash(), base.fault_hash());
}

TEST(SessionSpec, SetupHashCoversStructuralFields) {
  const auto base = tiny_spec();
  auto flow = base;
  flow.flow.cfl = 0.5;
  EXPECT_NE(flow.setup_hash(), base.setup_hash());
  auto halos = base;
  halos.op2cfg.partial_halos = true;
  EXPECT_NE(halos.setup_hash(), base.setup_hash());
  auto ranks = base;
  ranks.hs_ranks = {2};
  EXPECT_NE(ranks.setup_hash(), base.setup_hash());
  // Sharded contexts key separate plan-cache/warm-slot entries: the setup
  // path shapes the declared sets even though results are bit-identical.
  auto sharded = base;
  sharded.sharded_setup = true;
  EXPECT_NE(sharded.setup_hash(), base.setup_hash());
  EXPECT_TRUE(sharded.coupled_config(nullptr).sharded_setup);
}

TEST(SessionSpec, DeserializeRejectsGarbage) {
  std::vector<std::byte> junk(7, std::byte{0x5A});
  EXPECT_THROW(serve::SessionSpec::deserialize(junk), std::runtime_error);
}

TEST(SessionSpec, DeserializeRejectsVersion6Blob) {
  // Version 7 dropped three op2::Config fields; a version-6 blob must be
  // refused, not decoded with every later field shifted.
  auto bytes = tiny_spec().serialize();
  util::ByteWriter w;
  w.put_u16(6);
  const auto v6 = w.take();
  ASSERT_GE(bytes.size(), v6.size());
  std::copy(v6.begin(), v6.end(), bytes.begin());
  EXPECT_THROW(serve::SessionSpec::deserialize(bytes), std::runtime_error);
}

TEST(SessionSpec, CoupledConfigForcesUnpipelined) {
  auto spec = tiny_spec(1, 2);
  const auto cfg = spec.coupled_config(nullptr);
  EXPECT_FALSE(cfg.pipelined);
  EXPECT_EQ(cfg.plan_cache, nullptr);
  EXPECT_EQ(cfg.spec_hash, 0u);
  op2::PlanCache cache;
  const auto cached = spec.coupled_config(&cache);
  EXPECT_EQ(cached.plan_cache, &cache);
  EXPECT_EQ(cached.spec_hash, spec.setup_hash());
  EXPECT_EQ(cached.rig.rows.size(), 2u);
}

TEST(SessionSpec, UnknownRigThrows) {
  auto spec = tiny_spec();
  spec.rig = "rig9000";
  EXPECT_THROW(spec.coupled_config(nullptr), std::invalid_argument);
}

// --- protocol ---------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTripThroughSplitter) {
  serve::StepFrame step;
  step.job_id = 42;
  step.step = 3;
  step.time = 1.5e-6;
  step.rms = 0.125;
  step.mdot_in = -1.25;
  step.mdot_out = 1.25;
  step.mean_p = 101325.0;
  step.power = 1234.5;
  step.halo_bytes = 9999;
  step.halo_msgs = 11;
  serve::JobErrorFrame err;
  err.job_id = 42;
  err.error = "rank 1: boom";
  err.rank_errors = {"", "boom", ""};
  err.world_rebuilt = true;
  serve::SubmitFrame submit;
  submit.spec = tiny_spec().serialize();

  std::vector<std::byte> stream;
  for (const auto& frame :
       {serve::encode(serve::HelloFrame{}), serve::encode(submit),
        serve::encode(serve::JobAcceptedFrame{42, 7}), serve::encode(step),
        serve::encode(serve::JobDoneFrame{42, 3, true, true, 0.25, 1.5}),
        serve::encode(err)}) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  // Feed in 3-byte chunks: the splitter must reassemble across boundaries.
  serve::FrameSplitter splitter;
  for (std::size_t pos = 0; pos < stream.size(); pos += 3) {
    const std::size_t n = std::min<std::size_t>(3, stream.size() - pos);
    splitter.feed(std::span<const std::byte>(stream).subspan(pos, n));
  }

  auto hello = splitter.pop();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->as_hello().server, "vcgt-serve");

  auto got_submit = splitter.pop();
  ASSERT_TRUE(got_submit.has_value());
  const auto spec = serve::SessionSpec::deserialize(got_submit->as_submit().spec);
  EXPECT_EQ(spec.hash(), tiny_spec().hash());

  auto acc = splitter.pop();
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->as_job_accepted().job_id, 42u);
  EXPECT_EQ(acc->as_job_accepted().spec_hash, 7u);

  auto got_step = splitter.pop();
  ASSERT_TRUE(got_step.has_value());
  const auto s = got_step->as_step();
  EXPECT_EQ(s.step, 3);
  EXPECT_EQ(s.rms, 0.125);
  EXPECT_EQ(s.halo_bytes, 9999u);

  auto done = splitter.pop();
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->as_job_done().warm);
  EXPECT_EQ(done->as_job_done().steps, 3);

  auto got_err = splitter.pop();
  ASSERT_TRUE(got_err.has_value());
  const auto e = got_err->as_job_error();
  EXPECT_EQ(e.error, "rank 1: boom");
  ASSERT_EQ(e.rank_errors.size(), 3u);
  EXPECT_EQ(e.rank_errors[1], "boom");
  EXPECT_TRUE(e.world_rebuilt);

  EXPECT_FALSE(splitter.pop().has_value());
  EXPECT_EQ(splitter.pending_bytes(), 0u);
}

TEST(ServeProtocol, PartialFrameStaysPending) {
  const auto frame = serve::encode(serve::JobAcceptedFrame{1, 2});
  serve::FrameSplitter splitter;
  splitter.feed(std::span<const std::byte>(frame).subspan(0, frame.size() - 1));
  EXPECT_FALSE(splitter.pop().has_value());
  splitter.feed(std::span<const std::byte>(frame).subspan(frame.size() - 1, 1));
  EXPECT_TRUE(splitter.pop().has_value());
}

TEST(ServeProtocol, InvalidLengthAndVersionThrow) {
  // Length below the header size.
  std::vector<std::byte> tiny = {std::byte{1}, std::byte{0}, std::byte{0},
                                 std::byte{0}};
  serve::FrameSplitter bad_len;
  EXPECT_THROW(bad_len.feed(tiny), std::runtime_error);

  // Oversized length prefix.
  std::vector<std::byte> huge = {std::byte{0xFF}, std::byte{0xFF},
                                 std::byte{0xFF}, std::byte{0x7F}};
  serve::FrameSplitter bad_huge;
  EXPECT_THROW(bad_huge.feed(huge), std::runtime_error);

  // Valid length, wrong protocol version.
  auto frame = serve::encode(serve::JobAcceptedFrame{1, 2});
  frame[4] = std::byte{0x66};  // version LSB
  serve::FrameSplitter bad_ver;
  EXPECT_THROW(bad_ver.feed(frame), std::runtime_error);
}

TEST(ServeProtocol, TruncatedBodyThrowsOnDecode) {
  serve::Frame f;
  f.type = serve::FrameType::Step;
  f.body.assign(4, std::byte{0});  // far too short for a StepFrame
  EXPECT_THROW(static_cast<void>(f.as_step()), std::runtime_error);
  // Decoding as the wrong type is refused outright.
  serve::Frame wrong;
  wrong.type = serve::FrameType::Hello;
  EXPECT_THROW(static_cast<void>(wrong.as_step()), std::runtime_error);
}

// --- WorkerPool -------------------------------------------------------------

TEST(WorkerPool, WarmSlotsPersistAcrossJobs) {
  minimpi::WorkerPool pool(2);
  auto r1 = pool.submit([](minimpi::Comm& comm, std::shared_ptr<void>& slot) {
    slot = std::make_shared<int>(100 + comm.rank());
    comm.barrier();
  });
  EXPECT_TRUE(r1.get().ok);

  std::atomic<int> seen{0};
  auto r2 = pool.submit([&seen](minimpi::Comm& comm, std::shared_ptr<void>& slot) {
    auto v = std::static_pointer_cast<int>(slot);
    if (v != nullptr && *v == 100 + comm.rank()) seen.fetch_add(1);
    comm.barrier();
  });
  EXPECT_TRUE(r2.get().ok);
  EXPECT_EQ(seen.load(), 2);
  EXPECT_EQ(pool.generation(), 1u);
}

TEST(WorkerPool, ThrowingRankPoisonsRebuildsAndDropsSlots) {
  minimpi::WorkerPool pool(2);
  auto r1 = pool.submit([](minimpi::Comm& comm, std::shared_ptr<void>& slot) {
    slot = std::make_shared<int>(comm.rank());
    comm.barrier();
  });
  EXPECT_TRUE(r1.get().ok);

  auto r2 = pool.submit([](minimpi::Comm& comm, std::shared_ptr<void>&) {
    if (comm.rank() == 1) throw std::runtime_error("boom");
    // Rank 0 blocks in a collective with the dead rank: poisoning must
    // wake it with a structured error rather than hanging the job.
    comm.barrier();
  });
  const auto res = r2.get();
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.world_rebuilt);
  ASSERT_EQ(res.rank_errors.size(), 2u);
  EXPECT_EQ(res.rank_errors[1], "boom");
  EXPECT_FALSE(res.rank_errors[0].empty());  // WorldAborted on the peer
  EXPECT_EQ(pool.generation(), 2u);

  std::atomic<int> empty{0};
  auto r3 = pool.submit([&empty](minimpi::Comm& comm, std::shared_ptr<void>& slot) {
    if (slot == nullptr) empty.fetch_add(1);
    comm.barrier();
  });
  EXPECT_TRUE(r3.get().ok);
  EXPECT_EQ(empty.load(), 2);
}

TEST(WorkerPool, JobsRunStrictlyInOrder) {
  minimpi::WorkerPool pool(2);
  std::atomic<int> order{0};
  std::vector<std::future<minimpi::WorkerPool::JobResult>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(pool.submit([&order, i](minimpi::Comm& comm, std::shared_ptr<void>&) {
      comm.barrier();
      if (comm.rank() == 0) {
        // Strict FIFO: job i must observe exactly i predecessors.
        EXPECT_EQ(order.fetch_add(1), i);
      }
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
}

TEST(WorkerPool, ShutdownFailsQueuedJobs) {
  auto pool = std::make_unique<minimpi::WorkerPool>(2);
  auto slow = pool->submit([](minimpi::Comm& comm, std::shared_ptr<void>&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    comm.barrier();
  });
  auto queued = pool->submit([](minimpi::Comm&, std::shared_ptr<void>&) {});
  pool->shutdown();
  EXPECT_TRUE(slow.get().ok);  // in-flight jobs finish
  const auto res = queued.get();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("shut down"), std::string::npos);
  auto after = pool->submit([](minimpi::Comm&, std::shared_ptr<void>&) {});
  EXPECT_FALSE(after.get().ok);
}

// --- plan cache -------------------------------------------------------------

TEST(PlanCache, LruEvictionUnderMemoryCap) {
  op2::PlanCache cache(2048);
  const auto entry = [] { return std::make_shared<const int>(7); };
  cache.insert_value<int>("a", entry(), 1000);
  cache.insert_value<int>("b", entry(), 1000);
  EXPECT_NE(cache.lookup("a"), nullptr);  // bump: "b" is now LRU
  cache.insert_value<int>("c", entry(), 1000);
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, cache.max_bytes());
  EXPECT_EQ(stats.entries, 2u);

  // An entry larger than the whole cap is refused, not admitted-and-thrashed.
  cache.insert_value<int>("giant", entry(), 1 << 20);
  EXPECT_FALSE(cache.contains("giant"));
}

// Concurrent callers of one key: the builder runs once, the first caller
// books the miss and every other caller a hit, whether it waited for the
// build or arrived after it.
TEST(PlanCache, GetOrBuildIsSingleFlight) {
  op2::PlanCache cache;
  constexpr int kCallers = 6;
  std::atomic<int> builds{0};
  std::atomic<int> arrived{0};
  std::vector<std::shared_ptr<const int>> got(kCallers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      while (arrived.load() < kCallers) std::this_thread::yield();
      got[static_cast<std::size_t>(i)] = cache.get_or_build_as<int>("k", [&] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::pair{std::make_shared<const int>(42), std::size_t{8}};
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& v : got) {
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v.get(), got[0].get());  // one shared artifact
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kCallers - 1));
  EXPECT_EQ(stats.insertions, 1u);
}

// A throwing builder: a caller that waits on it gets the same exception,
// nothing is cached, and the next call builds afresh. The builder holds
// the key long enough (200 ms) for the second caller to be waiting.
TEST(PlanCache, GetOrBuildFailureReachesWaitersAndCachesNothing) {
  op2::PlanCache cache;
  std::atomic<bool> building{false};
  std::atomic<int> builds{0};
  const auto failing = [&]() -> std::pair<std::shared_ptr<const int>, std::size_t> {
    builds.fetch_add(1);
    building.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    throw std::runtime_error("mesh generation failed");
  };
  std::string builder_error, waiter_error;
  std::thread builder([&] {
    try {
      (void)cache.get_or_build_as<int>("k", failing);
    } catch (const std::runtime_error& e) {
      builder_error = e.what();
    }
  });
  while (!building.load()) std::this_thread::yield();
  try {
    (void)cache.get_or_build_as<int>("k", failing);
  } catch (const std::runtime_error& e) {
    // Both callers hold the one exception object. Join the builder before
    // reading it here, so its release happens-before this read and the
    // final free in a way ThreadSanitizer can see (libstdc++'s exception
    // refcount is not instrumented).
    builder.join();
    waiter_error = e.what();
  }
  if (builder.joinable()) builder.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(builder_error, "mesh generation failed");
  EXPECT_EQ(waiter_error, "mesh generation failed");
  EXPECT_FALSE(cache.contains("k"));
  EXPECT_EQ(cache.stats().insertions, 0u);

  const auto v = cache.get_or_build_as<int>(
      "k", [] { return std::pair{std::make_shared<const int>(7), std::size_t{8}}; });
  EXPECT_EQ(*v, 7);
  EXPECT_TRUE(cache.contains("k"));
}

// A cold two-row session on a fresh cache: each row mesh is needed by the
// row's two HS ranks and by both CUs of the interface, and built once.
// The counts are exact: per row mesh one miss and three hits, plus one
// owner-partition miss and one plan-snapshot miss per HS rank (the cold
// path looks both up on every rank before anyone inserts).
TEST(PlanCache, ColdSessionBuildsEachRowMeshOnce) {
  auto spec = tiny_spec(/*ranks_per_row=*/2, /*nrows=*/2);
  spec.cus_per_interface = 2;
  spec.nsteps = 1;
  serve::Server server;
  const auto ticket = server.submit(spec);
  ASSERT_TRUE(ticket.accepted) << ticket.reason;
  const auto oc = server.wait(ticket.job_id);
  ASSERT_TRUE(oc.ok) << oc.error;
  EXPECT_FALSE(oc.warm);

  const auto& cache = server.plan_cache();
  for (int row = 0; row < 2; ++row) {
    EXPECT_TRUE(cache.contains(util::fmt("mesh:{}:row{}", spec.setup_hash(), row)));
  }
  const auto stats = cache.stats();
  constexpr std::uint64_t kRows = 2, kHsRanks = 4, kCallersPerMesh = 2 + 2;
  EXPECT_EQ(stats.misses, kRows + 2 * kHsRanks);
  EXPECT_EQ(stats.hits, kRows * (kCallersPerMesh - 1));
}

// The identity matrix: a cache-fed build must be bit-identical to the cold
// build, in serial and 2-rank worlds. The monitors in the step frames
// (residual rms, mass flows, mean pressure, power) are reductions over the
// full flow state — any divergence in an imported partition, renumbering or
// plan shows up there.
class PlanCacheIdentity : public ::testing::TestWithParam<int> {};

TEST_P(PlanCacheIdentity, CacheHitBitIdenticalToColdBuild) {
  auto spec = tiny_spec(GetParam());

  serve::Server server;
  const auto run = [&server](const serve::SessionSpec& s) {
    const auto ticket = server.submit(s);
    EXPECT_TRUE(ticket.accepted) << ticket.reason;
    auto oc = server.wait(ticket.job_id);
    EXPECT_TRUE(oc.ok) << oc.error;
    EXPECT_EQ(oc.frames.size(), static_cast<std::size_t>(s.nsteps));
    return oc;
  };

  // Cold build: every artifact computed, then exported.
  const auto cold = run(spec);
  EXPECT_FALSE(cold.warm);
  EXPECT_FALSE(cold.plans_cached);

  // Fresh world, same setup: a (silent) fault variant forces a second pool,
  // so construction re-runs — against a hot cache.
  auto twin = spec;
  twin.fault.seed = 5;
  twin.fault.p_delay = 1e-12;  // enabled() but will never fire in practice
  const auto cached = run(twin);
  EXPECT_FALSE(cached.warm);
  EXPECT_TRUE(cached.partition_cached);
  EXPECT_TRUE(cached.plans_cached);

  // Warm path on the first world: the parked rig, reinitialized.
  const auto warm = run(spec);
  EXPECT_TRUE(warm.warm);

  ASSERT_EQ(cold.frames.size(), cached.frames.size());
  ASSERT_EQ(cold.frames.size(), warm.frames.size());
  for (std::size_t i = 0; i < cold.frames.size(); ++i) {
    const auto& a = cold.frames[i];
    const auto& b = cached.frames[i];
    const auto& w = warm.frames[i];
    // Bit-identical: exact double equality, not tolerance.
    EXPECT_EQ(a.rms, b.rms) << "step " << i;
    EXPECT_EQ(a.mdot_in, b.mdot_in) << "step " << i;
    EXPECT_EQ(a.mdot_out, b.mdot_out) << "step " << i;
    EXPECT_EQ(a.mean_p, b.mean_p) << "step " << i;
    EXPECT_EQ(a.power, w.power) << "step " << i;
    EXPECT_EQ(a.rms, w.rms) << "step " << i;
    EXPECT_EQ(a.mean_p, w.mean_p) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SerialAndDistributedTimesLayouts, PlanCacheIdentity,
    ::testing::Values(1, 2), [](const auto& info) {
      return std::string(info.param == 1 ? "serial_AoS" : "dist2_AoS");
    });

// --- admission control ------------------------------------------------------

TEST(ServeServer, BoundedQueueRejectsWithRetryAfter) {
  serve::ServerOptions opts;
  opts.queue_capacity = 1;
  serve::Server server(opts);
  const auto spec = tiny_spec();
  // The first job must still be running at the second submit. A 2-step
  // tiny job can finish in the gap between the two calls when the
  // submitting thread is descheduled, so it runs long enough not to.
  auto slow = spec;
  slow.nsteps = 200;
  const auto first = server.submit(slow);
  ASSERT_TRUE(first.accepted);
  // The first job is outstanding: the bounded queue must reject, not queue.
  const auto second = server.submit(spec);
  EXPECT_FALSE(second.accepted);
  EXPECT_GT(second.retry_after, 0.0);
  EXPECT_FALSE(second.reason.empty());
  const auto oc = server.wait(first.job_id);
  EXPECT_TRUE(oc.ok) << oc.error;
  // Admission capacity is released on completion.
  const auto third = server.submit(spec);
  EXPECT_TRUE(third.accepted);
  EXPECT_TRUE(server.wait(third.job_id).ok);
}

TEST(ServeServer, RankBudgetRejectsOversizedWorlds) {
  serve::ServerOptions opts;
  opts.max_total_ranks = 2;
  serve::Server server(opts);
  auto big = tiny_spec(3);  // needs 3 ranks
  const auto t = server.submit(big);
  EXPECT_FALSE(t.accepted);
  EXPECT_NE(t.reason.find("rank budget"), std::string::npos);
}

TEST(ServeServer, WaitStreamRendersProtocolFrames) {
  serve::Server server;
  const auto spec = tiny_spec();
  const auto ticket = server.submit(spec);
  ASSERT_TRUE(ticket.accepted);
  const auto stream = server.wait_stream(ticket.job_id);
  serve::FrameSplitter splitter;
  splitter.feed(stream);
  auto acc = splitter.pop();
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->type, serve::FrameType::JobAccepted);
  EXPECT_EQ(acc->as_job_accepted().job_id, ticket.job_id);
  int steps = 0;
  std::optional<serve::Frame> f;
  std::optional<serve::Frame> last;
  while ((f = splitter.pop()).has_value()) {
    if (f->type == serve::FrameType::Step) ++steps;
    last = f;
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, serve::FrameType::JobDone);
  EXPECT_EQ(steps, spec.nsteps);
  EXPECT_EQ(last->as_job_done().steps, spec.nsteps);
  // The handle is consumed: a second wait is a caller bug.
  EXPECT_THROW(server.wait(ticket.job_id), std::invalid_argument);
}

TEST(ServeServer, StormAgainstTightQueueSeesBackpressure) {
  serve::ServerOptions opts;
  opts.queue_capacity = 2;
  serve::Server server(opts);
  serve::StormConfig storm;
  storm.jobs = 10;
  // Heavy jobs + arrivals far above service capacity: the whole storm
  // lands (seeded, ~1 ms gaps) while the first job is still marching its
  // 400 steps, so arrivals beyond the queue cap must bounce regardless of
  // how fast the machine is.
  auto heavy = tiny_spec();
  heavy.nsteps = 400;
  storm.rate_hz = 1000.0;
  storm.seed = 3;
  storm.specs.push_back(heavy);
  const auto res = serve::run_storm(server, storm);
  EXPECT_EQ(res.submitted, 10);
  EXPECT_GT(res.rejected, 0);
  EXPECT_GT(res.completed, 0);
  EXPECT_EQ(res.hung, 0);
  EXPECT_EQ(res.accepted, res.completed + res.failed);
  EXPECT_GE(res.p99_ms, res.p50_ms);
}

}  // namespace
