// LoopChain planner/executor tests (DESIGN.md §10): cross-loop dependence
// classification, dependence-aligned tile frontiers and tile coloring,
// fused halo epochs, chain metering, chained-plan fingerprints and the
// hydra step chain against its eager reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/hydra/solver.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/op2/op2.hpp"
#include "src/rig/annulus.hpp"
#include "tests/testmesh.hpp"

namespace {

using namespace vcgt;
using op2::index_t;

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --- dependence analysis -----------------------------------------------------

TEST(ChainDeps, ClassifiesRawWarWaw) {
  const auto mesh = test::make_grid(6, 5);
  op2::Context ctx;
  auto& nodes = ctx.decl_set("nodes", mesh.nnode);
  auto& edges = ctx.decl_set("edges", mesh.nedge);
  auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
  auto& a = ctx.decl_dat<double>(nodes, 1, "a");
  auto& b = ctx.decl_dat<double>(edges, 1, "b");

  op2::LoopChain chain(ctx, "dep_chain");
  chain.add("stamp1", nodes,
            [](double* av, const op2::gindex_t* gid) {
              *av = 0.5 * static_cast<double>(*gid) + 1.0;
            },
            op2::write(a), op2::arg_idx());
  chain.add("edge_sum", edges,
            [](double* bv, const double* a0, const double* a1) { *bv = *a0 + *a1; },
            op2::write(b), op2::read(a, e2n, 0), op2::read(a, e2n, 1));
  chain.add("stamp2", nodes, [](double* av) { *av = -3.0; }, op2::write(a));
  chain.execute();

  const op2::ChainPlan* plan = chain.plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->members.size(), 3u);

  const auto has_dep = [&](int src, int dst, op2::ChainDepKind kind) {
    for (const auto& d : plan->deps) {
      if (d.src == src && d.dst == dst && d.kind == kind && d.dat == &a) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_dep(0, 1, op2::ChainDepKind::Raw));  // stamp1 -> edge_sum
  EXPECT_TRUE(has_dep(1, 2, op2::ChainDepKind::War));  // edge_sum -> stamp2
  EXPECT_TRUE(has_dep(0, 2, op2::ChainDepKind::Waw));  // stamp1 -> stamp2
  // No spurious edge on b (written by one member only).
  for (const auto& d : plan->deps) EXPECT_NE(d.dat, &b);

  // Behavioral check of the same dependences: edge_sum saw stamp1's values
  // (RAW honored, stamp2's overwrite not visible early = WAR honored).
  for (index_t e = 0; e < mesh.nedge; ++e) {
    const auto n0 = mesh.edge2node[static_cast<std::size_t>(e) * 2];
    const auto n1 = mesh.edge2node[static_cast<std::size_t>(e) * 2 + 1];
    const double want = (0.5 * static_cast<double>(n0) + 1.0) +
                        (0.5 * static_cast<double>(n1) + 1.0);
    EXPECT_DOUBLE_EQ(b.elem(e)[0], want);
  }
  for (index_t n = 0; n < mesh.nnode; ++n) EXPECT_DOUBLE_EQ(a.elem(n)[0], -3.0);
}

// --- tiles and coloring ------------------------------------------------------

TEST(ChainTiles, FrontiersMonotoneColoringValid) {
  const auto mesh = test::make_grid(12, 9);
  op2::Config cfg;
  cfg.chain_tile = 8;  // force many tiles on this small mesh
  op2::Context ctx(cfg);
  auto& nodes = ctx.decl_set("nodes", mesh.nnode);
  auto& edges = ctx.decl_set("edges", mesh.nedge);
  auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
  auto& deg = ctx.decl_dat<double>(nodes, 1, "deg");

  op2::LoopChain chain(ctx, "deg_chain");
  chain.add("zero", nodes, [](double* d) { *d = 0.0; }, op2::write(deg));
  chain.add("count", edges,
            [](double* d0, double* d1) {
              *d0 += 1.0;
              *d1 += 1.0;
            },
            op2::inc(deg, e2n, 0), op2::inc(deg, e2n, 1));
  chain.add("scale", nodes, [](double* d) { *d *= 2.0; }, op2::rw(deg));
  chain.execute();

  const op2::ChainPlan* plan = chain.plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->segments.size(), 1u);
  const op2::ChainSegment& seg = plan->segments[0];
  ASSERT_TRUE(seg.fused);
  ASSERT_EQ(seg.tile_end.size(), 3u);
  const int ntiles = static_cast<int>(seg.tile_end[0].size());
  ASSERT_GT(ntiles, 3);  // chain_tile=8 on 218 edges

  // Frontiers: monotone per member, last boundary covers the full range.
  const index_t sizes[3] = {mesh.nnode, mesh.nedge, mesh.nnode};
  for (int m = 0; m < 3; ++m) {
    const auto& be = seg.tile_end[static_cast<std::size_t>(m)];
    for (int t = 1; t < ntiles; ++t) {
      EXPECT_LE(be[static_cast<std::size_t>(t - 1)], be[static_cast<std::size_t>(t)]);
    }
    EXPECT_EQ(be.back(), sizes[m]);
  }

  // Per-tile node touch sets (the only written dat is deg, on nodes):
  // zero/scale touch their direct range and write; count writes both map
  // ends. Mirror the planner's conflict rule and assert color legality.
  const auto tile_range = [&](int m, int t) {
    const auto& be = seg.tile_end[static_cast<std::size_t>(m)];
    const index_t lo = t == 0 ? 0 : be[static_cast<std::size_t>(t - 1)];
    return std::pair<index_t, index_t>(lo, be[static_cast<std::size_t>(t)]);
  };
  std::vector<std::set<index_t>> wset(static_cast<std::size_t>(ntiles));
  for (int t = 0; t < ntiles; ++t) {
    auto [l0, h0] = tile_range(0, t);
    for (index_t n = l0; n < h0; ++n) wset[static_cast<std::size_t>(t)].insert(n);
    auto [l1, h1] = tile_range(1, t);
    for (index_t e = l1; e < h1; ++e) {
      wset[static_cast<std::size_t>(t)].insert(mesh.edge2node[static_cast<std::size_t>(e) * 2]);
      wset[static_cast<std::size_t>(t)].insert(
          mesh.edge2node[static_cast<std::size_t>(e) * 2 + 1]);
    }
    auto [l2, h2] = tile_range(2, t);
    for (index_t n = l2; n < h2; ++n) wset[static_cast<std::size_t>(t)].insert(n);
  }
  const auto intersects = [](const std::set<index_t>& x, const std::set<index_t>& y) {
    for (const index_t v : x) {
      if (y.count(v)) return true;
    }
    return false;
  };
  ASSERT_EQ(static_cast<int>(seg.tile_colors.size()), ntiles);
  for (int t1 = 0; t1 < ntiles; ++t1) {
    for (int t2 = t1 + 1; t2 < ntiles; ++t2) {
      if (intersects(wset[static_cast<std::size_t>(t1)],
                     wset[static_cast<std::size_t>(t2)])) {
        // Conflicting tiles: the later one must carry a strictly larger
        // color, so colors-ascending execution respects the dependence.
        EXPECT_LT(seg.tile_colors[static_cast<std::size_t>(t1)],
                  seg.tile_colors[static_cast<std::size_t>(t2)])
            << "tiles " << t1 << "," << t2;
      }
    }
  }
  EXPECT_EQ(seg.n_colors,
            1 + *std::max_element(seg.tile_colors.begin(), seg.tile_colors.end()));

  // Results: deg == 2 * node degree, regardless of tiling.
  std::vector<double> ref(static_cast<std::size_t>(mesh.nnode), 0.0);
  for (index_t e = 0; e < mesh.nedge; ++e) {
    ref[static_cast<std::size_t>(mesh.edge2node[static_cast<std::size_t>(e) * 2])] += 1.0;
    ref[static_cast<std::size_t>(mesh.edge2node[static_cast<std::size_t>(e) * 2 + 1])] +=
        1.0;
  }
  for (index_t n = 0; n < mesh.nnode; ++n) {
    EXPECT_DOUBLE_EQ(deg.elem(n)[0], 2.0 * ref[static_cast<std::size_t>(n)]);
  }
}

TEST(ChainTiles, ThreadedColoredExecutionMatchesSerial) {
  // Integer-valued increments commute exactly, so the threaded tile-colored
  // execution must reproduce the serial chained result bit-for-bit.
  const auto mesh = test::make_grid(14, 11);
  std::vector<double> serial, threaded;
  for (const int nthreads : {1, 3}) {
    op2::Config cfg;
    cfg.nthreads = nthreads;
    cfg.chain_tile = 16;
    op2::Context ctx(cfg);
    auto& nodes = ctx.decl_set("nodes", mesh.nnode);
    auto& edges = ctx.decl_set("edges", mesh.nedge);
    auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
    auto& deg = ctx.decl_dat<double>(nodes, 1, "deg");
    op2::LoopChain chain(ctx, "deg_chain");
    chain.add("zero", nodes, [](double* d) { *d = 0.0; }, op2::write(deg));
    chain.add("count", edges,
              [](double* d0, double* d1) {
                *d0 += 1.0;
                *d1 += 1.0;
              },
              op2::inc(deg, e2n, 0), op2::inc(deg, e2n, 1));
    chain.add("scale", nodes, [](double* d) { *d = 2.0 * *d + 1.0; }, op2::rw(deg));
    for (int i = 0; i < 3; ++i) chain.execute();
    (nthreads == 1 ? serial : threaded) = ctx.fetch_global(deg);
  }
  EXPECT_TRUE(bit_equal(serial, threaded));
}

// --- fingerprints ------------------------------------------------------------

/// Runs a two-member chain whose members share four dats, so the planner
/// finds four dependence edges between the same pair of members. `decoys`
/// keeps that many heap blocks alive between the dat declarations, which
/// moves the dats to other addresses: the planner's pointer-keyed per-member
/// use maps then iterate in another order, and only its declaration-order
/// sort of the edges keeps the fingerprint the same.
std::map<std::string, std::uint64_t> run_fp_chain(int decoys) {
  const auto mesh = test::make_grid(7, 6);
  op2::Config cfg;
  cfg.chain_tile = 8;
  op2::Context ctx(cfg);
  std::vector<std::unique_ptr<char[]>> heap;
  const auto shift = [&] {
    for (int i = 0; i < decoys; ++i) {
      heap.push_back(std::make_unique<char[]>(24 + 40 * static_cast<std::size_t>(i)));
    }
  };
  auto& nodes = ctx.decl_set("nodes", mesh.nnode);
  auto& edges = ctx.decl_set("edges", mesh.nedge);
  auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
  auto& x = ctx.decl_dat<double>(nodes, 2, "x");
  shift();
  auto& u = ctx.decl_dat<double>(nodes, 1, "u");
  shift();
  auto& v = ctx.decl_dat<double>(nodes, 1, "v");
  shift();
  auto& w = ctx.decl_dat<double>(nodes, 1, "w");
  shift();
  auto& f = ctx.decl_dat<double>(edges, 1, "f");
  op2::LoopChain chain(ctx, "fp_chain");
  chain.add("stamp", nodes,
            [](double* xv, double* uv, double* vv, double* wv, const op2::gindex_t* gid) {
              xv[0] = static_cast<double>(*gid);
              xv[1] = 0.25 * static_cast<double>(*gid);
              *uv = 1.0 + xv[0];
              *vv = 2.0 * xv[1];
              *wv = xv[0] - xv[1];
            },
            op2::write(x), op2::write(u), op2::write(v), op2::write(w), op2::arg_idx());
  chain.add("flux", edges,
            [](double* fv, const double* x0, const double* x1, const double* u1,
               const double* v0, const double* w1) {
              *fv = x1[0] - x0[1] + *u1 - *v0 + *w1;
            },
            op2::write(f), op2::read(x, e2n, 0), op2::read(x, e2n, 1),
            op2::read(u, e2n, 1), op2::read(v, e2n, 0), op2::read(w, e2n, 1));
  chain.execute();
  return ctx.plan_fingerprints();
}

TEST(ChainFingerprint, StableAcrossAllocationsAndInvocations) {
  const auto first = run_fp_chain(0);
  ASSERT_TRUE(first.count("chain:fp_chain"));
  // Chained-plan fingerprints are pointer-free: the identical declared
  // structure in a fresh context hashes identically, whether its dats land
  // at the same addresses or at others.
  EXPECT_EQ(first, run_fp_chain(0));
  for (int decoys = 1; decoys <= 32; ++decoys) {
    EXPECT_EQ(first, run_fp_chain(decoys)) << decoys << " decoy blocks per declaration";
  }
}

TEST(ChainFingerprint, RedeclarationMismatchThrows) {
  op2::Context ctx;
  auto& nodes = ctx.decl_set("nodes", 16);
  auto& a = ctx.decl_dat<double>(nodes, 1, "a");
  auto& b = ctx.decl_dat<double>(nodes, 1, "b");
  {
    op2::LoopChain chain(ctx, "c");
    chain.add("l0", nodes, [](double* v) { *v = 1.0; }, op2::write(a));
    chain.add("l1", nodes, [](double* v) { *v *= 2.0; }, op2::rw(a));
    chain.execute();
  }
  {  // Same name, different member structure: the cache must refuse.
    op2::LoopChain chain(ctx, "c");
    chain.add("l0", nodes, [](double* v) { *v = 1.0; }, op2::write(b));
    chain.add("l1", nodes, [](double* v) { *v *= 2.0; }, op2::rw(b));
    EXPECT_THROW(chain.execute(), std::logic_error);
  }
}

// --- distributed: fused epochs -----------------------------------------------

TEST(ChainDist, FusedEpochsBitIdenticalWithFewerMessages) {
  const auto mesh = test::make_grid(12, 10);
  const int iters = 4;
  std::vector<double> xinit(static_cast<std::size_t>(mesh.nnode));
  for (index_t n = 0; n < mesh.nnode; ++n) {
    xinit[static_cast<std::size_t>(n)] =
        1.5 * mesh.coords[static_cast<std::size_t>(n) * 2] +
        0.25 * mesh.coords[static_cast<std::size_t>(n) * 2 + 1] + 1.0;
  }

  // One pseudo-solver iteration: zero res, accumulate antisymmetric edge
  // fluxes of two fields x and y into res, relax both by res. The flux
  // reads of x and y need fresh halos every iteration (both are rewritten
  // by the update); the fused epoch packs both dats into one message per
  // neighbor where the per-loop exchange sends one message per dat.
  const auto run = [&](op2::Context& ctx, bool chained, std::vector<double>* out_x,
                       std::uint64_t* out_msgs, std::uint64_t* out_epochs) {
    auto& nodes = ctx.decl_set("nodes", mesh.nnode);
    auto& edges = ctx.decl_set("edges", mesh.nedge);
    auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
    auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
    auto& x = ctx.decl_dat<double>(nodes, 1, "x", xinit);
    auto& y = ctx.decl_dat<double>(nodes, 1, "y", xinit);
    auto& res = ctx.decl_dat<double>(nodes, 1, "res");
    if (ctx.distributed()) ctx.partition(op2::Partitioner::Rcb, coords);

    const auto zero_k = [](double* r) { *r = 0.0; };
    const auto flux_k = [](const double* xa, const double* xb, const double* ya,
                           const double* yb, double* ra, double* rb) {
      const double f = 0.5 * (*xb - *xa) + 0.25 * (*yb - *ya);
      *ra += f;
      *rb -= f;
    };
    const auto update_k = [](double* xv, double* yv, const double* r) {
      *xv += 0.7 * *r;
      *yv = 0.9 * *yv + 0.2 * *r;
    };
    for (int i = 0; i < iters; ++i) {
      if (chained) {
        op2::LoopChain chain(ctx, "relax");
        chain.add("zero_res", nodes, zero_k, op2::write(res));
        chain.add("edge_flux", edges, flux_k, op2::read(x, e2n, 0), op2::read(x, e2n, 1),
                  op2::read(y, e2n, 0), op2::read(y, e2n, 1), op2::inc(res, e2n, 0),
                  op2::inc(res, e2n, 1));
        chain.add("update", nodes, update_k, op2::rw(x), op2::rw(y), op2::read(res));
        chain.execute();
        if (i == iters - 1 && out_epochs && ctx.rank() == 0) {
          *out_epochs = chain.plan()->halo_epochs;
        }
      } else {
        op2::par_loop("zero_res", nodes, zero_k, op2::write(res));
        op2::par_loop("edge_flux", edges, flux_k, op2::read(x, e2n, 0),
                      op2::read(x, e2n, 1), op2::read(y, e2n, 0), op2::read(y, e2n, 1),
                      op2::inc(res, e2n, 0), op2::inc(res, e2n, 1));
        op2::par_loop("update", nodes, update_k, op2::rw(x), op2::rw(y), op2::read(res));
      }
    }
    const auto gx = ctx.fetch_global(x);
    if (ctx.rank() == 0) {
      if (out_x) *out_x = gx;
      if (out_msgs) *out_msgs = ctx.total_stats().halo_msgs;
    }
  };

  std::vector<double> x_serial, x_chain, x_plain;
  std::uint64_t chain_msgs = 0, plain_msgs = 0, chain_epochs = 0;
  {
    op2::Context ctx;
    run(ctx, /*chained=*/true, &x_serial, nullptr, nullptr);
  }
  // Latency hiding's core/tail split folds indirect increments in
  // core-then-tail order instead of flat ascending order, which the fuzz
  // matrix compares at ULP tolerance; disable it so the solo path folds in
  // flat order and the chained comparison is bit-exact by contract (see
  // the execution-order contract note in src/op2/chain.cpp).
  op2::Config dcfg;
  dcfg.latency_hiding = false;
  minimpi::World::run(2, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm, dcfg);
    run(ctx, /*chained=*/true, &x_chain, &chain_msgs, &chain_epochs);
  });
  minimpi::World::run(2, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm, dcfg);
    run(ctx, /*chained=*/false, &x_plain, &plain_msgs, nullptr);
  });

  // The distributed chained run matches the distributed unchained run
  // bit-for-bit (same partition, same per-member ascending order), and the
  // chained serial result too.
  EXPECT_TRUE(bit_equal(x_chain, x_plain));
  EXPECT_EQ(x_serial.size(), x_chain.size());
  // Fused epochs actually exchanged (x is rewritten every iteration) and
  // grouped the traffic into fewer messages than per-loop exchanges.
  EXPECT_GT(chain_epochs, 0u);
  EXPECT_GT(plain_msgs, 0u);
  EXPECT_LT(chain_msgs, plain_msgs);
}

// --- metering ----------------------------------------------------------------

TEST(ChainMetering, FusedMembersCountAsLoopCalls) {
  // One fused member execution is one loop call, exactly as the member run
  // eagerly as its own par_loop.
  const auto mesh = test::make_grid(6, 5);
  std::uint64_t calls[2] = {0, 0};
  for (const int tile : {0, 4096}) {
    op2::Config cfg;
    cfg.chain_tile = tile;
    op2::Context ctx(cfg);
    auto& nodes = ctx.decl_set("nodes", mesh.nnode);
    auto& edges = ctx.decl_set("edges", mesh.nedge);
    auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
    auto& deg = ctx.decl_dat<double>(nodes, 1, "deg");
    op2::LoopChain chain(ctx, "deg_chain");
    chain.add("zero", nodes, [](double* d) { *d = 0.0; }, op2::write(deg));
    chain.add("count", edges,
              [](double* d0, double* d1) {
                *d0 += 1.0;
                *d1 += 1.0;
              },
              op2::inc(deg, e2n, 0), op2::inc(deg, e2n, 1));
    for (int i = 0; i < 3; ++i) chain.execute();
    ASSERT_EQ(chain.plan()->segments.front().fused, tile != 0);
    EXPECT_EQ(chain.plan()->invocations, 3u);
    calls[tile != 0] = ctx.total_stats().invocations;
  }
  EXPECT_EQ(calls[0], 6u);
  EXPECT_EQ(calls[1], calls[0]);
}

TEST(ChainMetering, EachLoopTimedOnceEpochsInHaloTime) {
  // Two ranks run a chain whose fused segment opens with a halo epoch —
  // every send delayed by the fault plan — followed by a heavy standalone
  // reduction member. Each loop's time must be booked once, so the
  // context's total loop time cannot exceed the wall time of the execute()
  // calls, and the fused epochs' time must reach halo_seconds.
  const auto mesh = test::make_grid(12, 10);
  constexpr int kIters = 3;
  constexpr double kDelay = 0.005;
  minimpi::FaultConfig fcfg;
  fcfg.seed = 11;
  fcfg.p_delay = 1.0;
  fcfg.delay_seconds = kDelay;
  minimpi::WorldOptions opts;
  opts.fault = std::make_shared<minimpi::FaultPlan>(fcfg);

  minimpi::World::run(2, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm);
    auto& nodes = ctx.decl_set("nodes", mesh.nnode);
    auto& edges = ctx.decl_set("edges", mesh.nedge);
    auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
    auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
    auto& x = ctx.decl_dat<double>(nodes, 1, "x",
                                   std::vector<double>(static_cast<std::size_t>(mesh.nnode), 1.0));
    auto& res = ctx.decl_dat<double>(nodes, 1, "res");
    auto norm = ctx.decl_global<double>("norm", 1);
    ctx.partition(op2::Partitioner::Rcb, coords);

    op2::LoopChain chain(ctx, "metered");
    chain.add("zero_res", nodes, [](double* r) { *r = 0.0; }, op2::write(res));
    chain.add("edge_flux", edges,
              [](const double* xa, const double* xb, double* ra, double* rb) {
                const double f = 0.5 * (*xb - *xa);
                *ra += f;
                *rb -= f;
              },
              op2::read(x, e2n, 0), op2::read(x, e2n, 1), op2::inc(res, e2n, 0),
              op2::inc(res, e2n, 1));
    chain.add("update", nodes, [](double* xv, const double* r) { *xv += 0.3 * *r + 0.01; },
              op2::rw(x), op2::read(res));
    chain.add("heavy_norm", nodes,
              [](const double* xv, double* s) {
                double a = *xv;
                for (int k = 0; k < 4000; ++k) a = std::sin(a) + 1e-3;
                *s += a;
              },
              op2::read(x), op2::reduce_sum(norm));

    util::Timer wall;
    for (int i = 0; i < kIters; ++i) chain.execute();
    const double wall_s = wall.elapsed();

    const op2::ChainPlan* plan = chain.plan();
    ASSERT_NE(plan, nullptr);
    ASSERT_GT(plan->halo_epochs, 0u);
    const auto total = ctx.total_stats();
    EXPECT_LE(total.seconds, wall_s);
    EXPECT_GE(total.halo_seconds, static_cast<double>(plan->halo_epochs) * kDelay);
    EXPECT_LE(plan->halo_seconds, plan->seconds);
  }, opts);
}

// --- hydra step chain ---------------------------------------------------------
//
// The fused step chain against the eager reference (chain_tile = 0: every
// member a standalone par_loop), bit for bit.

rig::RowSpec chain_row() {
  rig::RowSpec row;
  row.name = "T";
  row.rotor = false;
  row.x_min = 0.0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  return row;
}

hydra::FlowConfig chain_flow(bool implicit) {
  hydra::FlowConfig c;
  c.stator_swirl_frac = 0.15;
  c.second_order = true;  // gradients + limiter: the multi-segment chain
  c.viscous = true;
  c.inner_iters = 2;
  c.implicit_dual_time = implicit;
  return c;
}

/// Two inner iterations of a fresh row solver; rank 0 gets the gathered q.
std::vector<double> run_row(const rig::AnnulusMesh& mesh, const hydra::FlowConfig& fcfg,
                            const op2::Config& oc, minimpi::Comm comm = {}) {
  op2::Context ctx(comm, oc);
  hydra::RowSolver solver(ctx, mesh, chain_row(), /*omega=*/0.0, fcfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  solver.advance_inner(2);
  return ctx.fetch_global(solver.q());
}

op2::Config eager_config() {
  op2::Config oc;
  oc.chain_tile = 0;
  return oc;
}

TEST(ChainHydra, ExplicitStepChainFusedEqualsEager) {
  const auto mesh = rig::generate_row_mesh(chain_row(), {4, 3, 10});
  const auto fcfg = chain_flow(/*implicit=*/false);
  const auto base = run_row(mesh, fcfg, eager_config());
  ASSERT_FALSE(base.empty());
  // Fused == eager, bit for bit.
  EXPECT_TRUE(bit_equal(base, run_row(mesh, fcfg, op2::Config{})));
}

TEST(ChainHydra, ImplicitStepChainFusedEqualsEager) {
  const auto mesh = rig::generate_row_mesh(chain_row(), {4, 3, 10});
  const auto fcfg = chain_flow(/*implicit=*/true);
  const auto base = run_row(mesh, fcfg, eager_config());
  ASSERT_FALSE(base.empty());
  EXPECT_TRUE(bit_equal(base, run_row(mesh, fcfg, op2::Config{})));
}

TEST(ChainHydra, TwoRankFusedEqualsEagerWithoutLatencyHiding) {
  // Latency hiding folds the eager side's indirect increments core-then-
  // tail (see the execution-order contract in src/op2/chain.cpp); without
  // it both sides fold in flat ascending order.
  const auto mesh = rig::generate_row_mesh(chain_row(), {4, 3, 10});
  for (const bool implicit : {false, true}) {
    const auto fcfg = chain_flow(implicit);
    op2::Config fused;
    fused.latency_hiding = false;
    op2::Config eager = fused;
    eager.chain_tile = 0;
    std::vector<double> qf, qe;
    minimpi::World::run(2, [&](minimpi::Comm& comm) {
      auto f = run_row(mesh, fcfg, fused, comm);
      auto e = run_row(mesh, fcfg, eager, comm);
      if (comm.rank() == 0) {
        qf = std::move(f);
        qe = std::move(e);
      }
    });
    SCOPED_TRACE(implicit ? "implicit" : "rk");
    ASSERT_FALSE(qe.empty());
    EXPECT_TRUE(bit_equal(qe, qf));
  }
}

}  // namespace
