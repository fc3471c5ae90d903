// Billion-node path (DESIGN.md §13): sharded-vs-monolithic equivalence.
//
// The contract under test: a rank that synthesizes only its shard of the
// annulus (rig::generate_row_shard) and partitions it with
// op2::partition_sharded must end up in *exactly* the state the monolithic
// Partitioner::Block path produces — same partition assignments, same local
// numbering, same plan fingerprints, bit-identical flow state after N
// coupled steps. "Exact" here means EXPECT_EQ on doubles: the sharded
// generator emits geometry through the same per-element expressions as the
// monolithic one, so there is no tolerance to hide behind.
//
// Also covered: the 64-bit global-index edges (gids beyond 2^31 through
// global_to_local and the deterministic-reduction (gid, delta) fold), the
// structured set-size overflow guards (satellite: decl_set and
// generate_row_mesh reject element counts beyond index_t), and the fig. 9
// 4.58B sharded scaling projection over >= 1000 modeled ranks.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/jm76/coupled.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/op2/op2.hpp"
#include "src/perf/shardproj.hpp"
#include "src/rig/annulus.hpp"
#include "src/rig/shard.hpp"

namespace {

using namespace vcgt;
using jm76::CoupledConfig;
using jm76::CoupledRig;
using op2::gindex_t;
using op2::index_t;

// --- sharded mesh generator vs monolithic -----------------------------------

/// The shards of a row must tile it: every cell owned by exactly one rank,
/// every interior face and boundary face present on at least the rank that
/// owns its owner cell, and every piece of geometry bit-equal to the
/// monolithic emission at the corresponding global id.
TEST(ShardGenerator, ShardsTileRowAndMatchMonolithicBitExact) {
  const auto rig = rig::rig250_spec(1);
  const auto res = rig::resolution_tier("tiny");
  const auto mono = rig::generate_row_mesh(rig.rows[0], res);

  for (const int nranks : {2, 3, 4}) {
    std::vector<int> cell_seen(static_cast<std::size_t>(mono.ncell), 0);
    std::vector<int> face_seen(static_cast<std::size_t>(mono.nface), 0);
    std::vector<int> bface_seen(static_cast<std::size_t>(mono.nbface), 0);

    for (int rank = 0; rank < nranks; ++rank) {
      const auto s =
          rig::generate_row_shard(rig.rows[0], res, rig::ShardSpec{rank, nranks});
      ASSERT_EQ(s.ncell_global, mono.ncell);
      ASSERT_EQ(s.nface_global, mono.nface);
      const auto& m = s.local;
      ASSERT_EQ(static_cast<std::size_t>(m.ncell), s.cell_gids.size());
      ASSERT_EQ(static_cast<std::size_t>(m.nface), s.face_gids.size());

      // Owned block [lo, hi): the block_owner() inverse the runtime uses.
      const gindex_t n = s.ncell_global;
      const gindex_t lo = (static_cast<gindex_t>(rank) * n + nranks - 1) / nranks;
      const gindex_t hi = (static_cast<gindex_t>(rank + 1) * n + nranks - 1) / nranks;
      for (gindex_t g = lo; g < hi; ++g) {
        ++cell_seen[static_cast<std::size_t>(g)];
      }

      // Cell geometry: bit-equal to the monolithic arrays at the gid.
      for (index_t c = 0; c < m.ncell; ++c) {
        const auto g = static_cast<std::size_t>(s.cell_gids[static_cast<std::size_t>(c)]);
        EXPECT_EQ(m.cell_vol[static_cast<std::size_t>(c)], mono.cell_vol[g]);
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(m.cell_center[3 * static_cast<std::size_t>(c) + d],
                    mono.cell_center[3 * g + d]);
        }
        for (int d = 0; d < 2; ++d) {
          EXPECT_EQ(m.cell_rtheta[2 * static_cast<std::size_t>(c) + d],
                    mono.cell_rtheta[2 * g + d]);
        }
      }

      // Faces: gid-addressed geometry and connectivity (shard-local cell
      // rows mapped back through cell_gids must equal the monolithic
      // identity-numbered face2cell).
      for (index_t f = 0; f < m.nface; ++f) {
        const gindex_t fg = s.face_gids[static_cast<std::size_t>(f)];
        ++face_seen[static_cast<std::size_t>(fg)];
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(m.face_normal[3 * static_cast<std::size_t>(f) + d],
                    mono.face_normal[3 * static_cast<std::size_t>(fg) + d]);
          EXPECT_EQ(m.face_center[3 * static_cast<std::size_t>(f) + d],
                    mono.face_center[3 * static_cast<std::size_t>(fg) + d]);
        }
        for (int e = 0; e < 2; ++e) {
          const index_t lc = m.face2cell[2 * static_cast<std::size_t>(f) + e];
          ASSERT_GE(lc, 0);
          ASSERT_LT(lc, m.ncell);
          EXPECT_EQ(s.cell_gids[static_cast<std::size_t>(lc)],
                    static_cast<gindex_t>(
                        mono.face2cell[2 * static_cast<std::size_t>(fg) + e]));
        }
      }

      // Boundary faces: in-group gids address the monolithic group ranges.
      for (int grp = 0; grp < 4; ++grp) {
        ASSERT_EQ(s.nbface_global[static_cast<std::size_t>(grp)],
                  mono.group_size(static_cast<rig::BoundaryGroup>(grp)));
        const index_t b0 = m.group_begin[static_cast<std::size_t>(grp)];
        const index_t b1 = m.group_end[static_cast<std::size_t>(grp)];
        ASSERT_EQ(b1 - b0,
                  static_cast<index_t>(s.bface_gids[static_cast<std::size_t>(grp)].size()));
        for (index_t b = b0; b < b1; ++b) {
          const gindex_t in_group =
              s.bface_gids[static_cast<std::size_t>(grp)][static_cast<std::size_t>(b - b0)];
          const auto mb = static_cast<std::size_t>(
              mono.group_begin[static_cast<std::size_t>(grp)] + in_group);
          ++bface_seen[mb];
          EXPECT_EQ(m.bface_group[static_cast<std::size_t>(b)], grp);
          EXPECT_EQ(mono.bface_group[mb], grp);
          EXPECT_EQ(s.cell_gids[static_cast<std::size_t>(
                        m.bface2cell[static_cast<std::size_t>(b)])],
                    static_cast<gindex_t>(mono.bface2cell[mb]));
          for (int d = 0; d < 3; ++d) {
            EXPECT_EQ(m.bface_normal[3 * static_cast<std::size_t>(b) + d],
                      mono.bface_normal[3 * mb + d]);
            EXPECT_EQ(m.bface_center[3 * static_cast<std::size_t>(b) + d],
                      mono.bface_center[3 * mb + d]);
          }
          for (int d = 0; d < 2; ++d) {
            EXPECT_EQ(m.bface_rtheta[2 * static_cast<std::size_t>(b) + d],
                      mono.bface_rtheta[2 * mb + d]);
          }
        }
      }
    }

    // Coverage: owned blocks tile the cells exactly once; every interior
    // and boundary face is synthesized by at least one shard.
    for (const int c : cell_seen) EXPECT_EQ(c, 1);
    for (const int f : face_seen) EXPECT_GE(f, 1);
    for (const int b : bface_seen) EXPECT_GE(b, 1);
  }
}

TEST(ShardGenerator, RejectsBadShardSpec) {
  const auto rig = rig::rig250_spec(1);
  const auto res = rig::resolution_tier("tiny");
  EXPECT_THROW(rig::generate_row_shard(rig.rows[0], res, rig::ShardSpec{-1, 2}),
               std::invalid_argument);
  EXPECT_THROW(rig::generate_row_shard(rig.rows[0], res, rig::ShardSpec{2, 2}),
               std::invalid_argument);
  EXPECT_THROW(rig::generate_row_shard(rig.rows[0], res, rig::ShardSpec{0, 0}),
               std::invalid_argument);
}

// --- structured overflow guards (satellite) ---------------------------------

TEST(SetSizeGuard, DeclSetRejectsBeyondIndexRange) {
  op2::Context ctx;
  const gindex_t huge = gindex_t{3'000'000'000};
  try {
    ctx.decl_set("cells", huge);
    FAIL() << "decl_set accepted a 3B-element monolithic set";
  } catch (const op2::SetSizeError& e) {
    EXPECT_EQ(e.set, "cells");
    EXPECT_EQ(e.requested, huge);
    const std::string what = e.what();
    EXPECT_NE(what.find("exceeds the index_t range"), std::string::npos) << what;
    EXPECT_NE(what.find("decl_set_sharded"), std::string::npos) << what;
  }
  // The guard is an error, not a crash: the context stays usable.
  EXPECT_NO_THROW(ctx.decl_set("small", 8));
}

TEST(SetSizeGuard, RowMeshGeneratorRejectsBeyondIndexRange) {
  const auto rig = rig::rig250_spec(1);
  rig::MeshResolution res;
  res.nx = 2000;
  res.nr = 1200;
  res.ntheta = 1000;  // 2.4e9 cells: must throw before allocating anything
  try {
    rig::generate_row_mesh(rig.rows[0], res);
    FAIL() << "generate_row_mesh accepted a 2.4B-cell monolithic mesh";
  } catch (const op2::SetSizeError& e) {
    EXPECT_EQ(e.set, "cells");
    EXPECT_EQ(e.requested, gindex_t{2'400'000'000});
    const std::string what = e.what();
    EXPECT_NE(what.find("exceeds the index_t range"), std::string::npos) << what;
    EXPECT_NE(what.find("generate_row_shard"), std::string::npos) << what;
  }
  // The same resolution is fine shard-by-shard (the per-rank window is
  // small); just check the guard in generate_row_shard fires on the *shard*
  // size, not the global size, by asking for a single-rank "shard" of the
  // whole row.
  EXPECT_THROW(rig::generate_row_shard(rig.rows[0], res, rig::ShardSpec{0, 1}),
               op2::SetSizeError);
}

// --- 64-bit gid edges: sparse universes beyond 2^31 (satellite) -------------

/// Two ranks share a 6-billion-element universe of which each holds a
/// handful of sparse rows. Gids above 2^31 must survive declaration,
/// block-ownership, local numbering and the g2l round trip unmangled.
TEST(GindexWidth, GlobalToLocalRoundTripsBeyondTwoPow31) {
  const gindex_t universe = gindex_t{6'000'000'000};
  const std::vector<std::vector<gindex_t>> shard = {
      {5, gindex_t{2'147'483'650}},                       // rank 0 owns [0, 3e9)
      {gindex_t{3'000'000'001}, gindex_t{5'999'999'999}}  // rank 1 owns [3e9, 6e9)
  };
  minimpi::World::run(2, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm, op2::Config{});
    auto& s = ctx.decl_set_sharded("sparse", universe, shard[static_cast<std::size_t>(comm.rank())]);
    ctx.partition_sharded({&s});

    ASSERT_EQ(s.n_owned(), 2);
    ASSERT_EQ(s.total(), 2);  // no maps -> no halo
    const auto l2g = s.local_to_global();
    for (index_t i = 0; i < s.total(); ++i) {
      EXPECT_EQ(l2g[static_cast<std::size_t>(i)],
                shard[static_cast<std::size_t>(comm.rank())][static_cast<std::size_t>(i)]);
      EXPECT_EQ(ctx.global_to_local(s, l2g[static_cast<std::size_t>(i)]), i);
    }
    // Ownership is pure 64-bit block arithmetic on the gid.
    EXPECT_EQ(op2::block_owner(gindex_t{2'147'483'650}, universe, 2), 0);
    EXPECT_EQ(op2::block_owner(gindex_t{3'000'000'001}, universe, 2), 1);
    // Absent gids (owned elsewhere, or simply not in the sparse shard).
    EXPECT_EQ(ctx.global_to_local(s, gindex_t{4'000'000'000}), index_t{-1});
  });
}

/// The deterministic-reduction fold gathers (gid, delta) records and folds
/// ascending by *64-bit* gid. The gids here are chosen so a 32-bit
/// truncation would invert the sort (2^31 + 2 wraps negative) and — with
/// these catastrophically-cancelling values — change the rounded sum. The
/// fold must equal the flat ascending-gid fold bit-for-bit.
TEST(GindexWidth, DeterministicReductionFoldsByFullGidWidth) {
  const gindex_t universe = gindex_t{6'000'000'000};
  const std::vector<std::vector<gindex_t>> shard = {
      {5, gindex_t{2'147'483'650}},
      {gindex_t{3'000'000'001}, gindex_t{5'000'000'000}}};

  // Ascending-gid values: 1e16 + 3.0 rounds (ulp 2), then cancels.
  const auto value_of = [](gindex_t g) -> double {
    if (g == 5) return 1e16;
    if (g == gindex_t{2'147'483'650}) return 3.0;
    if (g == gindex_t{3'000'000'001}) return -1e16;
    return 2.0;
  };
  double expect = 0.0;
  for (const gindex_t g : {gindex_t{5}, gindex_t{2'147'483'650},
                           gindex_t{3'000'000'001}, gindex_t{5'000'000'000}}) {
    expect += value_of(g);
  }
  ASSERT_EQ(expect, 6.0);  // the rounded ascending fold; other orders give 5.0

  minimpi::World::run(2, [&](minimpi::Comm& comm) {
    op2::Config cfg;
    cfg.deterministic_reductions = true;
    op2::Context ctx(comm, cfg);
    auto& s = ctx.decl_set_sharded("sparse", universe, shard[static_cast<std::size_t>(comm.rank())]);
    auto& x = ctx.decl_dat<double>(s, 1, "x");
    ctx.partition_sharded({&s});

    op2::par_loop("fill", s,
                  [](const gindex_t* g, double* v) {
                    *v = *g == 5              ? 1e16
                         : *g == 2'147'483'650LL ? 3.0
                         : *g == 3'000'000'001LL ? -1e16
                                                 : 2.0;
                  },
                  op2::arg_idx(), op2::write(x));
    auto sum = ctx.decl_global<double>("sum", 1);
    op2::par_loop("reduce", s, [](const double* v, double* acc) { *acc += *v; },
                  op2::read(x), op2::reduce_sum(sum));
    EXPECT_EQ(sum.value(), expect);
  });
}

// --- sharded vs monolithic coupled setup: the equivalence matrix ------------

hydra::FlowConfig shard_test_flow() {
  hydra::FlowConfig cfg;
  cfg.inner_iters = 2;
  cfg.dt_phys = 5e-5;
  cfg.rotor_swirl_frac = 0.05;
  cfg.stator_swirl_frac = 0.02;
  return cfg;
}

/// Everything the equivalence claim covers, captured per world rank.
struct RankCapture {
  bool has_solver = false;
  int row = -1;
  std::vector<std::string> set_names;
  std::vector<index_t> set_owned;
  std::vector<index_t> set_exec;
  std::vector<index_t> set_nonexec;
  std::vector<std::vector<gindex_t>> set_l2g;  ///< full [owned|exec|nonexec]
  std::vector<std::string> dat_names;
  std::vector<std::string> map_names;
  std::map<std::string, std::uint64_t> fingerprints;
  std::vector<double> q;
};

std::vector<RankCapture> run_and_capture(const CoupledConfig& cfg, int nsteps) {
  std::vector<RankCapture> caps(static_cast<std::size_t>(cfg.layout().world_size()));
  minimpi::World::run(cfg.layout().world_size(), [&](minimpi::Comm& world) {
    CoupledRig rigrun(world, cfg);
    rigrun.run(nsteps);
    auto& cap = caps[static_cast<std::size_t>(world.rank())];
    if (auto* solver = rigrun.solver()) {
      cap.has_solver = true;
      cap.row = rigrun.role().row;
      auto& ctx = solver->context();
      for (const auto& set : ctx.sets()) {
        cap.set_names.push_back(set->name());
        cap.set_owned.push_back(set->n_owned());
        cap.set_exec.push_back(set->n_exec());
        cap.set_nonexec.push_back(set->n_nonexec());
        cap.set_l2g.emplace_back(set->local_to_global().begin(),
                                 set->local_to_global().end());
      }
      for (const auto& d : ctx.dats()) cap.dat_names.push_back(d->name());
      for (const auto& m : ctx.maps()) cap.map_names.push_back(m->name());
      cap.fingerprints = ctx.plan_fingerprints();
      cap.q = ctx.fetch_global(solver->q());
    }
  });
  return caps;
}

struct ShardCase {
  int ranks_per_row;
  bool partial_halos;  ///< PH when true, GH when false
};

std::string shard_case_name(const testing::TestParamInfo<ShardCase>& info) {
  const auto& c = info.param;
  return std::string("r") + std::to_string(c.ranks_per_row) + "_aos" +
         (c.partial_halos ? "_ph" : "_gh");
}

class ShardedEqualsMonolithic : public testing::TestWithParam<ShardCase> {};

/// The tentpole claim: per-rank shard synthesis + partition_sharded is
/// bit-identical to the monolithic Partitioner::Block setup. Partition
/// assignments (owned counts and the full local-to-global numbering), plan
/// fingerprints and the N-step coupled flow state must all be EXPECT_EQ
/// equal — across rank counts and halo optimization modes.
TEST_P(ShardedEqualsMonolithic, SetupAndStateBitIdentical) {
  const auto c = GetParam();
  const int nrows = 2;
  const int nsteps = 3;

  CoupledConfig cfg;
  cfg.rig = rig::rig250_spec(nrows);
  cfg.res = rig::resolution_tier("tiny");
  cfg.flow = shard_test_flow();
  cfg.hs_ranks.assign(nrows, c.ranks_per_row);
  cfg.cus_per_interface = 1;
  cfg.pipelined = false;
  cfg.partitioner = op2::Partitioner::Block;
  cfg.op2cfg.partial_halos = c.partial_halos;
  cfg.op2cfg.grouped_halos = !c.partial_halos;

  auto mono_cfg = cfg;
  mono_cfg.sharded_setup = false;
  auto shard_cfg = cfg;
  shard_cfg.sharded_setup = true;

  const auto mono = run_and_capture(mono_cfg, nsteps);
  const auto sharded = run_and_capture(shard_cfg, nsteps);

  ASSERT_EQ(mono.size(), sharded.size());
  for (std::size_t r = 0; r < mono.size(); ++r) {
    SCOPED_TRACE("world rank " + std::to_string(r));
    ASSERT_EQ(mono[r].has_solver, sharded[r].has_solver);
    if (!mono[r].has_solver) continue;
    EXPECT_EQ(mono[r].row, sharded[r].row);
    // Partition assignment: same sets, same owned counts, same numbering.
    ASSERT_EQ(mono[r].set_names, sharded[r].set_names);
    EXPECT_EQ(mono[r].set_owned, sharded[r].set_owned);
    EXPECT_EQ(mono[r].set_exec, sharded[r].set_exec);
    EXPECT_EQ(mono[r].set_nonexec, sharded[r].set_nonexec);
    ASSERT_EQ(mono[r].set_l2g.size(), sharded[r].set_l2g.size());
    for (std::size_t s = 0; s < mono[r].set_l2g.size(); ++s) {
      EXPECT_EQ(mono[r].set_l2g[s], sharded[r].set_l2g[s])
          << "set " << mono[r].set_names[s];
    }
    // Declaration order (= ids, which chain fingerprints fold) must match.
    EXPECT_EQ(mono[r].dat_names, sharded[r].dat_names);
    EXPECT_EQ(mono[r].map_names, sharded[r].map_names);
    // Plan fingerprints: local-index-based, so identical numbering must
    // yield identical plans.
    EXPECT_EQ(mono[r].fingerprints, sharded[r].fingerprints);
    // N-step coupled flow state, bit for bit.
    ASSERT_EQ(mono[r].q.size(), sharded[r].q.size());
    for (std::size_t i = 0; i < mono[r].q.size(); ++i) {
      ASSERT_EQ(mono[r].q[i], sharded[r].q[i]) << "q entry " << i;
    }
  }
}

// Static storage, so the param's padding bytes (which gtest prints after
// each case name) are zero rather than indeterminate.
constexpr ShardCase kShardCases[] = {{2, true}, {2, false}, {3, true},
                                     {3, false}, {4, true}, {4, false}};

INSTANTIATE_TEST_SUITE_P(Matrix, ShardedEqualsMonolithic, testing::ValuesIn(kShardCases),
                         shard_case_name);

/// Guard rails: setup options that require whole-mesh tables must refuse the
/// sharded path with a structured diagnostic instead of silently diverging.
TEST(ShardedSetup, RejectsWholeMeshOnlyOptions) {
  CoupledConfig cfg;
  cfg.rig = rig::rig250_spec(2);
  cfg.res = rig::resolution_tier("tiny");
  cfg.flow = shard_test_flow();
  cfg.flow.sort_faces = true;
  cfg.hs_ranks = {1, 1};
  cfg.cus_per_interface = 1;
  cfg.pipelined = false;
  cfg.sharded_setup = true;

  minimpi::World::run(cfg.layout().world_size(), [&](minimpi::Comm& world) {
    try {
      CoupledRig rigrun(world, cfg);
      // CU ranks never build a sharded solver; HS ranks must have thrown.
      EXPECT_EQ(rigrun.solver(), nullptr);
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("sort_faces"), std::string::npos);
    }
  });
}

// --- fig. 9 grand-challenge projection (4.58B over >= 1000 ranks) -----------

TEST(ShardProjection, Fig9FourPointFiveEightBillionScalesWithout32BitOverflow) {
  const auto res = perf::fig9_row_resolution();
  EXPECT_EQ(res.ncell(), gindex_t{458'000'000});

  const auto proj = perf::project_sharded_scaling(
      perf::archer2(), perf::w458b(), res, {8, 16, 32, 64, 128, 256, 512});

  // The workload really is the paper's 4.58B grand challenge — far beyond
  // any monolithic (32-bit) setup.
  EXPECT_EQ(proj.ncell_row, gindex_t{458'000'000});
  EXPECT_EQ(proj.ncell_total, gindex_t{4'580'000'000});
  EXPECT_GT(proj.ncell_total, op2::kMaxMonolithicSetSize);

  ASSERT_EQ(proj.points.size(), 7u);
  bool saw_thousand_ranks = false;
  double prev_owned = -1.0;
  for (const auto& pt : proj.points) {
    SCOPED_TRACE("nodes " + std::to_string(pt.nodes));
    EXPECT_EQ(pt.ranks, pt.nodes * perf::archer2().cores_per_node);
    if (pt.ranks >= 1000) saw_thousand_ranks = true;
    // Every per-rank shard window narrows to index_t: the whole point of
    // keeping local indices 32-bit under 64-bit global ids.
    EXPECT_TRUE(pt.fits_index_t);
    EXPECT_LE(pt.window_max, op2::kMaxMonolithicSetSize);
    EXPECT_GT(pt.owned_min, 0);
    EXPECT_GE(pt.owned_max, pt.owned_min);
    EXPECT_GT(pt.window_max, pt.owned_max);
    // Strong scaling: per-rank windows shrink as ranks grow.
    if (prev_owned >= 0.0) {
      EXPECT_LT(static_cast<double>(pt.owned_max), prev_owned);
    }
    prev_owned = static_cast<double>(pt.owned_max);
    EXPECT_GT(pt.cost.total(), 0.0);
  }
  EXPECT_TRUE(saw_thousand_ranks);
  // More nodes -> faster steps (the model's strong-scaling shape).
  EXPECT_LT(proj.points.back().cost.total(), proj.points.front().cost.total());

  const std::string table = perf::format_shard_table(proj);
  EXPECT_NE(table.find("4580000000"), std::string::npos);
  EXPECT_NE(table.find("fits32"), std::string::npos);
  EXPECT_EQ(table.find("NO"), std::string::npos);  // every point fits
}

TEST(ShardProjection, RejectsDegenerateResolution) {
  EXPECT_THROW(perf::project_sharded_scaling(perf::archer2(), perf::w458b(),
                                             perf::ShardResolution{0, 1, 3}, {8}),
               std::invalid_argument);
}

}  // namespace
