// FaultPlan transparency of halo ghost payloads: a distributed context packs
// multi-component ghost payloads, and the minimpi transport may duplicate,
// reorder or delay the messages carrying them. The faults must not be
// visible in results: a run under an adversarial fault plan must bit-match
// the fault-free run of the same configuration, across the partial/grouped
// halo modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "src/minimpi/fault.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/op2/op2.hpp"
#include "tests/testmesh.hpp"

namespace {

using namespace vcgt;
using minimpi::FaultConfig;
using minimpi::FaultPlan;
using minimpi::WorldOptions;

FaultConfig duplicate_reorder_plan(std::uint64_t seed) {
  FaultConfig fc;
  fc.seed = seed;
  fc.p_duplicate = 0.10;
  fc.p_reorder = 0.10;
  fc.p_delay = 0.05;
  fc.delay_seconds = 1e-5;
  return fc;
}

struct ChaosLayoutCase {
  int nranks;
  bool partial_halos;
  bool grouped_halos;
  std::uint64_t seed;
};

/// Three rounds of a flux/update program over dim-3 node data and dim-2 edge
/// data (multi-component ghost payloads).
/// Returns the concatenated global arrays gathered on rank 0.
std::vector<double> run_once(const test::GridMesh& mesh, const ChaosLayoutCase& c,
                             bool faults) {
  std::vector<double> out;
  WorldOptions opts;
  if (faults) opts.fault = std::make_shared<FaultPlan>(duplicate_reorder_plan(c.seed));
  minimpi::World::run(c.nranks, [&](minimpi::Comm& comm) {
    op2::Config cfg;
    cfg.partial_halos = c.partial_halos;
    cfg.grouped_halos = c.grouped_halos;
    op2::Context ctx(comm, cfg);

    auto& nodes = ctx.decl_set("nodes", mesh.nnode);
    auto& edges = ctx.decl_set("edges", mesh.nedge);
    auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
    auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
    auto& v = ctx.decl_dat<double>(nodes, 3, "v");
    auto& res = ctx.decl_dat<double>(nodes, 3, "res");
    auto& w = ctx.decl_dat<double>(edges, 2, "w");
    ctx.partition(op2::Partitioner::Rcb, coords);

    op2::par_loop("init_v", nodes,
                  [](const double* cc, double* vv) {
                    vv[0] = 1.0 + 0.01 * cc[0];
                    vv[1] = 2.0 - 0.02 * cc[1];
                    vv[2] = 0.5 * (cc[0] + cc[1]);
                  },
                  op2::read(coords), op2::write(v));
    for (int it = 0; it < 3; ++it) {
      op2::par_loop("zero_res", nodes,
                    [](double* r) { r[0] = r[1] = r[2] = 0.0; },
                    op2::write(res));
      // Edge weights derived from both endpoints: the Read halo of v must be
      // fresh on every round regardless of transport mischief.
      op2::par_loop("edge_w", edges,
                    [](const double* va, const double* vb, double* ww) {
                      ww[0] = 0.5 * (va[0] + vb[0]);
                      ww[1] = va[2] - vb[2];
                    },
                    op2::read(v, e2n, 0), op2::read(v, e2n, 1), op2::write(w));
      // Antisymmetric flux accumulated through both map components; the
      // exec-halo contributions ride the ghost exchange being tested.
      op2::par_loop("flux", edges,
                    [](const double* ww, double* ra, double* rb) {
                      ra[0] += ww[0];
                      rb[0] -= ww[0];
                      ra[1] += 0.25 * ww[1];
                      rb[1] -= 0.25 * ww[1];
                      ra[2] += ww[0] * ww[1];
                      rb[2] -= ww[0] * ww[1];
                    },
                    op2::read(w), op2::inc(res, e2n, 0), op2::inc(res, e2n, 1));
      op2::par_loop("update", nodes,
                    [](const double* r, double* vv) {
                      vv[0] += 0.1 * r[0];
                      vv[1] += 0.1 * r[1];
                      vv[2] += 0.1 * r[2];
                    },
                    op2::read(res), op2::rw(v));
    }

    const auto gv = ctx.fetch_global(v);
    const auto gw = ctx.fetch_global(w);
    if (ctx.rank() == 0) {
      out = gv;
      out.insert(out.end(), gw.begin(), gw.end());
    }
  }, opts);
  if (faults) {
    // Only a meaningful chaos run if the plan actually fired.
    EXPECT_FALSE(opts.fault->events().empty());
  }
  return out;
}

class ChaosLayout : public testing::TestWithParam<ChaosLayoutCase> {};

TEST_P(ChaosLayout, GhostPayloadsBitMatchAoSUnderDuplicateReorder) {
  const auto c = GetParam();
  const auto mesh = test::make_grid(12, 9);

  const auto clean = run_once(mesh, c, /*faults=*/false);
  ASSERT_FALSE(clean.empty());
  const auto faulted = run_once(mesh, c, /*faults=*/true);

  ASSERT_EQ(faulted.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(faulted[i], clean[i]) << "faulted vs clean, entry " << i;
  }
}

// A static array: gtest names each case with a byte dump of its param,
// and static storage zero-fills ChaosLayoutCase's padding, so the names are
// the same in every build.
constexpr ChaosLayoutCase kChaosLayoutCases[] = {{2, false, false, 11},
                                                 {2, true, false, 12},
                                                 {3, false, true, 13},
                                                 {3, true, true, 14},
                                                 {4, true, true, 15}};
INSTANTIATE_TEST_SUITE_P(Sweep, ChaosLayout, testing::ValuesIn(kChaosLayoutCases),
                         [](const testing::TestParamInfo<ChaosLayoutCase>& info) {
                           const auto& c = info.param;
                           return "r" + std::to_string(c.nranks) +
                                  (c.partial_halos ? "_ph" : "") +
                                  (c.grouped_halos ? "_gh" : "") + "_s" +
                                  std::to_string(c.seed);
                         });

}  // namespace
