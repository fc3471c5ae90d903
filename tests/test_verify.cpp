// Unit tests for the vcgt::verify property-testing subsystem itself: the
// generators must be deterministic, the repro format bit-exact under
// round-trip, the taint analysis must implement the documented rules, and
// the op2 introspection hooks (plan fingerprints, deterministic reductions)
// must behave as the differential harness assumes.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/verify/verify.hpp"

namespace {

using namespace vcgt;
using verify::CaseSpec;
using verify::ExecConfig;
using verify::LoopOp;
using verify::MeshSpec;
using verify::OpKind;

// --- ulp_diff ---------------------------------------------------------------

TEST(UlpDiff, AdjacentAndIdentical) {
  EXPECT_EQ(verify::ulp_diff(1.0, 1.0), 0u);
  EXPECT_EQ(verify::ulp_diff(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(verify::ulp_diff(-3.5, -3.5), 0u);
  // ±0 straddle the sign boundary but are adjacent on the monotone lattice.
  EXPECT_LE(verify::ulp_diff(0.0, -0.0), 1u);
}

TEST(UlpDiff, SignCrossingIsCounted) {
  const double eps = std::nextafter(0.0, 1.0);   // smallest positive denormal
  const double neg = std::nextafter(0.0, -1.0);  // smallest negative
  // -denorm -> -0 -> +0 -> +denorm: ±0 are distinct points on the lattice.
  EXPECT_EQ(verify::ulp_diff(neg, eps), 3u);
}

TEST(UlpDiff, NanDisagreementIsHuge) {
  const double nan = std::nan("");
  EXPECT_GT(verify::ulp_diff(nan, 1.0), 1ull << 32);
  EXPECT_GT(verify::ulp_diff(1.0, nan), 1ull << 32);
}

// --- generators -------------------------------------------------------------

TEST(GenCase, DeterministicAndSeedSensitive) {
  const auto a = verify::gen_case(7, 3);
  const auto b = verify::gen_case(7, 3);
  ASSERT_EQ(a.loops.size(), b.loops.size());
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.mesh.nx, b.mesh.nx);
  EXPECT_EQ(a.iters, b.iters);
  for (std::size_t i = 0; i < a.loops.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.loops[i].kind), static_cast<int>(b.loops[i].kind));
    EXPECT_EQ(a.loops[i].k1, b.loops[i].k1);
  }
  EXPECT_NE(verify::gen_case(7, 4).seed, a.seed);
}

TEST(MakeTables, GridShapesAndRanges) {
  MeshSpec m;
  m.nx = 5;
  m.ny = 4;
  m.mesh_seed = 42;
  m.extra_maps = 1;
  m.fan_in = 3;
  m.dats_per_set = 2;
  const auto t = verify::make_tables(m);

  ASSERT_EQ(t.set_sizes.size(), static_cast<std::size_t>(verify::kNumSets));
  EXPECT_EQ(t.set_sizes[0], 20);                     // nodes
  EXPECT_EQ(t.set_sizes[1], 4 * 4 + 5 * 3);          // edges
  EXPECT_EQ(t.set_sizes[2], 4 * 3);                  // cells
  EXPECT_EQ(t.set_sizes[3], 2 * 5 + 2 * 4 - 4);      // boundary perimeter
  EXPECT_EQ(t.coords.size(), 40u);

  ASSERT_EQ(t.map_tables.size(), static_cast<std::size_t>(verify::kGridMaps) + 1);
  EXPECT_EQ(t.map_dims[0], 2);  // e2n
  EXPECT_EQ(t.map_dims[1], 4);  // c2n
  EXPECT_EQ(t.map_dims[2], 1);  // b2n
  EXPECT_EQ(t.map_dims[3], 3);  // extra, fan_in
  for (std::size_t mi = 0; mi < t.map_tables.size(); ++mi) {
    const auto to_size = t.set_sizes[static_cast<std::size_t>(t.map_to[mi])];
    for (const auto tgt : t.map_tables[mi]) {
      EXPECT_GE(tgt, 0);
      EXPECT_LT(tgt, to_size);
    }
  }
  // Dat dims within the documented 1..3 range, one initial value per entry.
  for (std::size_t i = 0; i < t.dat_dims.size(); ++i) {
    EXPECT_GE(t.dat_dims[i], 1);
    EXPECT_LE(t.dat_dims[i], 3);
    const int set = static_cast<int>(i) / m.dats_per_set;
    EXPECT_EQ(t.dat_init[i].size(),
              static_cast<std::size_t>(t.set_sizes[static_cast<std::size_t>(set)]) *
                  static_cast<std::size_t>(t.dat_dims[i]));
  }
}

TEST(MakeTables, DisabledSetsAreEmptyNotMissing) {
  MeshSpec m;
  m.nx = 4;
  m.ny = 4;
  m.cells = false;
  m.boundary = false;
  const auto t = verify::make_tables(m);
  EXPECT_EQ(t.set_sizes[2], 0);
  EXPECT_EQ(t.set_sizes[3], 0);
  // Index stability under shrinking: the maps still exist, just empty.
  EXPECT_EQ(t.map_tables[1].size(), 0u);
  EXPECT_EQ(t.map_tables[2].size(), 0u);
}

// --- taint analysis ---------------------------------------------------------

CaseSpec tiny_spec() {
  CaseSpec s;
  s.seed = 99;
  s.mesh.nx = 3;
  s.mesh.ny = 3;
  s.mesh.mesh_seed = 5;
  s.mesh.dats_per_set = 2;
  s.iters = 1;
  return s;
}

LoopOp op(OpKind k, int set, int map, int idx, int a, int b) {
  LoopOp o;
  o.kind = k;
  o.set = set;
  o.map = map;
  o.idx = idx;
  o.a = a;
  o.b = b;
  o.k1 = 0.5;
  o.k2 = 0.25;
  return o;
}

TEST(Taint, ScatterIncTaintsStampCleanses) {
  auto s = tiny_spec();
  // edges slot0 stamped clean, scattered into nodes slot0 (taints it), then
  // nodes slot0 re-stamped (cleansed again).
  s.loops.push_back(op(OpKind::StampDirect, 1, -1, 0, 0, 0));
  s.loops.push_back(op(OpKind::ScatterInc, 1, 0, 0, 0, 0));
  const auto t1 = verify::analyze_taint(s, verify::make_tables(s.mesh));
  EXPECT_TRUE(t1.dat[0]);   // nodes slot0 tainted by the indirect increment
  EXPECT_FALSE(t1.dat[2]);  // edges slot0 stays clean

  s.loops.push_back(op(OpKind::StampDirect, 0, -1, 0, 0, 0));
  const auto t2 = verify::analyze_taint(s, verify::make_tables(s.mesh));
  EXPECT_FALSE(t2.dat[0]);  // stamp overwrites every component: cleansed
}

TEST(Taint, PropagationAndReduceInputs) {
  auto s = tiny_spec();
  s.loops.push_back(op(OpKind::StampDirect, 1, -1, 0, 0, 0));  // edges s0 clean
  s.loops.push_back(op(OpKind::ScatterInc, 1, 0, 0, 0, 0));    // nodes s0 taint
  s.loops.push_back(op(OpKind::GatherRead, 1, 0, 1, 1, 0));    // edges s1 <- nodes s0
  s.loops.push_back(op(OpKind::ReduceSum, 1, -1, 0, 1, 0));    // over tainted input
  s.loops.push_back(op(OpKind::ReduceMinMax, 1, -1, 0, 0, 0)); // over clean input
  const auto t = verify::analyze_taint(s, verify::make_tables(s.mesh));
  EXPECT_TRUE(t.dat[1 * 2 + 1]);  // edges slot1 inherited the taint
  ASSERT_EQ(t.red_input.size(), s.loops.size());
  EXPECT_TRUE(t.red_input[3]);
  EXPECT_FALSE(t.red_input[4]);
}

// --- repro round-trip -------------------------------------------------------

TEST(Repro, RoundTripIsBitExact) {
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto spec = verify::gen_case(21, i);
    const auto text = verify::format_repro(spec, "round-trip test");
    const auto back = verify::parse_repro(text);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.mesh.nx, spec.mesh.nx);
    EXPECT_EQ(back.mesh.ny, spec.mesh.ny);
    EXPECT_EQ(back.mesh.mesh_seed, spec.mesh.mesh_seed);
    EXPECT_EQ(back.mesh.cells, spec.mesh.cells);
    EXPECT_EQ(back.mesh.boundary, spec.mesh.boundary);
    EXPECT_EQ(back.mesh.extra_maps, spec.mesh.extra_maps);
    EXPECT_EQ(back.mesh.fan_in, spec.mesh.fan_in);
    EXPECT_EQ(back.mesh.dats_per_set, spec.mesh.dats_per_set);
    EXPECT_EQ(back.iters, spec.iters);
    ASSERT_EQ(back.loops.size(), spec.loops.size());
    for (std::size_t l = 0; l < spec.loops.size(); ++l) {
      EXPECT_EQ(static_cast<int>(back.loops[l].kind),
                static_cast<int>(spec.loops[l].kind));
      EXPECT_EQ(back.loops[l].set, spec.loops[l].set);
      EXPECT_EQ(back.loops[l].map, spec.loops[l].map);
      EXPECT_EQ(back.loops[l].idx, spec.loops[l].idx);
      EXPECT_EQ(back.loops[l].idx2, spec.loops[l].idx2);
      EXPECT_EQ(back.loops[l].a, spec.loops[l].a);
      EXPECT_EQ(back.loops[l].b, spec.loops[l].b);
      // Hexfloat serialization: bit-exact, not just close.
      EXPECT_EQ(back.loops[l].k1, spec.loops[l].k1);
      EXPECT_EQ(back.loops[l].k2, spec.loops[l].k2);
    }
  }
}

TEST(Repro, MalformedInputThrowsWithLineInfo) {
  EXPECT_THROW((void)verify::parse_repro("not a repro"), std::runtime_error);
  const char* bad_loop =
      "vcgt-repro 1\n"
      "seed 1\n"
      "mesh nx=3 ny=3 seed=1 cells=1 boundary=1 extra_maps=0 fan_in=2 dats_per_set=1\n"
      "iters 1\n"
      "loop kind=warp set=0 map=-1 idx=0 idx2=-1 a=0 b=0 k1=0x1p0 k2=0x0p0\n";
  try {
    (void)verify::parse_repro(bad_loop);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos)
        << "message should name the offending line: " << e.what();
  }
}

TEST(OpKindNames, RoundTrip) {
  for (int k = 0; k <= static_cast<int>(OpKind::GlobalAxpy); ++k) {
    const auto kind = static_cast<OpKind>(k);
    OpKind back{};
    ASSERT_TRUE(verify::parse_op_kind(verify::op_kind_name(kind), &back));
    EXPECT_EQ(static_cast<int>(back), k);
  }
  OpKind dummy{};
  EXPECT_FALSE(verify::parse_op_kind("warp", &dummy));
}

TEST(Repro, KrylovShapedOpsSurviveRoundTrip) {
  auto spec = tiny_spec();
  spec.loops.push_back(op(OpKind::StampDirect, 0, -1, 0, 0, 0));
  spec.loops.push_back(op(OpKind::SpmvRow, 1, 0, 0, 0, 0));    // edges <- nodes
  spec.loops.push_back(op(OpKind::GlobalAxpy, 1, -1, 0, 1, 0));
  const auto text = verify::format_repro(spec, "krylov op round-trip");
  const auto back = verify::parse_repro(text);
  ASSERT_EQ(back.loops.size(), spec.loops.size());
  EXPECT_EQ(back.loops[1].kind, OpKind::SpmvRow);
  EXPECT_EQ(back.loops[2].kind, OpKind::GlobalAxpy);
  EXPECT_EQ(back.loops[2].k2, spec.loops[2].k2);
}

TEST(CheckCase, KrylovShapedOpsCleanAcrossMatrix) {
  // The SpMV row-gather and Read-global axpy shapes the krylov solver is
  // built from must hold across the whole differential matrix, not just in
  // the solver's own tests.
  auto spec = tiny_spec();
  spec.loops.push_back(op(OpKind::StampDirect, 0, -1, 0, 0, 0));  // nodes s0
  spec.loops.push_back(op(OpKind::StampDirect, 1, -1, 0, 1, 0));  // edges s1
  spec.loops.push_back(op(OpKind::SpmvRow, 1, 0, 0, 0, 0));       // edges s0 <- nodes s0
  spec.loops.push_back(op(OpKind::GlobalAxpy, 1, -1, 0, 0, 1));   // edges s0 += k1*g*edges s1
  spec.loops.push_back(op(OpKind::ReduceSum, 1, -1, 0, 0, 0));
  const auto m = verify::check_case(spec);
  EXPECT_FALSE(m.has_value()) << (m ? m->config + ": " + m->what : "");
}

// --- op2 introspection hooks ------------------------------------------------

TEST(Hooks, FingerprintsAreLayoutInvariantAndRunStable) {
  auto spec = tiny_spec();
  spec.loops.push_back(op(OpKind::StampDirect, 0, -1, 0, 0, 0));
  spec.loops.push_back(op(OpKind::ScatterInc, 1, 0, 0, 0, 1));
  const auto tables = verify::make_tables(spec.mesh);

  ExecConfig aos;
  aos.name = "aos";

  const auto r1 = verify::run_case(spec, tables, aos);
  const auto r2 = verify::run_case(spec, tables, aos);
  ASSERT_TRUE(r1.ok && r2.ok) << r1.error << r2.error;
  ASSERT_FALSE(r1.fingerprints.empty());
  EXPECT_EQ(r1.fingerprints, r2.fingerprints);  // stable across fresh contexts
}

TEST(Hooks, DeterministicReductionsMatchSerialBitForBit) {
  auto spec = tiny_spec();
  spec.mesh.nx = 8;
  spec.mesh.ny = 8;
  spec.loops.push_back(op(OpKind::StampDirect, 0, -1, 0, 0, 0));
  spec.loops.push_back(op(OpKind::ReduceSum, 0, -1, 0, 0, 0));
  const auto tables = verify::make_tables(spec.mesh);

  ExecConfig serial;
  serial.name = "serial";
  ExecConfig threaded;
  threaded.name = "t4";
  threaded.nthreads = 4;
  threaded.deterministic_reductions = true;

  const auto a = verify::run_case(spec, tables, serial);
  const auto b = verify::run_case(spec, tables, threaded);
  ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
  ASSERT_EQ(a.reductions.size(), 1u);
  ASSERT_EQ(b.reductions.size(), 1u);
  // Same ascending fold order on one rank: bit-identical, not just close.
  EXPECT_EQ(a.reductions[0], b.reductions[0]);
}

// --- deterministic-reduction policy -----------------------------------------

// Pins the intentional default split documented in verify.hpp: op2::Config
// ships with deterministic_reductions off (production default), the verify
// ExecConfig ships with it on (strictest comparable policy), and the matrix
// covers the production default through dedicated *-nondet own-base groups.
TEST(VerifyMatrixTest, DeterministicReductionPolicy) {
  EXPECT_TRUE(ExecConfig{}.deterministic_reductions);
  EXPECT_FALSE(op2::Config{}.deterministic_reductions);

  const auto matrix = verify::default_matrix();
  int nondet_groups = 0;
  for (const auto& g : matrix) {
    if (g.base.name.find("nondet") != std::string::npos) {
      ++nondet_groups;
      EXPECT_FALSE(g.base.deterministic_reductions)
          << g.base.name << " exists to cover the production default";
      // Nondeterministic folds cannot be compared bit-exactly against
      // variants, so these groups must stand alone.
      EXPECT_TRUE(g.variants.empty()) << g.base.name;
    } else {
      EXPECT_TRUE(g.base.deterministic_reductions) << g.base.name;
      for (const auto& v : g.variants) {
        EXPECT_TRUE(v.deterministic_reductions) << v.name;
      }
    }
  }
  EXPECT_GE(nondet_groups, 1);
}

// --- end-to-end over the matrix ---------------------------------------------

TEST(CheckCase, CleanOnGeneratedCases) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto spec = verify::gen_case(123, i);
    const auto m = verify::check_case(spec);
    EXPECT_FALSE(m.has_value()) << (m ? m->config + ": " + m->what : "");
  }
}

TEST(Shrink, CleanCaseShrinksToItself) {
  auto spec = tiny_spec();
  spec.loops.push_back(op(OpKind::StampDirect, 0, -1, 0, 0, 0));
  spec.loops.push_back(op(OpKind::ScaleDirect, 0, -1, 0, 0, 0));
  int steps = -1;
  const auto shrunk = verify::shrink_case(spec, &steps);
  // Nothing to remove: every reduction attempt makes the case pass, so the
  // shrinker must hand back the input unchanged.
  EXPECT_EQ(steps, 0);
  EXPECT_EQ(shrunk.loops.size(), spec.loops.size());
  EXPECT_EQ(shrunk.iters, spec.iters);
  EXPECT_EQ(shrunk.mesh.nx, spec.mesh.nx);
}

}  // namespace
