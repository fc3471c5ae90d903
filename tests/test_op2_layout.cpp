// Layout-equivalence suite (ctest label "layout"): every storage layout —
// AoS, SoA, AoSoA(4), AoSoA(8) — must produce *bit-identical* Dat contents
// and reductions versus the AoS baseline, because the layout engine changes
// only where values live, never the floating-point operations or their
// order. Covered execution modes: serial, threaded-colored, distributed
// with halo exchange (full/partial/grouped), post-renumber, and the
// vectorized direct path. Also asserts the persistent halo pack buffers
// allocate nothing in steady state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/minimpi/minimpi.hpp"
#include "src/op2/io.hpp"
#include "src/op2/op2.hpp"
#include "tests/testmesh.hpp"

namespace {

using namespace vcgt;
using op2::index_t;
using op2::Layout;

struct LayoutSpec {
  Layout layout;
  int block;  // AoSoA width; ignored otherwise
};

const LayoutSpec kLayouts[] = {
    {Layout::AoS, 1}, {Layout::SoA, 1}, {Layout::AoSoA, 4}, {Layout::AoSoA, 8}};

std::string spec_name(const LayoutSpec& s) {
  if (s.layout == Layout::AoSoA) return "aosoa" + std::to_string(s.block);
  return op2::layout_name(s.layout);
}

struct SolveResult {
  std::vector<double> q;    ///< dim-3 field (staged under SoA/AoSoA)
  std::vector<double> x;    ///< dim-1 field (vector path under SoA/AoSoA)
  std::vector<double> rms_history;
};

/// Pseudo solver with a dim-3 dat (exercises gather staging for non-unit-
/// stride layouts), a dim-1 dat (exercises the vectorized direct path) and
/// a sum reduction: zero -> indirect edge flux inc -> direct update.
SolveResult run_solver(op2::Context& ctx, const test::GridMesh& mesh, int iters,
                       bool renumber) {
  auto& nodes = ctx.decl_set("nodes", mesh.nnode);
  auto& edges = ctx.decl_set("edges", mesh.nedge);
  auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
  auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
  auto& q = ctx.decl_dat<double>(nodes, 3, "q");
  auto& dq = ctx.decl_dat<double>(nodes, 3, "dq");
  auto& x = ctx.decl_dat<double>(nodes, 1, "x");

  if (renumber) {
    const auto perm = ctx.reverse_cuthill_mckee(nodes);
    ctx.renumber_set(nodes, perm);
  }
  ctx.partition(op2::Partitioner::Rcb, coords);

  op2::par_loop("init", nodes,
                [](const double* c, double* qq, double* xx) {
                  qq[0] = 1.0 + 0.01 * c[0];
                  qq[1] = 2.0 - 0.02 * c[1];
                  qq[2] = 0.5 * c[0] * c[1] + 1.0;
                  *xx = 1.0 + 0.03 * c[0] - 0.01 * c[1];
                },
                op2::read(coords), op2::write(q), op2::write(x));

  SolveResult out;
  for (int it = 0; it < iters; ++it) {
    op2::par_loop("zero", nodes,
                  [](double* d) { d[0] = d[1] = d[2] = 0.0; },
                  op2::write(dq));
    op2::par_loop("flux", edges,
                  [](const double* qa, const double* qb, double* da, double* db) {
                    for (int c = 0; c < 3; ++c) {
                      const double f = 0.5 * (qb[c] - qa[c]);
                      da[c] += f;
                      db[c] -= f;
                    }
                  },
                  op2::read(q, e2n, 0), op2::read(q, e2n, 1),
                  op2::inc(dq, e2n, 0), op2::inc(dq, e2n, 1));
    auto rms = ctx.decl_global<double>("rms", 1);
    op2::par_loop("update", nodes,
                  [](const double* d, double* qq, double* xx, double* s) {
                    for (int c = 0; c < 3; ++c) {
                      qq[c] += 0.1 * d[c];
                      *s += d[c] * d[c];
                    }
                    *xx = 0.99 * *xx + 0.01 * qq[0];
                  },
                  op2::read(dq), op2::rw(q), op2::rw(x),
                  op2::reduce_sum(rms));
    out.rms_history.push_back(std::sqrt(rms.value()));
    // A pure dim-1 direct loop: layout-vectorizable under SoA/AoSoA.
    op2::par_loop("scale_x", nodes, [](double* xx) { *xx *= 1.0000001; },
                  op2::rw(x));
  }
  out.q = ctx.fetch_global(q);
  out.x = ctx.fetch_global(x);
  return out;
}

void expect_bit_identical(const SolveResult& got, const SolveResult& ref,
                          const std::string& what) {
  ASSERT_EQ(got.q.size(), ref.q.size()) << what;
  for (std::size_t i = 0; i < got.q.size(); ++i) {
    ASSERT_EQ(got.q[i], ref.q[i]) << what << " q[" << i << "]";
  }
  ASSERT_EQ(got.x.size(), ref.x.size()) << what;
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    ASSERT_EQ(got.x[i], ref.x[i]) << what << " x[" << i << "]";
  }
  ASSERT_EQ(got.rms_history.size(), ref.rms_history.size()) << what;
  for (std::size_t i = 0; i < got.rms_history.size(); ++i) {
    ASSERT_EQ(got.rms_history[i], ref.rms_history[i]) << what << " rms[" << i << "]";
  }
}

struct LayoutCase {
  LayoutSpec spec;
  int nthreads = 1;
  bool force_coloring = false;
  bool renumber = false;
};

std::string case_name(const testing::TestParamInfo<LayoutCase>& info) {
  const auto& c = info.param;
  return spec_name(c.spec) + (c.force_coloring ? "_col" : "") +
         (c.nthreads > 1 ? "_t" + std::to_string(c.nthreads) : "") +
         (c.renumber ? "_rcm" : "");
}

op2::Config cfg_for(const LayoutCase& c) {
  op2::Config cfg;
  cfg.default_layout = c.spec.layout;
  cfg.aosoa_block = c.spec.block;
  cfg.nthreads = c.nthreads;
  cfg.force_coloring = c.force_coloring;
  return cfg;
}

class LayoutEqualsAoS : public testing::TestWithParam<LayoutCase> {};

TEST_P(LayoutEqualsAoS, SerialBitIdentical) {
  const auto c = GetParam();
  const auto mesh = test::make_grid(11, 8);
  const int iters = 4;

  op2::Config ref_cfg = cfg_for(c);
  ref_cfg.default_layout = Layout::AoS;
  ref_cfg.aosoa_block = 8;
  op2::Context ref_ctx(ref_cfg);
  const auto ref = run_solver(ref_ctx, mesh, iters, c.renumber);

  op2::Context ctx(cfg_for(c));
  const auto got = run_solver(ctx, mesh, iters, c.renumber);
  expect_bit_identical(got, ref, spec_name(c.spec));
}

// Cases live in static storage so their padding bytes are zero: gtest
// names each case with a byte dump of the param, and stack temporaries
// would leak indeterminate padding into the test names.
constexpr LayoutCase kLayoutCases[] = {
    LayoutCase{{Layout::SoA, 1}},
    LayoutCase{{Layout::AoSoA, 4}},
    LayoutCase{{Layout::AoSoA, 8}},
    // Threaded-colored execution (chunked staging over colored spans).
    LayoutCase{{Layout::SoA, 1}, 1, true},
    LayoutCase{{Layout::AoSoA, 4}, 1, true},
    LayoutCase{{Layout::SoA, 1}, 2, true},
    LayoutCase{{Layout::AoSoA, 8}, 2, true},
    // Post-renumber states (RCM permutation through the layout).
    LayoutCase{{Layout::SoA, 1}, 1, false, true},
    LayoutCase{{Layout::AoSoA, 4}, 1, false, true},
    LayoutCase{{Layout::AoSoA, 8}, 2, true, true},
};

INSTANTIATE_TEST_SUITE_P(Sweep, LayoutEqualsAoS, testing::ValuesIn(kLayoutCases), case_name);

struct DistLayoutCase {
  LayoutSpec spec;
  int nranks;
  bool partial_halos;
  bool grouped_halos;
  int nthreads = 1;
};

std::string dist_case_name(const testing::TestParamInfo<DistLayoutCase>& info) {
  const auto& c = info.param;
  return spec_name(c.spec) + "_r" + std::to_string(c.nranks) +
         (c.partial_halos ? "_ph" : "") + (c.grouped_halos ? "_gh" : "") +
         (c.nthreads > 1 ? "_t" + std::to_string(c.nthreads) : "");
}

class DistLayoutEqualsAoS : public testing::TestWithParam<DistLayoutCase> {};

TEST_P(DistLayoutEqualsAoS, DistributedBitIdentical) {
  const auto c = GetParam();
  const auto mesh = test::make_grid(13, 9);
  const int iters = 4;

  // Distributed AoS reference with identical comm configuration: the halo
  // protocol (pack order, exchange rounds) must not depend on the layout.
  auto dist_cfg = [&](Layout l, int w) {
    op2::Config cfg;
    cfg.default_layout = l;
    cfg.aosoa_block = w;
    cfg.partial_halos = c.partial_halos;
    cfg.grouped_halos = c.grouped_halos;
    cfg.nthreads = c.nthreads;
    cfg.force_coloring = c.nthreads > 1;
    return cfg;
  };

  SolveResult ref;
  minimpi::World::run(c.nranks, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm, dist_cfg(Layout::AoS, 8));
    const auto r = run_solver(ctx, mesh, iters, false);
    if (comm.rank() == 0) ref = r;
  });

  minimpi::World::run(c.nranks, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm, dist_cfg(c.spec.layout, c.spec.block));
    const auto got = run_solver(ctx, mesh, iters, false);
    expect_bit_identical(got, ref, spec_name(c.spec) + " rank " + std::to_string(comm.rank()));
    // Ranks > 1 must actually have exchanged halos through the layout-aware
    // gather/scatter pack path.
    if (comm.size() > 1) EXPECT_GT(ctx.total_stats().halo_msgs, 0u);
  });
}

// Static storage for zero padding bytes, as for kLayoutCases.
constexpr DistLayoutCase kDistLayoutCases[] = {
    DistLayoutCase{{Layout::SoA, 1}, 3, false, false},
    DistLayoutCase{{Layout::AoSoA, 4}, 3, false, false},
    DistLayoutCase{{Layout::AoSoA, 8}, 4, false, false},
    DistLayoutCase{{Layout::SoA, 1}, 4, true, false},
    DistLayoutCase{{Layout::SoA, 1}, 4, false, true},
    DistLayoutCase{{Layout::AoSoA, 4}, 4, true, true},
    DistLayoutCase{{Layout::SoA, 1}, 3, true, true, 2},
    DistLayoutCase{{Layout::AoSoA, 8}, 2, true, true, 2},
};

INSTANTIATE_TEST_SUITE_P(Sweep, DistLayoutEqualsAoS, testing::ValuesIn(kDistLayoutCases),
                         dist_case_name);

TEST(Op2Layout, HaloSlotsOwnerConsistentUnderEveryLayout) {
  // After an exchange, every halo slot must equal the owner's value — read
  // back through the layout-aware accessor, not raw storage.
  const auto mesh = test::make_grid(10, 7);
  for (const auto& spec : kLayouts) {
    minimpi::World::run(3, [&](minimpi::Comm& comm) {
      op2::Config cfg;
      cfg.default_layout = spec.layout;
      cfg.aosoa_block = spec.block;
      op2::Context ctx(comm, cfg);
      auto& nodes = ctx.decl_set("nodes", mesh.nnode);
      auto& edges = ctx.decl_set("edges", mesh.nedge);
      auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
      auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
      auto& v = ctx.decl_dat<double>(nodes, 3, "v");
      ctx.partition(op2::Partitioner::Rcb, coords);

      op2::par_loop("fill", nodes,
                    [](const op2::gindex_t* gid, double* d) {
                      d[0] = 7.0 * static_cast<double>(*gid);
                      d[1] = 1.0 - static_cast<double>(*gid);
                      d[2] = 0.125 * static_cast<double>(*gid) + 3.0;
                    },
                    op2::arg_idx(), op2::write(v));
      // Force a halo refresh by reading v indirectly.
      auto s = ctx.decl_global<double>("s", 1);
      op2::par_loop("touch", edges,
                    [](const double* a, const double* b, double* acc) {
                      *acc += a[0] + b[2];
                    },
                    op2::read(v, e2n, 0), op2::read(v, e2n, 1),
                    op2::reduce_sum(s));

      for (index_t l = nodes.n_owned(); l < nodes.total(); ++l) {
        const auto gid = static_cast<double>(nodes.global_id(l));
        EXPECT_EQ(v.at(l, 0), 7.0 * gid) << spec_name(spec);
        EXPECT_EQ(v.at(l, 1), 1.0 - gid) << spec_name(spec);
        EXPECT_EQ(v.at(l, 2), 0.125 * gid + 3.0) << spec_name(spec);
      }
    });
  }
}

TEST(Op2Layout, SteadyStateHaloExchangeAllocatesNothing) {
  // Halo send sites grow their payload during warm-up only: after the
  // first exchange round of every plan, further iterations must not
  // allocate (halo_buffer_allocs() stays flat).
  const auto mesh = test::make_grid(12, 10);
  for (const bool grouped : {false, true}) {
    minimpi::World::run(4, [&](minimpi::Comm& comm) {
      op2::Config cfg;
      cfg.grouped_halos = grouped;
      cfg.default_layout = Layout::SoA;  // exercise the layout-aware pack
      op2::Context ctx(comm, cfg);
      auto& nodes = ctx.decl_set("nodes", mesh.nnode);
      auto& edges = ctx.decl_set("edges", mesh.nedge);
      auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
      auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
      auto& x = ctx.decl_dat<double>(nodes, 2, "x");
      auto& res = ctx.decl_dat<double>(nodes, 2, "res");
      ctx.partition(op2::Partitioner::Rcb, coords);

      auto iterate = [&] {
        op2::par_loop("zero", nodes, [](double* r) { r[0] = r[1] = 0.0; },
                      op2::write(res));
        op2::par_loop("flux", edges,
                      [](const double* a, const double* b, double* ra, double* rb) {
                        ra[0] += 0.5 * (b[0] - a[0]);
                        rb[1] -= 0.5 * (b[1] - a[1]);
                      },
                      op2::read(x, e2n, 0), op2::read(x, e2n, 1),
                      op2::inc(res, e2n, 0), op2::inc(res, e2n, 1));
        op2::par_loop("update", nodes,
                      [](const double* r, double* v) {
                        v[0] += 0.1 * r[0];
                        v[1] += 0.1 * r[1];
                      },
                      op2::read(res), op2::rw(x));
      };

      op2::par_loop("init", nodes,
                    [](const double* c, double* v) {
                      v[0] = c[0];
                      v[1] = c[1];
                    },
                    op2::read(coords), op2::write(x));
      iterate();  // warm-up: buffers grow here
      const auto warm = ctx.halo_buffer_allocs();
      if (comm.size() > 1) EXPECT_GT(warm, 0u);
      for (int it = 0; it < 5; ++it) iterate();
      EXPECT_EQ(ctx.halo_buffer_allocs(), warm)
          << (grouped ? "grouped" : "ungrouped") << " halos allocated in steady state";
    });
  }
}

TEST(Op2Layout, RelayoutRoundTripPreservesValues) {
  op2::Context ctx;
  auto& s = ctx.decl_set("s", 13);  // deliberately not a block multiple
  auto& d = ctx.decl_dat<double>(s, 3, "d");
  for (index_t e = 0; e < 13; ++e) {
    for (int c = 0; c < 3; ++c) d.at(e, c) = 100.0 * e + c;
  }
  d.mark_written();

  const auto check = [&](const char* what) {
    for (index_t e = 0; e < 13; ++e) {
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(d.at(e, c), 100.0 * e + c) << what << " e=" << e << " c=" << c;
      }
    }
  };
  ctx.set_layout(d, Layout::SoA);
  EXPECT_EQ(d.layout(), Layout::SoA);
  EXPECT_FALSE(d.unit_stride());
  check("soa");
  ctx.set_layout(d, Layout::AoSoA, 4);
  EXPECT_EQ(d.capacity(), 16);  // padded to the block width
  check("aosoa4");
  ctx.set_layout(d, Layout::AoSoA, 8);
  EXPECT_EQ(d.capacity(), 16);
  check("aosoa8");
  ctx.set_layout(d, Layout::AoS);
  EXPECT_TRUE(d.unit_stride());
  check("aos");
}

TEST(Op2Layout, GatherScatterNormalizesToAoS) {
  // gather_elems must emit AoS-ordered payloads for every layout; scatter
  // must invert it. This is the contract halo packing and I/O rely on.
  for (const auto& spec : kLayouts) {
    op2::Config cfg;
    cfg.default_layout = spec.layout;
    cfg.aosoa_block = spec.block;
    op2::Context ctx(cfg);
    auto& s = ctx.decl_set("s", 9);
    std::vector<double> init(9 * 2);
    for (std::size_t i = 0; i < init.size(); ++i) init[i] = 3.0 * static_cast<double>(i) + 1.0;
    auto& d = ctx.decl_dat<double>(s, 2, "d", init);

    const std::vector<index_t> elems = {7, 0, 3};
    std::vector<std::byte> buf(elems.size() * d.elem_bytes());
    d.gather_elems(elems, buf.data());
    const auto* vals = reinterpret_cast<const double*>(buf.data());
    for (std::size_t k = 0; k < elems.size(); ++k) {
      for (int c = 0; c < 2; ++c) {
        EXPECT_EQ(vals[k * 2 + static_cast<std::size_t>(c)],
                  init[static_cast<std::size_t>(elems[k]) * 2 + static_cast<std::size_t>(c)])
            << spec_name(spec);
      }
    }

    // Scatter modified payloads back and read through at().
    std::vector<double> mod(vals, vals + elems.size() * 2);
    for (auto& v : mod) v = -v;
    d.scatter_elems(elems, reinterpret_cast<const std::byte*>(mod.data()));
    for (std::size_t k = 0; k < elems.size(); ++k) {
      for (int c = 0; c < 2; ++c) {
        EXPECT_EQ(d.at(elems[k], c),
                  -init[static_cast<std::size_t>(elems[k]) * 2 + static_cast<std::size_t>(c)])
            << spec_name(spec);
      }
    }
  }
}

TEST(Op2Layout, VectorizablePlanPredicate) {
  // Direct unit-stride loops over non-AoS dats take the vectorized path;
  // indirect args, non-unit-stride dats, writable globals and arg_idx all
  // disqualify. Verified through describe_plans()'s "simd" marker.
  op2::Config cfg;
  cfg.default_layout = Layout::SoA;
  op2::Context ctx(cfg);
  const auto mesh = test::make_grid(6, 5);
  auto& nodes = ctx.decl_set("nodes", mesh.nnode);
  auto& edges = ctx.decl_set("edges", mesh.nedge);
  auto& e2n = ctx.decl_map("e2n", edges, nodes, 2, mesh.edge2node);
  auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
  auto& a = ctx.decl_dat<double>(nodes, 1, "a");
  auto& b = ctx.decl_dat<double>(nodes, 1, "b");
  ctx.partition(op2::Partitioner::Rcb, coords);

  op2::par_loop("vec_direct", nodes,
                [](const double* x, double* y) { *y = 2.0 * *x; },
                op2::read(a), op2::write(b));
  op2::par_loop("novec_indirect", edges,
                [](const double* x, double* s) { (void)x; (void)s; },
                op2::read(a, e2n, 0), op2::write(b, e2n, 1));
  op2::par_loop("novec_dim2", nodes, [](const double* c, double* y) { *y = c[0]; },
                op2::read(coords), op2::write(b));  // coords: SoA dim 2 => staged
  auto g = ctx.decl_global<double>("g", 1);
  op2::par_loop("novec_reduce", nodes, [](const double* x, double* s) { *s += *x; },
                op2::read(a), op2::reduce_sum(g));

  const auto desc = ctx.describe_plans();
  EXPECT_NE(desc.find("loop 'vec_direct'"), std::string::npos);
  auto line_of = [&](const char* name) {
    const auto pos = desc.find(std::string("loop '") + name + "'");
    const auto end = desc.find('\n', pos);
    return desc.substr(pos, end - pos);
  };
  EXPECT_NE(line_of("vec_direct").find(", simd"), std::string::npos);
  EXPECT_EQ(line_of("novec_indirect").find(", simd"), std::string::npos);
  EXPECT_EQ(line_of("novec_dim2").find(", simd"), std::string::npos);
  EXPECT_EQ(line_of("novec_reduce").find(", simd"), std::string::npos);
}

TEST(Op2Layout, SetLayoutInvalidBlockThrows) {
  op2::Context ctx;
  auto& s = ctx.decl_set("s", 4);
  auto& d = ctx.decl_dat<double>(s, 2, "d");
  EXPECT_THROW(ctx.set_layout(d, Layout::AoSoA, 3), std::invalid_argument);
  EXPECT_THROW(ctx.set_layout(d, Layout::AoSoA, -8), std::invalid_argument);
}

TEST(Op2Layout, ParseLayoutSpellings) {
  Layout l = Layout::AoS;
  int w = 0;
  EXPECT_TRUE(op2::parse_layout("soa", &l, &w));
  EXPECT_EQ(l, Layout::SoA);
  EXPECT_TRUE(op2::parse_layout("aosoa16", &l, &w));
  EXPECT_EQ(l, Layout::AoSoA);
  EXPECT_EQ(w, 16);
  EXPECT_TRUE(op2::parse_layout("aosoa", &l, &w));
  EXPECT_TRUE(op2::parse_layout("aos", &l, &w));
  EXPECT_EQ(l, Layout::AoS);
  EXPECT_FALSE(op2::parse_layout("aosoa3", &l, &w));
  EXPECT_FALSE(op2::parse_layout("csr", &l, &w));
}

TEST(Op2Layout, IoRoundTripNormalizesToAoS) {
  // save() writes AoS regardless of layout; load() into a differently-laid
  // dat reproduces the values.
  const auto mesh = test::make_grid(5, 4);
  const std::string path = "layout_io_roundtrip.dat";
  std::vector<double> ref;
  {
    op2::Config cfg;
    cfg.default_layout = Layout::AoSoA;
    cfg.aosoa_block = 4;
    op2::Context ctx(cfg);
    auto& nodes = ctx.decl_set("nodes", mesh.nnode);
    auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
    auto& d = ctx.decl_dat<double>(nodes, 3, "d");
    ctx.partition(op2::Partitioner::Block, coords);
    op2::par_loop("fill", nodes,
                  [](const op2::gindex_t* gid, double* v) {
                    v[0] = static_cast<double>(*gid) * 1.5;
                    v[1] = static_cast<double>(*gid) - 100.0;
                    v[2] = 42.0;
                  },
                  op2::arg_idx(), op2::write(d));
    ASSERT_TRUE(op2::io::save(ctx, d, path));
    ref = ctx.fetch_global(d);
  }
  {
    op2::Config cfg;
    cfg.default_layout = Layout::SoA;
    op2::Context ctx(cfg);
    auto& nodes = ctx.decl_set("nodes", mesh.nnode);
    auto& coords = ctx.decl_dat<double>(nodes, 2, "coords", mesh.coords);
    auto& d = ctx.decl_dat<double>(nodes, 3, "d");
    ctx.partition(op2::Partitioner::Block, coords);
    ASSERT_TRUE(op2::io::load(ctx, d, path));
    const auto got = ctx.fetch_global(d);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], ref[i]);
  }
  std::remove(path.c_str());
}

TEST(Op2Layout, PerDatOverrideAndEpoch) {
  op2::Config cfg;  // default AoS
  op2::Context ctx(cfg);
  auto& s = ctx.decl_set("s", 8);
  auto& a = ctx.decl_dat<double>(s, 2, "a");
  auto& b = ctx.decl_dat<double>(s, 2, "b", {}, Layout::SoA);
  auto& c = ctx.decl_dat<double>(s, 2, "c", {}, Layout::AoSoA, 4);
  EXPECT_EQ(a.layout(), Layout::AoS);
  EXPECT_EQ(b.layout(), Layout::SoA);
  EXPECT_EQ(c.layout(), Layout::AoSoA);
  EXPECT_EQ(c.block(), 4);
  const auto e0 = ctx.layout_epoch();
  ctx.set_layout(a, Layout::SoA);
  EXPECT_EQ(ctx.layout_epoch(), e0 + 1);
}

}  // namespace
