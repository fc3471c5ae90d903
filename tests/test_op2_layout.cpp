// Storage-order suite (ctest label "layout"): dats are AoS, and the
// type-erased gather/scatter that halo packing and renumbering use moves
// whole elements in that order. Asserts halo slots read back their
// owners' values, the persistent halo pack buffers allocate nothing in
// steady state, gather/scatter invert each other, and I/O round-trips.
#include <gtest/gtest.h>

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

TEST(Op2Layout, HaloSlotsOwnerConsistentUnderEveryLayout) {
  // After an exchange, every halo slot must equal the owner's value.
  const auto mesh = test::make_grid(10, 7);
  minimpi::World::run(3, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm, op2::Config{});
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
      EXPECT_EQ(v.at(l, 0), 7.0 * gid);
      EXPECT_EQ(v.at(l, 1), 1.0 - gid);
      EXPECT_EQ(v.at(l, 2), 0.125 * gid + 3.0);
    }
  });
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
      if (comm.size() > 1) {
        EXPECT_GT(warm, 0u);
      }
      for (int it = 0; it < 5; ++it) iterate();
      EXPECT_EQ(ctx.halo_buffer_allocs(), warm)
          << (grouped ? "grouped" : "ungrouped") << " halos allocated in steady state";
    });
  }
}

TEST(Op2Layout, GatherScatterNormalizesToAoS) {
  // gather_elems must emit AoS-ordered payloads; scatter must invert it.
  // This is the contract halo packing and I/O rely on.
  op2::Context ctx;
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
                init[static_cast<std::size_t>(elems[k]) * 2 + static_cast<std::size_t>(c)]);
    }
  }

  // Scatter modified payloads back and read through at().
  std::vector<double> mod(vals, vals + elems.size() * 2);
  for (auto& v : mod) v = -v;
  d.scatter_elems(elems, reinterpret_cast<const std::byte*>(mod.data()));
  for (std::size_t k = 0; k < elems.size(); ++k) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(d.at(elems[k], c),
                -init[static_cast<std::size_t>(elems[k]) * 2 + static_cast<std::size_t>(c)]);
    }
  }
}

TEST(Op2Layout, IoRoundTripNormalizesToAoS) {
  // save() writes a dat's global AoS payload; load() into a fresh context
  // reproduces the values.
  const auto mesh = test::make_grid(5, 4);
  const std::string path = "layout_io_roundtrip.dat";
  std::vector<double> ref;
  {
    op2::Context ctx;
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
    op2::Context ctx;
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

}  // namespace
