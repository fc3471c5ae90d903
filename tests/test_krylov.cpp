// vcgt::krylov manufactured-solution suite: an SPD Laplacian assembled on
// the rig annulus mesh's cell graph, solved by Jacobi-preconditioned CG
// composed from op2 par_loops. The load-bearing property is the
// reduction-determinism contract: with op2::Config::deterministic_reductions
// on, the residual history (and the solution bits) must be identical across
// serial, threaded and distributed executions, because every dot product
// folds in ascending global-id order regardless of partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/hydra/solver.hpp"
#include "src/krylov/krylov.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/op2/op2.hpp"
#include "src/rig/annulus.hpp"

namespace {

using namespace vcgt;
using op2::index_t;

rig::RowSpec test_row() {
  rig::RowSpec row;
  row.name = "K";
  row.rotor = false;
  row.x_min = 0.0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  return row;
}

/// ELL Laplacian over the mesh's cell-face graph: diag = sigma + degree,
/// off-diag -1 per face neighbor (+ a deterministic asymmetric perturbation
/// when skew != 0). sigma > 0 keeps it strictly diagonally dominant SPD.
struct Ell {
  int width = 0;
  std::vector<index_t> cols;  ///< ncell * width, slot 0 = self
  std::vector<double> a;      ///< matching coefficients, pads 0
};

double hash01(std::uint64_t k) {
  k += 0x9E3779B97F4A7C15ull;
  k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ull;
  k = (k ^ (k >> 27)) * 0x94D049BB133111EBull;
  return static_cast<double>((k ^ (k >> 31)) >> 11) * 0x1.0p-53;
}

Ell build_laplacian(const rig::AnnulusMesh& mesh, double sigma, double skew) {
  const auto nc = static_cast<std::size_t>(mesh.ncell);
  std::vector<std::vector<index_t>> adj(nc);
  for (index_t f = 0; f < mesh.nface; ++f) {
    const index_t cl = mesh.face2cell[static_cast<std::size_t>(f) * 2];
    const index_t cr = mesh.face2cell[static_cast<std::size_t>(f) * 2 + 1];
    adj[static_cast<std::size_t>(cl)].push_back(cr);
    adj[static_cast<std::size_t>(cr)].push_back(cl);
  }
  std::size_t deg = 0;
  for (const auto& r : adj) deg = std::max(deg, r.size());

  Ell e;
  e.width = 1 + static_cast<int>(deg);
  e.cols.assign(nc * static_cast<std::size_t>(e.width), 0);
  e.a.assign(nc * static_cast<std::size_t>(e.width), 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    const auto base = c * static_cast<std::size_t>(e.width);
    for (int k = 0; k < e.width; ++k) e.cols[base + static_cast<std::size_t>(k)] =
        static_cast<index_t>(c);  // pads = (self, 0.0)
    e.a[base] = sigma + static_cast<double>(adj[c].size());
    for (std::size_t j = 0; j < adj[c].size(); ++j) {
      e.cols[base + 1 + j] = adj[c][j];
      e.a[base + 1 + j] = -1.0 + skew * hash01(c * 131 + j);
    }
  }
  return e;
}

std::vector<double> manufactured_x(index_t n, int d) {
  std::vector<double> x(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (index_t r = 0; r < n; ++r) {
    for (int c = 0; c < d; ++c) {
      x[static_cast<std::size_t>(r) * static_cast<std::size_t>(d) +
        static_cast<std::size_t>(c)] =
          0.3 + 0.5 * std::cos(0.17 * static_cast<double>(r) + 0.3 * (c + 1));
    }
  }
  return x;
}

std::vector<double> apply_ell(const Ell& e, index_t n, int d, const std::vector<double>& x) {
  std::vector<double> b(static_cast<std::size_t>(n) * static_cast<std::size_t>(d), 0.0);
  for (index_t r = 0; r < n; ++r) {
    const auto base = static_cast<std::size_t>(r) * static_cast<std::size_t>(e.width);
    for (int c = 0; c < d; ++c) {
      double s = 0.0;
      for (int k = 0; k < e.width; ++k) {
        const index_t col = e.cols[base + static_cast<std::size_t>(k)];
        s += e.a[base + static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col) * static_cast<std::size_t>(d) +
               static_cast<std::size_t>(c)];
      }
      b[static_cast<std::size_t>(r) * static_cast<std::size_t>(d) +
        static_cast<std::size_t>(c)] = s;
    }
  }
  return b;
}

struct SolveCase {
  int nranks = 1;
  int nthreads = 1;
  int d = 1;
  int chain_tile = op2::Config{}.chain_tile;  ///< 0: the eager reference
  bool nan_x = false;  ///< fill the solver's x with NaN before the solve
  krylov::SolveOptions opts;
};

struct SolveOut {
  krylov::SolveStats stats;
  std::vector<double> x;
};

krylov::StencilMatrix declare_ell(op2::Context& ctx, op2::Set& rows, const Ell& ell) {
  return krylov::declare_stencil(
      ctx, rows, ell.width, "lap",
      [&ell](index_t row, std::span<index_t> cols, std::span<double> a) {
        const auto base = static_cast<std::size_t>(row) * cols.size();
        for (std::size_t k = 0; k < cols.size(); ++k) {
          cols[k] = ell.cols[base + k];
          a[k] = ell.a[base + k];
        }
      });
}

SolveOut run_one(op2::Context& ctx, const rig::AnnulusMesh& mesh, const Ell& ell,
                 const std::vector<double>& b_init, const SolveCase& sc) {
  auto& rows = ctx.decl_set("cells", mesh.ncell);
  const auto m = declare_ell(ctx, rows, ell);
  auto& cc = ctx.decl_dat<double>(rows, 3, "cc", mesh.cell_center);
  auto& b = ctx.decl_dat<double>(rows, sc.d, "b", b_init);
  krylov::Solver solver(ctx, m, sc.d, "k");
  ctx.partition(op2::Partitioner::Rcb, cc);

  if (sc.nan_x) {
    const int d = sc.d;
    op2::par_loop("nan_x", rows, [d](double* x) {
      for (int c = 0; c < d; ++c) x[c] = std::numeric_limits<double>::quiet_NaN();
    }, op2::write(solver.x()));
  }
  SolveOut out;
  out.stats = solver.solve(b, sc.opts);
  out.x = ctx.fetch_global(solver.x());
  return out;
}

SolveOut run_case(const rig::AnnulusMesh& mesh, const Ell& ell,
                  const std::vector<double>& b_init, const SolveCase& sc) {
  SolveOut out;
  if (sc.nranks <= 1 && sc.nthreads <= 1) {
    op2::Config cfg;
    cfg.deterministic_reductions = true;
    cfg.chain_tile = sc.chain_tile;
    op2::Context ctx(cfg);
    out = run_one(ctx, mesh, ell, b_init, sc);
  } else {
    minimpi::World::run(sc.nranks, [&](minimpi::Comm& comm) {
      op2::Config cfg;
      cfg.nthreads = sc.nthreads;
      cfg.deterministic_reductions = true;
      cfg.chain_tile = sc.chain_tile;
      op2::Context ctx(comm, cfg);
      auto r = run_one(ctx, mesh, ell, b_init, sc);
      if (ctx.rank() == 0) out = std::move(r);
    });
  }
  return out;
}

void expect_recovers(const SolveOut& out, const std::vector<double>& xstar, double tol) {
  ASSERT_EQ(out.x.size(), xstar.size());
  for (std::size_t i = 0; i < xstar.size(); ++i) {
    EXPECT_NEAR(out.x[i], xstar[i], tol) << "entry " << i;
  }
}

TEST(Krylov, CgConvergesOnRigLaplacian) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  const auto ell = build_laplacian(mesh, 0.5, 0.0);
  const auto xstar = manufactured_x(mesh.ncell, 1);
  const auto b = apply_ell(ell, mesh.ncell, 1, xstar);

  SolveCase sc;
  sc.opts.rtol = 1e-10;
  const auto out = run_case(mesh, ell, b, sc);

  EXPECT_EQ(out.stats.status, krylov::SolveStatus::Converged);
  // CG on an SPD n x n system terminates within n iterations (up to
  // rounding); the manufactured spectrum converges far sooner.
  EXPECT_LE(out.stats.iters, mesh.ncell);
  EXPECT_GT(out.stats.rnorm0, 0.0);
  EXPECT_LT(out.stats.rnorm, 1e-9 * out.stats.rnorm0 * 10);
  ASSERT_EQ(out.stats.history.size(), static_cast<std::size_t>(out.stats.iters) + 1);
  expect_recovers(out, xstar, 1e-7);
}

TEST(Krylov, CgRecoversEachComponentOfMultiRhs) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  const auto ell = build_laplacian(mesh, 0.5, 0.0);
  const int d = 3;
  const auto xstar = manufactured_x(mesh.ncell, d);
  const auto b = apply_ell(ell, mesh.ncell, d, xstar);

  SolveCase sc;
  sc.d = d;
  sc.opts.rtol = 1e-10;
  const auto out = run_case(mesh, ell, b, sc);
  EXPECT_EQ(out.stats.status, krylov::SolveStatus::Converged);
  expect_recovers(out, xstar, 1e-7);
}

/// Classic Jacobi-PCG on the host, two reductions per iteration (p·Ap,
/// then z·r with r·r), per-component step scalars, from x = 0, stopping
/// once the aggregate residual norm is at most rtol times its initial
/// value: the textbook form the single-reduction solver recasts.
struct HostCg {
  int iters = 0;
  std::vector<double> x;
};
HostCg classic_pcg(const Ell& e, index_t n, int d, const std::vector<double>& b, double rtol,
                   int max_iters) {
  const auto nd = b.size();
  const auto du = static_cast<std::size_t>(d);
  const auto inv = [&](std::size_t i) {
    const double diag = e.a[i / du * static_cast<std::size_t>(e.width)];
    return diag != 0.0 ? 1.0 / diag : 1.0;
  };
  HostCg out;
  out.x.assign(nd, 0.0);
  std::vector<double> r = b, z(nd), p(nd);
  for (std::size_t i = 0; i < nd; ++i) z[i] = p[i] = inv(i) * r[i];
  const auto dot = [&](const std::vector<double>& u, const std::vector<double>& v) {
    std::vector<double> g(du, 0.0);
    for (std::size_t i = 0; i < nd; ++i) g[i % du] += u[i] * v[i];
    return g;
  };
  const auto norm = [&](const std::vector<double>& v) {
    double ss = 0.0;
    for (const double g : dot(v, v)) ss += g;
    return std::sqrt(ss);
  };
  auto rz = dot(z, r);
  const double tol = rtol * norm(r);
  while (out.iters < max_iters && norm(r) > tol) {
    const auto q = apply_ell(e, n, d, p);
    const auto pq = dot(p, q);
    for (std::size_t i = 0; i < nd; ++i) {
      const double alpha = rz[i % du] / pq[i % du];
      out.x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
      z[i] = inv(i) * r[i];
    }
    const auto rz_new = dot(z, r);
    for (std::size_t i = 0; i < nd; ++i) p[i] = z[i] + rz_new[i % du] / rz[i % du] * p[i];
    rz = rz_new;
    ++out.iters;
  }
  return out;
}

// The single-reduction recurrences are the classic ones rearranged, so on
// the rig Laplacian the solver takes the classic PCG's iteration count to
// within one and reaches the same answer.
TEST(Krylov, SingleReductionMatchesClassicPcg) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  const auto ell = build_laplacian(mesh, 0.5, 0.0);
  for (const int d : {1, 3}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto xstar = manufactured_x(mesh.ncell, d);
    const auto b = apply_ell(ell, mesh.ncell, d, xstar);
    SolveCase sc;
    sc.d = d;
    sc.opts.rtol = 1e-10;
    const auto out = run_case(mesh, ell, b, sc);
    const auto ref = classic_pcg(ell, mesh.ncell, d, b, sc.opts.rtol, sc.opts.max_iters);
    EXPECT_EQ(out.stats.status, krylov::SolveStatus::Converged);
    EXPECT_LE(std::abs(out.stats.iters - ref.iters), 1)
        << "single-reduction " << out.stats.iters << ", classic " << ref.iters;
    expect_recovers(out, ref.x, 1e-7);
    expect_recovers(out, xstar, 1e-7);
  }
}

// Every solve starts from x = 0 and never reads x's entry value: a
// NaN-filled x gives the same history and answer, bit for bit.
TEST(Krylov, EntryValueOfXIsNeverRead) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  const auto ell = build_laplacian(mesh, 0.5, 0.0);
  const int d = 2;
  const auto b = apply_ell(ell, mesh.ncell, d, manufactured_x(mesh.ncell, d));
  for (const int nranks : {1, 2}) {
    SCOPED_TRACE(testing::Message() << nranks << " ranks");
    SolveCase zero;
    zero.nranks = nranks;
    zero.d = d;
    zero.opts.rtol = 1e-9;
    SolveCase nan = zero;
    nan.nan_x = true;
    const auto oz = run_case(mesh, ell, b, zero);
    const auto on = run_case(mesh, ell, b, nan);
    ASSERT_EQ(on.stats.history.size(), oz.stats.history.size());
    EXPECT_EQ(std::memcmp(on.stats.history.data(), oz.stats.history.data(),
                          oz.stats.history.size() * sizeof(double)),
              0);
    ASSERT_EQ(on.x.size(), oz.x.size());
    EXPECT_EQ(std::memcmp(on.x.data(), oz.x.data(), oz.x.size() * sizeof(double)), 0);
  }
}

TEST(Krylov, CgHistoryBitIdenticalAcrossBackends) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  const auto ell = build_laplacian(mesh, 0.5, 0.0);
  const int d = 2;
  const auto xstar = manufactured_x(mesh.ncell, d);
  const auto b = apply_ell(ell, mesh.ncell, d, xstar);

  SolveCase serial;
  serial.d = d;
  serial.opts.rtol = 1e-9;
  const auto ref = run_case(mesh, ell, b, serial);
  EXPECT_EQ(ref.stats.status, krylov::SolveStatus::Converged);

  for (const auto& [nranks, nthreads] : std::vector<std::pair<int, int>>{
           {1, 2}, {2, 1}, {3, 1}}) {
    SolveCase sc = serial;
    sc.nranks = nranks;
    sc.nthreads = nthreads;
    const auto out = run_case(mesh, ell, b, sc);
    SCOPED_TRACE(testing::Message() << nranks << " ranks, " << nthreads << " threads");
    EXPECT_EQ(out.stats.iters, ref.stats.iters);
    ASSERT_EQ(out.stats.history.size(), ref.stats.history.size());
    for (std::size_t i = 0; i < ref.stats.history.size(); ++i) {
      // Bit-identical, not approximately equal: the determinism contract.
      EXPECT_EQ(out.stats.history[i], ref.stats.history[i]) << "iteration " << i;
    }
    ASSERT_EQ(out.x.size(), ref.x.size());
    for (std::size_t i = 0; i < ref.x.size(); ++i) {
      EXPECT_EQ(out.x[i], ref.x[i]) << "x entry " << i;
    }
  }
}

TEST(Krylov, FusedAndEagerSpmvBitIdentical) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  const auto ell = build_laplacian(mesh, 0.5, 0.0);
  const auto xstar = manufactured_x(mesh.ncell, 1);
  const auto b = apply_ell(ell, mesh.ncell, 1, xstar);

  for (const int nranks : {1, 2}) {
    SolveCase fused;
    fused.nranks = nranks;
    fused.opts.rtol = 1e-9;
    SolveCase eager = fused;
    eager.chain_tile = 0;

    const auto of = run_case(mesh, ell, b, fused);
    const auto oe = run_case(mesh, ell, b, eager);
    SCOPED_TRACE(testing::Message() << nranks << " ranks");
    ASSERT_EQ(of.stats.history.size(), oe.stats.history.size());
    for (std::size_t i = 0; i < of.stats.history.size(); ++i) {
      EXPECT_EQ(of.stats.history[i], oe.stats.history[i]) << "iteration " << i;
    }
    for (std::size_t i = 0; i < of.x.size(); ++i) {
      EXPECT_EQ(of.x[i], oe.x[i]) << "x entry " << i;
    }
  }
}

// The SpMV kernel is compiled per component count and keeps each row's
// sums in registers, slot by slot. Per component that is the order of a
// component-by-component fold, so A x equals, bit for bit, the naive
// reference apply_ell() for every dim, signed zeros included. Dims outside
// 1..8 have no kernel and are refused.
TEST(Krylov, SpmvBitIdenticalAcrossDims) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  const auto ell = build_laplacian(mesh, 0.5, 0.3);
  const auto n = static_cast<std::size_t>(mesh.ncell);
  for (const int d : {1, 2, 3, 5, 8}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    std::vector<double> xv(n * static_cast<std::size_t>(d));
    for (std::size_t i = 0; i < xv.size(); ++i) {
      xv[i] = i % 7 == 3 ? -0.0 : hash01(i) - 0.5;
    }
    const auto ref = apply_ell(ell, mesh.ncell, d, xv);

    op2::Context ctx;
    auto& rows = ctx.decl_set("cells", mesh.ncell);
    const auto m = declare_ell(ctx, rows, ell);
    auto& cc = ctx.decl_dat<double>(rows, 3, "cc", mesh.cell_center);
    auto& x = ctx.decl_dat<double>(rows, d, "x", xv);
    auto& y = ctx.decl_dat<double>(rows, d, "y");
    krylov::Solver solver(ctx, m, d, "k");
    ctx.partition(op2::Partitioner::Rcb, cc);

    solver.spmv("k:apply", x, y);
    const auto got = ctx.fetch_global(y);
    ASSERT_EQ(got.size(), ref.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (std::memcmp(&got[i], &ref[i], sizeof(double)) != 0) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << ref.size() << " entries";
  }

  op2::Context ctx;
  auto& rows = ctx.decl_set("cells", mesh.ncell);
  const auto m = declare_ell(ctx, rows, ell);
  for (const int d : {0, krylov::Solver::kMaxDim + 1}) {
    EXPECT_THROW(krylov::Solver(ctx, m, d, "k"), std::invalid_argument) << "d=" << d;
  }
}

// A zero matrix with a non-zero b: Jacobi's zero-diagonal guard leaves
// z = r, so CG's first p·A·p is zero under a non-zero z·r and every
// component breaks down in the first iteration. The solve stops with
// Breakdown after it, leaving x at zero, instead of running to max_iters
// with zero steps.
TEST(Krylov, ZeroMatrixStopsWithBreakdown) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  auto ell = build_laplacian(mesh, 0.5, 0.0);
  std::fill(ell.a.begin(), ell.a.end(), 0.0);
  const auto b = manufactured_x(mesh.ncell, 2);

  SolveCase sc;
  sc.d = 2;
  sc.opts.max_iters = 50;
  const auto out = run_case(mesh, ell, b, sc);
  EXPECT_EQ(out.stats.status, krylov::SolveStatus::Breakdown);
  EXPECT_EQ(out.stats.iters, 1);
  ASSERT_EQ(out.stats.history.size(), 2u);
  EXPECT_EQ(out.stats.history[1], out.stats.history[0]);
  for (const double v : out.x) EXPECT_EQ(v, 0.0);
}

// One broken component must not stop the others. A is block diagonal with
// zero-diagonal 2x2 blocks [[0, 1], [1, 0]] on rows (2k, 2k+1), so Jacobi's
// zero-diagonal guard makes z = r. Component 0's b = (1, 0) per pair gives
// z·r = 1 per pair but p·A·p = 0: a breakdown. Component 1's b = (1, 1) is an
// eigenvector, so it converges in one step to x = (1, 1). The solve stops
// once component 1 meets the tolerance and reports Breakdown, with
// component 0 still at zero.
TEST(Krylov, BrokenComponentLeavesTheOthersConverging) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  ASSERT_EQ(mesh.ncell % 2, 0);
  const auto n = static_cast<std::size_t>(mesh.ncell);
  Ell ell;
  ell.width = 2;
  ell.cols.resize(2 * n);
  ell.a.resize(2 * n);
  std::vector<double> b(2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    ell.cols[2 * r] = static_cast<index_t>(r);
    ell.cols[2 * r + 1] = static_cast<index_t>(r ^ 1u);
    ell.a[2 * r] = 0.0;
    ell.a[2 * r + 1] = 1.0;
    b[2 * r] = r % 2 == 0 ? 1.0 : 0.0;
    b[2 * r + 1] = 1.0;
  }

  SolveCase sc;
  sc.d = 2;
  sc.opts.rtol = 1e-10;
  sc.opts.max_iters = 50;
  const auto out = run_case(mesh, ell, b, sc);
  EXPECT_EQ(out.stats.status, krylov::SolveStatus::Breakdown);
  EXPECT_GE(out.stats.iters, 1);
  EXPECT_LT(out.stats.iters, sc.opts.max_iters);
  ASSERT_EQ(out.x.size(), 2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_EQ(out.x[2 * r], 0.0) << "row " << r;
    EXPECT_NEAR(out.x[2 * r + 1], 1.0, 1e-8) << "row " << r;
  }
}

// A component whose right-hand side is zero has converged from the start:
// its zero p·A·p comes with a zero z·r, so it takes zero steps, not a
// breakdown, and the other component converges.
TEST(Krylov, ZeroRhsComponentIsNotABreakdown) {
  const auto mesh = rig::generate_row_mesh(test_row(), {3, 2, 8});
  const auto ell = build_laplacian(mesh, 0.5, 0.0);
  auto xstar = manufactured_x(mesh.ncell, 2);
  for (std::size_t i = 1; i < xstar.size(); i += 2) xstar[i] = 0.0;
  const auto b = apply_ell(ell, mesh.ncell, 2, xstar);

  SolveCase sc;
  sc.d = 2;
  sc.opts.rtol = 1e-10;
  const auto out = run_case(mesh, ell, b, sc);
  EXPECT_EQ(out.stats.status, krylov::SolveStatus::Converged);
  EXPECT_GT(out.stats.iters, 1);
  expect_recovers(out, xstar, 1e-6);
}

TEST(Krylov, HydraImplicitInnerIterationSmoke) {
  using hydra::FlowConfig;
  using hydra::RowSolver;

  op2::Context ctx;
  const auto row = test_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 16});
  FlowConfig cfg;
  cfg.steady = true;
  cfg.blade_relax = 1e9;  // force-free duct
  cfg.rotor_swirl_frac = 0.0;
  cfg.stator_swirl_frac = 0.0;
  cfg.p_back_ratio = 1.01;
  cfg.implicit_dual_time = true;
  cfg.implicit_max_iters = 60;
  cfg.implicit_rtol = 1e-6;

  RowSolver solver(ctx, mesh, row, 0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();

  solver.inner_iteration();
  const double r1 = solver.residual_rms();
  EXPECT_TRUE(std::isfinite(r1));
  solver.advance_inner(10);
  const double r2 = solver.residual_rms();
  EXPECT_TRUE(std::isfinite(r2));
  // The implicit march must be heading toward the throttled steady state:
  // ten more iterations at the default pseudo-CFL cut the residual.
  EXPECT_LT(r2, r1);
  const auto q = ctx.fetch_global(solver.q());
  for (const double v : q) EXPECT_TRUE(std::isfinite(v));
}


/// Throttled steady duct: the back-pressure rise makes the inflow/outflow
/// balance stiff, so the explicit march crawls toward it at CFL-limited
/// pace while the implicit march's pseudo-CFL sits far above that bound.
hydra::FlowConfig stiff_flow(bool implicit) {
  hydra::FlowConfig cfg;
  cfg.steady = true;
  cfg.p_back_ratio = 1.05;
  cfg.implicit_dual_time = implicit;
  cfg.implicit_max_iters = 120;
  cfg.implicit_rtol = 1e-5;
  return cfg;
}

struct March {
  int iters = 0;         ///< outer (inner_iteration) steps taken
  bool reached = false;  ///< met the residual-drop target within the cap
  double rms = 0.0;
};

/// Marches a fresh serial solver until residual_rms() falls to `drop` times
/// its value after the first step (checked every `check` steps) or `cap`
/// steps have been taken.
March march_to_drop(const rig::AnnulusMesh& mesh, bool implicit, double drop, int cap,
                    int check) {
  op2::Context ctx;
  const auto row = test_row();
  hydra::RowSolver solver(ctx, mesh, row, /*omega=*/0.0, stiff_flow(implicit));
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();

  March out;
  solver.inner_iteration();
  out.iters = 1;
  const double target = drop * solver.residual_rms();
  while (out.iters < cap) {
    solver.advance_inner(check);
    out.iters += check;
    out.rms = solver.residual_rms();
    if (!std::isfinite(out.rms)) break;
    if (out.rms <= target) {
      out.reached = true;
      break;
    }
  }
  return out;
}

// What the implicit path buys at a stiff operating point: the CG-solved
// dual-time march reaches a 1e-3 residual drop in at least half the outer
// iterations of the explicit RK march (explicit checked every 10 steps,
// implicit every step, both capped at 1500).
TEST(HydraImplicit, OuterIterationsAtLeastHalvedAtStiffPoint) {
  const auto mesh = rig::generate_row_mesh(test_row(), {4, 3, 12});
  const March ex = march_to_drop(mesh, /*implicit=*/false, 1e-3, 1500, 10);
  const March im = march_to_drop(mesh, /*implicit=*/true, 1e-3, 1500, 1);
  SCOPED_TRACE(testing::Message() << "explicit " << ex.iters << " outer iterations (reached "
                                  << ex.reached << "), implicit " << im.iters
                                  << " (reached " << im.reached << ")");
  EXPECT_TRUE(std::isfinite(ex.rms));
  ASSERT_TRUE(std::isfinite(im.rms));
  ASSERT_TRUE(im.reached);
  const double reduction = static_cast<double>(ex.iters) / static_cast<double>(im.iters);
  EXPECT_GE(reduction, 2.0);
}

}  // namespace
