// vcgt::krylov implementation — Jacobi-preconditioned CG over op2 par_loops.
#include "src/krylov/krylov.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "src/util/fmt.hpp"

namespace vcgt::krylov {

namespace {

/// y = A x for D components in one pass over the stencil row: each
/// column's x is resolved once (DatSpan::elem) and the D sums stay in
/// registers. Each sum starts at 0.0 and adds a[j] * x[c] in slot order,
/// the order of a component-by-component fold, so y is bit-identical to it.
template <int D>
struct SpmvKernel {
  int k;
  void operator()(const double* a, const op2::index_t* cols, op2::DatSpan<double> x,
                  double* y) const {
    double sum[D];
#pragma GCC unroll 8
    for (int c = 0; c < D; ++c) sum[c] = 0.0;
    for (int j = 0; j < k; ++j) {
      const double* xj = x.elem(cols[j]);
      const double aj = a[j];
#pragma GCC unroll 8
      for (int c = 0; c < D; ++c) sum[c] += aj * xj[c];
    }
#pragma GCC unroll 8
    for (int c = 0; c < D; ++c) y[c] = sum[c];
  }
};

template <int D>
void spmv_dim(const StencilMatrix& m, op2::LoopChain* chain, const char* loop,
              op2::Dat<double>& in, op2::Dat<double>& out) {
  const SpmvKernel<D> kernel{m.width()};
  if (chain) {
    chain->add(loop, *m.rows, kernel, op2::read(*m.a), op2::row(*m.cols),
               op2::read_span(in, *m.cols), op2::write(out));
  } else {
    op2::par_loop(loop, *m.rows, kernel, op2::read(*m.a), op2::row(*m.cols),
                  op2::read_span(in, *m.cols), op2::write(out));
  }
}

constexpr std::array kSpmvByDim = {&spmv_dim<1>, &spmv_dim<2>, &spmv_dim<3>, &spmv_dim<4>,
                                   &spmv_dim<5>, &spmv_dim<6>, &spmv_dim<7>, &spmv_dim<8>};
static_assert(kSpmvByDim.size() == Solver::kMaxDim);

auto spmv_for_dim(int dim) {
  if (dim < 1 || dim > Solver::kMaxDim) {
    throw std::invalid_argument(
        vcgt::util::fmt("krylov: solver dim must be in 1..{} (got {})", Solver::kMaxDim, dim));
  }
  return kSpmvByDim[static_cast<std::size_t>(dim - 1)];
}

double aggregate_norm(const double* rr, int d) {
  double ss = 0.0;
  for (int c = 0; c < d; ++c) ss += rr[c];
  return std::sqrt(ss);
}

/// aggregate_norm() over the components no breakdown has stopped: the
/// norm the stopping test reads, so that a broken component, whose
/// residual no longer moves, does not hold the others to max_iters. With
/// none broken it is aggregate_norm() itself.
double live_norm(const double* rr, const std::vector<char>& broken) {
  double ss = 0.0;
  for (std::size_t c = 0; c < broken.size(); ++c) {
    if (!broken[c]) ss += rr[c];
  }
  return std::sqrt(ss);
}

SolveStatus finish_status(const std::vector<char>& broken, double rnorm, double tol) {
  if (std::find(broken.begin(), broken.end(), 1) != broken.end()) {
    return SolveStatus::Breakdown;
  }
  return rnorm <= tol ? SolveStatus::Converged : SolveStatus::MaxIters;
}

}  // namespace

StencilMatrix declare_stencil(op2::Context& ctx, op2::Set& rows, int width,
                              const std::string& name, const StencilFill& fill) {
  if (width < 1) throw std::invalid_argument("krylov: stencil width must be >= 1");
  const auto n = static_cast<std::size_t>(rows.global_size());
  const auto w = static_cast<std::size_t>(width);
  std::vector<op2::index_t> table(n * w);
  std::vector<double> coeffs(n * w, 0.0);
  for (std::size_t e = 0; e < n; ++e) {
    const auto row = static_cast<op2::index_t>(e);
    auto* cols = table.data() + e * w;
    for (std::size_t k = 0; k < w; ++k) cols[k] = row;  // pad = (self, 0.0)
    fill(row, std::span<op2::index_t>(cols, w), std::span<double>(coeffs.data() + e * w, w));
    if (cols[0] != row) {
      throw std::invalid_argument(vcgt::util::fmt(
          "krylov: stencil '{}' row {} slot 0 must be the diagonal (got {})", name, row,
          cols[0]));
    }
  }
  StencilMatrix m;
  m.rows = &rows;
  m.cols = &ctx.decl_map(name + "_cols", rows, rows, width, std::move(table));
  m.a = &ctx.decl_dat<double>(rows, width, name + "_a", std::move(coeffs));
  return m;
}

Solver::Solver(op2::Context& ctx, StencilMatrix m, int dim, std::string name)
    : ctx_(ctx),
      m_(m),
      d_(dim),
      spmv_(spmv_for_dim(dim)),
      name_(std::move(name)),
      pfx_(name_ + ":"),
      dots2_(ctx.decl_global<double>(pfx_ + "dots2", 2 * dim)),
      dot1_(ctx.decl_global<double>(pfx_ + "dot1", dim)),
      alpha_(ctx.decl_global<double>(pfx_ + "alpha", dim)),
      beta_(ctx.decl_global<double>(pfx_ + "beta", dim)) {
  op2::Set& rows = *m_.rows;
  auto decl = [&](const char* suffix) {
    return &ctx_.decl_dat<double>(rows, d_, pfx_ + suffix);
  };
  r_ = decl("r");
  z_ = decl("z");
  p_ = decl("p");
  q_ = decl("q");
  invdiag_ = &ctx_.decl_dat<double>(rows, 1, pfx_ + "invdiag");
}

// --- building-block loops ----------------------------------------------------

void Solver::spmv(const char* loop, op2::Dat<double>& in, op2::Dat<double>& out) {
  spmv_(m_, nullptr, loop, in, out);
}

/// dots2_[c] = u·v per component, dots2_[d+c] = v·v per component — one
/// loop, one collective. Each global component receives exactly one
/// increment per element, which is what makes the deterministic distributed
/// fold bit-identical to the serial one (see parloop.hpp's capture block).
void Solver::dot_pair(const char* loop, op2::Dat<double>& u, op2::Dat<double>& v) {
  const int d = d_;
  dots2_.set(0.0);
  op2::par_loop(loop, *m_.rows, [d](const double* uv, const double* vv, double* g) {
    for (int c = 0; c < d; ++c) {
      g[c] += uv[c] * vv[c];
      g[d + c] += vv[c] * vv[c];
    }
  }, op2::read(u), op2::read(v), op2::reduce_sum(dots2_));
}

void Solver::dot_single(const char* loop, op2::Dat<double>& u, op2::Dat<double>& v) {
  const int d = d_;
  dot1_.set(0.0);
  op2::par_loop(loop, *m_.rows, [d](const double* uv, const double* vv, double* g) {
    for (int c = 0; c < d; ++c) g[c] += uv[c] * vv[c];
  }, op2::read(u), op2::read(v), op2::reduce_sum(dot1_));
}

// --- Jacobi preconditioner --------------------------------------------------

/// invdiag = 1 / diag(A), rebuilt per solve so coefficient changes are
/// picked up. A zero diagonal entry gets 1, which leaves that row's
/// residual unscaled.
void Solver::prepare() {
  op2::par_loop((pfx_ + "jacobi_inv").c_str(), *m_.rows,
                [](const double* a, double* inv) {
                  inv[0] = a[0] != 0.0 ? 1.0 / a[0] : 1.0;
                },
                op2::read(*m_.a), op2::write(*invdiag_));
}

void Solver::apply_precond(op2::Dat<double>& in, op2::Dat<double>& out, const char* loop) {
  const int d = d_;
  op2::par_loop(loop, *m_.rows, [d](const double* inv, const double* rv, double* zv) {
    for (int c = 0; c < d; ++c) zv[c] = inv[0] * rv[c];
  }, op2::read(*invdiag_), op2::read(in), op2::write(out));
}

// --- CG ----------------------------------------------------------------------

SolveStats Solver::solve(op2::Dat<double>& x, op2::Dat<double>& b,
                         const SolveOptions& opts) {
  prepare();
  const int d = d_;
  SolveStats st;

  // r = b - A x (seed p with x so the one cached SpMV plan serves both the
  // initial residual and the iteration).
  op2::par_loop((pfx_ + "seed_p").c_str(), *m_.rows, [d](const double* xv, double* pv) {
    for (int c = 0; c < d; ++c) pv[c] = xv[c];
  }, op2::read(x), op2::write(*p_));
  spmv((pfx_ + "spmv_p").c_str(), *p_, *q_);
  op2::par_loop((pfx_ + "residual").c_str(), *m_.rows,
                [d](const double* bv, const double* qv, double* rv) {
                  for (int c = 0; c < d; ++c) rv[c] = bv[c] - qv[c];
                },
                op2::read(b), op2::read(*q_), op2::write(*r_));

  apply_precond(*r_, *z_, (pfx_ + "precond_z").c_str());

  // Zero p: the first direction update then runs the same xpay loop with
  // beta = 0, keeping every iteration's loop sequence identical (one cached
  // chain plan, uniform fold order).
  op2::par_loop((pfx_ + "zero_p").c_str(), *m_.rows, [d](double* pv) {
    for (int c = 0; c < d; ++c) pv[c] = 0.0;
  }, op2::write(*p_));
  beta_.set(0.0);

  dot_pair((pfx_ + "dot_rz_rr").c_str(), *z_, *r_);  // g[c]=z·r, g[d+c]=r·r
  std::vector<double> rz(dots2_.data(), dots2_.data() + d);
  st.rnorm0 = aggregate_norm(dots2_.data() + d, d);
  st.rnorm = st.rnorm0;
  st.history.push_back(st.rnorm0);
  const double tol = opts.rtol * st.rnorm0;

  if (!cg_iter_) {
    cg_iter_ = std::make_unique<op2::LoopChain>(ctx_, pfx_ + "iter");
    cg_iter_->add((pfx_ + "xpay").c_str(), *m_.rows,
                  [d](const double* zv, const double* bv, double* pv) {
                    for (int c = 0; c < d; ++c) pv[c] = zv[c] + bv[c] * pv[c];
                  },
                  op2::read(*z_), op2::read(beta_), op2::rw(*p_));
    spmv_(m_, cg_iter_.get(), (pfx_ + "spmv_p").c_str(), *p_, *q_);
  }
  // A broken component takes zero steps from then on; the others go on.
  std::vector<char> broken(static_cast<std::size_t>(d), 0);
  double live = st.rnorm;
  for (int it = 0; it < opts.max_iters && live > tol; ++it) {
    cg_iter_->execute();  // p = z + beta p ; q = A p

    dot_single((pfx_ + "dot_pq").c_str(), *p_, *q_);
    for (int c = 0; c < d; ++c) {
      // A component whose z·r is 0 has converged exactly: its zero step is
      // right. A zero p·q under a non-zero z·r is a breakdown.
      const auto cc = static_cast<std::size_t>(c);
      const double pq = dot1_.data()[c];
      if (pq == 0.0 && rz[cc] != 0.0) broken[cc] = 1;
      alpha_.data()[c] = (pq != 0.0 && !broken[cc]) ? rz[cc] / pq : 0.0;
    }

    op2::par_loop((pfx_ + "update_xr").c_str(), *m_.rows,
                  [d](const double* av, const double* pv, const double* qv, double* xv,
                      double* rv) {
                    for (int c = 0; c < d; ++c) {
                      xv[c] += av[c] * pv[c];
                      rv[c] -= av[c] * qv[c];
                    }
                  },
                  op2::read(alpha_), op2::read(*p_), op2::read(*q_), op2::rw(x),
                  op2::rw(*r_));

    apply_precond(*r_, *z_, (pfx_ + "precond_z").c_str());
    dot_pair((pfx_ + "dot_rz_rr").c_str(), *z_, *r_);
    for (int c = 0; c < d; ++c) {
      const double rz_new = dots2_.data()[c];
      const double rz_old = rz[static_cast<std::size_t>(c)];
      beta_.data()[c] = rz_old != 0.0 ? rz_new / rz_old : 0.0;
      rz[static_cast<std::size_t>(c)] = rz_new;
    }
    st.rnorm = aggregate_norm(dots2_.data() + d, d);
    live = live_norm(dots2_.data() + d, broken);
    st.history.push_back(st.rnorm);
    ++st.iters;
  }
  st.status = finish_status(broken, st.rnorm, tol);
  return st;
}

}  // namespace vcgt::krylov
