// vcgt::krylov implementation — single-reduction Jacobi-preconditioned CG
// over op2 par_loops.
#include "src/krylov/krylov.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "src/util/fmt.hpp"

namespace vcgt::krylov {

namespace {

/// out = A in for D components in one pass over the stencil row: each
/// column is resolved once (DatSpan::elem) and the D sums stay in
/// registers. Each sum starts at 0.0 and adds a[j] * in[c] in slot order,
/// the order of a component-by-component fold, so the row is bit-identical
/// to it. kDots is CG's iteration SpMV, w = A z: it also folds the dots
/// g[c] += z·r, g[D+c] += w·z and g[2D+c] += r·r, the row's own z being
/// the diagonal slot's column — one += per global component per row, the
/// shape the deterministic reduction folds bit-exactly.
template <int D, bool kDots>
struct SpmvKernel {
  int k;
  template <class... Dots>
  void operator()(const double* a, const op2::index_t* cols, op2::DatSpan<double> x,
                  double* y, Dots... dots) const {
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
    if constexpr (kDots) {
      const auto [r, g] = std::make_tuple(dots...);
      const double* z = x.elem(cols[0]);
#pragma GCC unroll 8
      for (int c = 0; c < D; ++c) {
        g[c] += z[c] * r[c];
        g[D + c] += sum[c] * z[c];
        g[2 * D + c] += r[c] * r[c];
      }
    }
  }
};

/// The plain SpMV, or (with `dots`) the iteration's, which also reads r.
template <int D>
void spmv_dim(const StencilMatrix& m, const char* loop, op2::Dat<double>& in,
              op2::Dat<double>& out, op2::Dat<double>* r, op2::Global<double>* dots) {
  const auto run = [&](auto kernel, auto... extra) {
    op2::par_loop(loop, *m.rows, kernel, op2::read(*m.a), op2::row(*m.cols),
                  op2::read_span(in, *m.cols), op2::write(out), extra...);
  };
  if (dots) {
    run(SpmvKernel<D, true>{m.width()}, op2::read(*r), op2::reduce_sum(*dots));
  } else {
    run(SpmvKernel<D, false>{m.width()});
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

/// sqrt of the sum of rr over the components `skip` does not mark. With
/// `broken` that is the norm the stopping test reads, so that a broken
/// component, whose residual no longer moves, does not hold the others to
/// max_iters.
double norm(const double* rr, const std::vector<char>& skip) {
  double ss = 0.0;
  for (std::size_t c = 0; c < skip.size(); ++c) {
    if (!skip[c]) ss += rr[c];
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
      spmv_dots_loop_(pfx_ + "spmv_dots"),
      dots_(ctx.decl_global<double>(pfx_ + "dots", 3 * dim)),
      alpha_(ctx.decl_global<double>(pfx_ + "alpha", dim)),
      beta_(ctx.decl_global<double>(pfx_ + "beta", dim)) {
  op2::Set& rows = *m_.rows;
  auto decl = [&](const char* suffix) {
    return &ctx_.decl_dat<double>(rows, d_, pfx_ + suffix);
  };
  x_ = decl("x");
  r_ = decl("r");
  z_ = decl("z");
  w_ = decl("w");
  p_ = decl("p");
  s_ = decl("s");
  invdiag_ = &ctx_.decl_dat<double>(rows, 1, pfx_ + "invdiag");
}

void Solver::spmv(const char* loop, op2::Dat<double>& in, op2::Dat<double>& out) {
  spmv_(m_, loop, in, out, nullptr, nullptr);
}

// --- single-reduction Jacobi-PCG ----------------------------------------------
//
// Chronopoulos–Gear: with z = D⁻¹r and w = A z, the iteration's three dots
// γ = z·r, δ = w·z and r·r come from one SpMV loop, and the step scalars
// follow from them by recurrence: β = γ/γ_old and α = γ/(δ − β·γ/α_old),
// whose denominator equals the classic p·A·p. s = A p is carried by the
// recurrence s = w + β s, so the update needs no second SpMV.

SolveStats Solver::solve(op2::Dat<double>& b, const SolveOptions& opts) {
  const int d = d_;
  SolveStats st;

  // Zero start: x = 0 makes r = b, with no SpMV. The Jacobi inverse is
  // rebuilt here, once per solve, so coefficient changes are picked up; a
  // zero diagonal entry gets 1, which leaves that row's residual unscaled.
  // p = s = 0, so the first update runs the same loop with beta = 0.
  op2::par_loop((pfx_ + "start").c_str(), *m_.rows,
                [d](const double* a, const double* bv, double* inv, double* xv, double* rv,
                    double* zv, double* pv, double* sv) {
                  inv[0] = a[0] != 0.0 ? 1.0 / a[0] : 1.0;
                  for (int c = 0; c < d; ++c) {
                    xv[c] = 0.0;
                    rv[c] = bv[c];
                    zv[c] = inv[0] * bv[c];
                    pv[c] = 0.0;
                    sv[c] = 0.0;
                  }
                },
                op2::read(*m_.a), op2::read(b), op2::write(*invdiag_), op2::write(*x_),
                op2::write(*r_), op2::write(*z_), op2::write(*p_), op2::write(*s_));
  dots_.set(0.0);
  spmv_(m_, spmv_dots_loop_.c_str(), *z_, *w_, r_, &dots_);
  const std::vector<char> all(static_cast<std::size_t>(d), 0);
  st.rnorm0 = norm(dots_.data() + 2 * d, all);
  st.rnorm = st.rnorm0;
  st.history.push_back(st.rnorm0);
  const double tol = opts.rtol * st.rnorm0;

  if (!update_) {
    update_ = std::make_unique<op2::LoopChain>(ctx_, pfx_ + "iter");
    update_->add((pfx_ + "update").c_str(), *m_.rows,
                 [d](const double* av, const double* bv, const double* inv, const double* wv,
                     double* pv, double* sv, double* xv, double* rv, double* zv) {
                   for (int c = 0; c < d; ++c) {
                     pv[c] = zv[c] + bv[c] * pv[c];
                     sv[c] = wv[c] + bv[c] * sv[c];
                     xv[c] += av[c] * pv[c];
                     rv[c] -= av[c] * sv[c];
                     zv[c] = inv[0] * rv[c];
                   }
                 },
                 op2::read(alpha_), op2::read(beta_), op2::read(*invdiag_), op2::read(*w_),
                 op2::rw(*p_), op2::rw(*s_), op2::rw(*x_), op2::rw(*r_), op2::rw(*z_));
  }
  // Per component: the previous γ (0 before the first step, which makes
  // β = 0) and α. A broken component takes zero steps from then on; the
  // others go on.
  std::vector<double> gamma_old(static_cast<std::size_t>(d), 0.0);
  std::vector<double> alpha_old(static_cast<std::size_t>(d), 0.0);
  std::vector<char> broken(static_cast<std::size_t>(d), 0);
  double live = st.rnorm;
  for (int it = 0; it < opts.max_iters && live > tol; ++it) {
    for (int c = 0; c < d; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      const double gamma = dots_.data()[c];
      const double delta = dots_.data()[d + c];
      // β ≠ 0 implies γ_old ≠ 0 and so α_old ≠ 0.
      const double beta = gamma_old[cc] != 0.0 && !broken[cc] ? gamma / gamma_old[cc] : 0.0;
      const double den = beta != 0.0 ? delta - beta * gamma / alpha_old[cc] : delta;
      // A component whose z·r is 0 has converged exactly: its zero step is
      // right. A zero p·A·p under a non-zero z·r is a breakdown.
      if (den == 0.0 && gamma != 0.0) broken[cc] = 1;
      const double alpha = den != 0.0 && !broken[cc] ? gamma / den : 0.0;
      beta_.data()[c] = broken[cc] ? 0.0 : beta;
      alpha_.data()[c] = alpha;
      gamma_old[cc] = gamma;
      alpha_old[cc] = alpha;
    }
    update_->execute();  // p, s, x, r, z
    dots_.set(0.0);
    spmv_(m_, spmv_dots_loop_.c_str(), *z_, *w_, r_, &dots_);  // w = A z; dots
    st.rnorm = norm(dots_.data() + 2 * d, all);
    live = norm(dots_.data() + 2 * d, broken);
    st.history.push_back(st.rnorm);
    ++st.iters;
  }
  st.status = finish_status(broken, st.rnorm, tol);
  return st;
}

}  // namespace vcgt::krylov
