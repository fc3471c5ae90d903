// vcgt::krylov implementation — CG / BiCGStab over op2 par_loops.
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
      dots3_(ctx.decl_global<double>(pfx_ + "dots3", 3 * dim)),
      dot1_(ctx.decl_global<double>(pfx_ + "dot1", dim)),
      alpha_(ctx.decl_global<double>(pfx_ + "alpha", dim)),
      beta_(ctx.decl_global<double>(pfx_ + "beta", dim)),
      omega_(ctx.decl_global<double>(pfx_ + "omega", dim)) {
  op2::Set& rows = *m_.rows;
  auto decl = [&](const char* suffix) {
    return &ctx_.decl_dat<double>(rows, d_, pfx_ + suffix);
  };
  r_ = decl("r");
  z_ = decl("z");
  p_ = decl("p");
  q_ = decl("q");
  r0_ = decl("r0");
  s_ = decl("s");
  t_ = decl("t");
  sh_ = decl("sh");
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

// --- preconditioners ---------------------------------------------------------

void Solver::prepare(Precond p) {
  if (p == Precond::Jacobi) {
    op2::par_loop((pfx_ + "jacobi_inv").c_str(), *m_.rows,
                  [](const double* a, double* inv) {
                    inv[0] = a[0] != 0.0 ? 1.0 / a[0] : 1.0;
                  },
                  op2::read(*m_.a), op2::write(*invdiag_));
    return;
  }
  if (p != Precond::BlockILU0) return;

  // Rank-local ILU(0) of the owned diagonal block: compress the ELL rows to
  // CSR (drop self-pads past slot 0 and halo columns), factorize in place
  // on the fixed pattern. Sequential by construction — the substitution
  // recurrences chain row to row — so it runs on host data via Dat::at().
  const op2::Set& rows = *m_.rows;
  const op2::Map& cols = *m_.cols;
  const op2::index_t n = rows.n_owned();
  const int k = m_.width();
  ilu_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  ilu_col_.clear();
  ilu_val_.clear();
  ilu_diag_.assign(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<op2::index_t, double>> row;
  for (op2::index_t i = 0; i < n; ++i) {
    row.clear();
    for (int slot = 0; slot < k; ++slot) {
      const op2::index_t j = cols(i, slot);
      if (j >= n) continue;                 // halo column: block-Jacobi truncation
      if (slot > 0 && j == i) continue;     // pad
      row.emplace_back(j, m_.a->at(i, slot));
    }
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [j, v] : row) {
      if (j == i) ilu_diag_[static_cast<std::size_t>(i)] = ilu_val_.size();
      ilu_col_.push_back(j);
      ilu_val_.push_back(v);
    }
    ilu_ptr_[static_cast<std::size_t>(i) + 1] = ilu_val_.size();
  }
  // IKJ factorization on the fixed pattern.
  for (op2::index_t i = 0; i < n; ++i) {
    const std::size_t lo = ilu_ptr_[static_cast<std::size_t>(i)];
    const std::size_t hi = ilu_ptr_[static_cast<std::size_t>(i) + 1];
    for (std::size_t kk = lo; kk < hi; ++kk) {
      const op2::index_t j = ilu_col_[kk];
      if (j >= i) break;  // columns ascend; only the strictly-lower part
      const double dj = ilu_val_[ilu_diag_[static_cast<std::size_t>(j)]];
      const double lij = dj != 0.0 ? ilu_val_[kk] / dj : 0.0;
      ilu_val_[kk] = lij;
      // Subtract lij * U(j, q) from A(i, q) wherever (i, q) is in pattern.
      const std::size_t jlo = ilu_diag_[static_cast<std::size_t>(j)] + 1;
      const std::size_t jhi = ilu_ptr_[static_cast<std::size_t>(j) + 1];
      for (std::size_t jq = jlo; jq < jhi; ++jq) {
        const op2::index_t qcol = ilu_col_[jq];
        for (std::size_t iq = kk + 1; iq < hi; ++iq) {
          if (ilu_col_[iq] == qcol) {
            ilu_val_[iq] -= lij * ilu_val_[jq];
            break;
          }
        }
      }
    }
  }
}

void Solver::apply_precond(Precond p, op2::Dat<double>& in, op2::Dat<double>& out,
                           const char* loop) {
  const int d = d_;
  if (p == Precond::None) {
    op2::par_loop(loop, *m_.rows, [d](const double* rv, double* zv) {
      for (int c = 0; c < d; ++c) zv[c] = rv[c];
    }, op2::read(in), op2::write(out));
    return;
  }
  if (p == Precond::Jacobi) {
    op2::par_loop(loop, *m_.rows, [d](const double* inv, const double* rv, double* zv) {
      for (int c = 0; c < d; ++c) zv[c] = inv[0] * rv[c];
    }, op2::read(*invdiag_), op2::read(in), op2::write(out));
    return;
  }
  // BlockILU0: forward/back substitution over the rank's owned rows,
  // per component. Host-side (sequential recurrence), hence at() +
  // mark_written — the same out-of-par_loop access pattern as hydra's
  // coupler exchange.
  const op2::index_t n = m_.rows->n_owned();
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int c = 0; c < d; ++c) {
    for (op2::index_t i = 0; i < n; ++i) {
      double v = in.at(i, c);
      const std::size_t lo = ilu_ptr_[static_cast<std::size_t>(i)];
      for (std::size_t kk = lo; ilu_col_[kk] < i; ++kk) {
        v -= ilu_val_[kk] * y[static_cast<std::size_t>(ilu_col_[kk])];
      }
      y[static_cast<std::size_t>(i)] = v;
    }
    for (op2::index_t i = n - 1; i >= 0; --i) {
      double v = y[static_cast<std::size_t>(i)];
      const std::size_t dg = ilu_diag_[static_cast<std::size_t>(i)];
      const std::size_t hi = ilu_ptr_[static_cast<std::size_t>(i) + 1];
      for (std::size_t kk = dg + 1; kk < hi; ++kk) {
        v -= ilu_val_[kk] * out.at(ilu_col_[kk], c);
      }
      const double dv = ilu_val_[dg];
      out.at(i, c) = dv != 0.0 ? v / dv : v;
    }
  }
  out.mark_written();
}

// --- drivers -----------------------------------------------------------------

SolveStats Solver::solve(op2::Dat<double>& x, op2::Dat<double>& b,
                         const SolveOptions& opts) {
  prepare(opts.precond);
  return opts.method == Method::CG ? run_cg(x, b, opts) : run_bicgstab(x, b, opts);
}

SolveStats Solver::run_cg(op2::Dat<double>& x, op2::Dat<double>& b,
                          const SolveOptions& opts) {
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

  apply_precond(opts.precond, *r_, *z_, (pfx_ + "precond_z").c_str());

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
  const double tol = std::max(opts.rtol * st.rnorm0, opts.atol);

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

    apply_precond(opts.precond, *r_, *z_, (pfx_ + "precond_z").c_str());
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

SolveStats Solver::run_bicgstab(op2::Dat<double>& x, op2::Dat<double>& b,
                                const SolveOptions& opts) {
  const int d = d_;
  SolveStats st;

  op2::par_loop((pfx_ + "seed_p").c_str(), *m_.rows, [d](const double* xv, double* pv) {
    for (int c = 0; c < d; ++c) pv[c] = xv[c];
  }, op2::read(x), op2::write(*p_));
  spmv((pfx_ + "spmv_p").c_str(), *p_, *q_);
  op2::par_loop((pfx_ + "residual").c_str(), *m_.rows,
                [d](const double* bv, const double* qv, double* rv) {
                  for (int c = 0; c < d; ++c) rv[c] = bv[c] - qv[c];
                },
                op2::read(b), op2::read(*q_), op2::write(*r_));
  // r0 = r; p = r.
  op2::par_loop((pfx_ + "seed_r0_p").c_str(), *m_.rows,
                [d](const double* rv, double* r0v, double* pv) {
                  for (int c = 0; c < d; ++c) {
                    r0v[c] = rv[c];
                    pv[c] = rv[c];
                  }
                },
                op2::read(*r_), op2::write(*r0_), op2::write(*p_));

  dot_pair((pfx_ + "dot_rho_rr").c_str(), *r0_, *r_);  // g[c]=r0·r, g[d+c]=r·r
  std::vector<double> rho(dots2_.data(), dots2_.data() + d);
  st.rnorm0 = aggregate_norm(dots2_.data() + d, d);
  st.rnorm = st.rnorm0;
  st.history.push_back(st.rnorm0);
  const double tol = std::max(opts.rtol * st.rnorm0, opts.atol);

  // A broken component takes zero steps from then on; the others go on.
  std::vector<char> broken(static_cast<std::size_t>(d), 0);
  double live = st.rnorm;
  for (int it = 0; it < opts.max_iters && live > tol; ++it) {
    apply_precond(opts.precond, *p_, *z_, (pfx_ + "precond_phat").c_str());
    spmv((pfx_ + "spmv_phat").c_str(), *z_, *q_);  // v = A phat

    dot_single((pfx_ + "dot_r0v").c_str(), *r0_, *q_);
    for (int c = 0; c < d; ++c) {
      // A zero r0·v under a non-zero r0·r is a breakdown; under a zero
      // r0·r (a converged or zero-RHS component) the zero step is right.
      const auto cc = static_cast<std::size_t>(c);
      const double sg = dot1_.data()[c];
      if (sg == 0.0 && rho[cc] != 0.0) broken[cc] = 1;
      alpha_.data()[c] = (sg != 0.0 && !broken[cc]) ? rho[cc] / sg : 0.0;
    }

    op2::par_loop((pfx_ + "calc_s").c_str(), *m_.rows,
                  [d](const double* av, const double* rv, const double* vv, double* sv) {
                    for (int c = 0; c < d; ++c) sv[c] = rv[c] - av[c] * vv[c];
                  },
                  op2::read(alpha_), op2::read(*r_), op2::read(*q_), op2::write(*s_));

    apply_precond(opts.precond, *s_, *sh_, (pfx_ + "precond_shat").c_str());
    spmv((pfx_ + "spmv_shat").c_str(), *sh_, *t_);

    // g[c]=s·t, g[d+c]=t·t, g[2d+c]=s·s
    dots3_.set(0.0);
    op2::par_loop((pfx_ + "dot_ts_tt_ss").c_str(), *m_.rows,
                  [d](const double* sv, const double* tv, double* g) {
                    for (int c = 0; c < d; ++c) {
                      g[c] += sv[c] * tv[c];
                      g[d + c] += tv[c] * tv[c];
                      g[2 * d + c] += sv[c] * sv[c];
                    }
                  },
                  op2::read(*s_), op2::read(*t_), op2::reduce_sum(dots3_));
    for (int c = 0; c < d; ++c) {
      // A zero t·t under a zero s (converged at the half step) is a zero
      // step; under a non-zero s it is a breakdown, which still keeps
      // this iteration's alpha half step.
      const auto cc = static_cast<std::size_t>(c);
      const double tt = dots3_.data()[d + c];
      if (tt == 0.0 && dots3_.data()[2 * d + c] != 0.0) broken[cc] = 1;
      omega_.data()[c] = (tt != 0.0 && !broken[cc]) ? dots3_.data()[c] / tt : 0.0;
    }

    op2::par_loop((pfx_ + "update_x").c_str(), *m_.rows,
                  [d](const double* av, const double* ov, const double* phv,
                      const double* shv, double* xv) {
                    for (int c = 0; c < d; ++c) {
                      xv[c] += av[c] * phv[c] + ov[c] * shv[c];
                    }
                  },
                  op2::read(alpha_), op2::read(omega_), op2::read(*z_), op2::read(*sh_),
                  op2::rw(x));
    op2::par_loop((pfx_ + "update_r").c_str(), *m_.rows,
                  [d](const double* ov, const double* sv, const double* tv, double* rv) {
                    for (int c = 0; c < d; ++c) rv[c] = sv[c] - ov[c] * tv[c];
                  },
                  op2::read(omega_), op2::read(*s_), op2::read(*t_), op2::write(*r_));

    dot_pair((pfx_ + "dot_rho_rr").c_str(), *r0_, *r_);
    for (int c = 0; c < d; ++c) {
      const double rho_new = dots2_.data()[c];
      const double rho_old = rho[static_cast<std::size_t>(c)];
      const double om = omega_.data()[c];
      beta_.data()[c] = (rho_old != 0.0 && om != 0.0)
                            ? (rho_new / rho_old) * (alpha_.data()[c] / om)
                            : 0.0;
      rho[static_cast<std::size_t>(c)] = rho_new;
    }
    op2::par_loop((pfx_ + "update_p").c_str(), *m_.rows,
                  [d](const double* bv, const double* ov, const double* rv,
                      const double* vv, double* pv) {
                    for (int c = 0; c < d; ++c) {
                      pv[c] = rv[c] + bv[c] * (pv[c] - ov[c] * vv[c]);
                    }
                  },
                  op2::read(beta_), op2::read(omega_), op2::read(*r_), op2::read(*q_),
                  op2::rw(*p_));

    st.rnorm = aggregate_norm(dots2_.data() + d, d);
    live = live_norm(dots2_.data() + d, broken);
    st.history.push_back(st.rnorm);
    ++st.iters;
  }
  st.status = finish_status(broken, st.rnorm, tol);
  return st;
}

}  // namespace vcgt::krylov
