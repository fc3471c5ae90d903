#include "src/hydra/solver.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "src/op2/io.hpp"
#include "src/util/log.hpp"
#include "src/util/trace.hpp"

namespace vcgt::hydra {

using op2::Access;
using op2::index_t;
using rig::BoundaryGroup;

namespace {
constexpr std::size_t kGroups = 4;
std::size_t gi(BoundaryGroup g) { return static_cast<std::size_t>(g); }
const char* group_tag(BoundaryGroup g) {
  switch (g) {
    case BoundaryGroup::Inlet: return "inlet";
    case BoundaryGroup::Outlet: return "outlet";
    case BoundaryGroup::Hub: return "hub";
    case BoundaryGroup::Casing: return "casing";
  }
  return "?";
}

/// Rusanov or Roe convective flux from two states and their primitives().
inline void upwind_flux(bool use_roe, double gamma, const double* ql, const double* priml,
                        const double* qr, const double* primr, const double* area,
                        double* f) {
  if (use_roe) {
    roe_flux(ql, priml, qr, primr, area, gamma, f);
  } else {
    rusanov_flux(ql, priml, qr, primr, area, f);
  }
}

/// Constants of the interior-face flux, captured by value.
struct FaceFluxCoeffs {
  double gamma, mu_l, cp, k_lam, pr_t, sa_sigma, cv1;
  bool use_roe;  ///< Roe or Rusanov: a runtime branch, it binds nothing extra
};

/// Interior-face flux: Rusanov or Roe convection (on MUSCL-reconstructed
/// states when kMuscl), SA upwind convection, and — when kViscous —
/// viscous stresses with SA eddy viscosity and SA diffusion, all in one
/// sweep: the canonical indirect-increment motif at Hydra's arithmetic
/// intensity. Each instantiation binds only what its terms read
/// (DESIGN.md §10). The arguments are the core ones, then either the two
/// cells' primitives (prim×2: first order, the `prim` member wrote them) or
/// the MUSCL ones (gradq×2, lim×2, cc×2, fcent: the reconstructed states'
/// primitives are computed here), then the viscous ones (gradp×2,
/// gradnut×2).
template <bool kMuscl, bool kViscous>
struct FaceFlux : FaceFluxCoeffs {
  template <class... Terms>
  void operator()(const double* ql, const double* qr, const double* nl, const double* nr_,
                  const double* area, double* rl, double* rr, double* sl, double* sr,
                  Terms... terms) const {
    constexpr std::size_t kV = kMuscl ? 7 : 2;  // first viscous term argument
    static_assert(sizeof...(Terms) == kV + (kViscous ? 4 : 0));
    const std::array<const double*, sizeof...(Terms)> t{terms...};
    double f[kNState];
    if constexpr (kMuscl) {
      const double* fc = t[6];
      auto reconstruct = [&](const double* q, const double* gq, const double* lm,
                             const double* cc, double* out, double* prim) {
        const double dx = fc[0] - cc[0], dy = fc[1] - cc[1], dz = fc[2] - cc[2];
        for (int s = 0; s < kNState; ++s) {
          out[s] = q[s] + lm[s] * (gq[s * 3] * dx + gq[s * 3 + 1] * dy + gq[s * 3 + 2] * dz);
        }
        // Positivity guard: fall back to first order on bad states.
        if (out[0] < 0.05 * q[0] || pressure(out, gamma) <= 0.0) {
          for (int s = 0; s < kNState; ++s) out[s] = q[s];
        }
        primitives(out, gamma, prim);
      };
      double qL[kNState], qR[kNState], pL[kNPrim], pR[kNPrim];
      reconstruct(ql, t[0], t[2], t[4], qL, pL);
      reconstruct(qr, t[1], t[3], t[5], qR, pR);
      upwind_flux(use_roe, gamma, qL, pL, qR, pR, area, f);
    } else {
      upwind_flux(use_roe, gamma, ql, t[0], qr, t[1], area, f);
    }
    for (int s = 0; s < kNState; ++s) {
      rl[s] -= f[s];
      rr[s] += f[s];
    }
    // SA convection, upwinded on the face-average volume flux.
    const double unl = (ql[1] * area[0] + ql[2] * area[1] + ql[3] * area[2]) / ql[0];
    const double unr = (qr[1] * area[0] + qr[2] * area[1] + qr[3] * area[2]) / qr[0];
    const double un = 0.5 * (unl + unr);
    const double fsa = un > 0 ? un * *nl : un * *nr_;
    *sl -= fsa;
    *sr += fsa;

    if constexpr (kViscous) {
      const double *gpl = t[kV], *gpr = t[kV + 1], *gnl = t[kV + 2], *gnr = t[kV + 3];
      const double rho = 0.5 * (ql[0] + qr[0]);
      const double nu_l = mu_l / rho;
      const double nut_f = 0.5 * (*nl + *nr_);
      const double mu_t = rho * nut_f * sa_fv1(nut_f / nu_l, cv1);
      const double mu = mu_l + mu_t;
      // Averaged primitive gradients: rows u, v, w, T.
      double g[4][3];
      for (int v = 0; v < 4; ++v) {
        for (int d = 0; d < 3; ++d) g[v][d] = 0.5 * (gpl[v * 3 + d] + gpr[v * 3 + d]);
      }
      const double div = g[0][0] + g[1][1] + g[2][2];
      double fm[3];
      for (int i = 0; i < 3; ++i) {
        fm[i] = 0.0;
        for (int j = 0; j < 3; ++j) {
          double tau = mu * (g[i][j] + g[j][i]);
          if (i == j) tau -= (2.0 / 3.0) * mu * div;
          fm[i] += tau * area[j];
        }
      }
      // Face velocity: from the cells' primitives where they are bound.
      double uf[3];
      for (int i = 0; i < 3; ++i) {
        if constexpr (kMuscl) {
          uf[i] = 0.5 * (ql[1 + i] / ql[0] + qr[1 + i] / qr[0]);
        } else {
          uf[i] = 0.5 * (t[0][i] + t[1][i]);
        }
      }
      const double k_eff = k_lam + cp * mu_t / pr_t;
      double fe = k_eff * (g[3][0] * area[0] + g[3][1] * area[1] + g[3][2] * area[2]);
      for (int i = 0; i < 3; ++i) fe += uf[i] * fm[i];
      for (int i = 0; i < 3; ++i) {
        rl[1 + i] += fm[i];
        rr[1 + i] -= fm[i];
      }
      rl[4] += fe;
      rr[4] -= fe;
      // SA diffusion: (nu + nu_tilde)/sigma * grad(nu_tilde) . A.
      const double dn = ((nu_l + nut_f) / sa_sigma) *
                        (0.5 * (gnl[0] + gnr[0]) * area[0] + 0.5 * (gnl[1] + gnr[1]) * area[1] +
                         0.5 * (gnl[2] + gnr[2]) * area[2]);
      *sl += dn;
      *sr -= dn;
    }
  }
};

/// Adds a chain member whose arguments arrive as a tuple, so a caller can
/// assemble them from the terms its configuration reads.
template <class Kernel, class Args>
void add_member(op2::LoopChain& chain, const std::string& name, const op2::Set& set,
                Kernel kernel, const Args& args) {
  std::apply([&](const auto&... a) { chain.add(name.c_str(), set, kernel, a...); }, args);
}

/// Interior-face wavespeed: each side's convective spectral radius λ into
/// its cell's ws. When kImplicit, also the face's off-diagonal Jacobian
/// coefficient −½·(½(λl+λr)), written straight into the two stencil slots
/// the face owns (fslot: the slot in cell l's row, then in cell r's row).
/// The coefficient is symmetric and λ reads the area only through |u·A|
/// and |A|, so both rows get the bits an assembly per slot with that row's
/// outward area would compute. The arguments are q×2, the face's area
/// vector and ws×2, then (kImplicit) fslot and the coefficient dat×2.
template <bool kImplicit>
struct WsFace {
  double gamma;
  template <class... Implicit>
  void operator()(const double* ql, const double* qr, const double* area, double* wl,
                  double* wr, Implicit... implicit) const {
    static_assert(sizeof...(Implicit) == (kImplicit ? 3 : 0));
    const double amag = area_norm(area);
    const double ll = face_wavespeed(ql, sound_speed(ql, gamma), area, amag);
    const double lr = face_wavespeed(qr, sound_speed(qr, gamma), area, amag);
    *wl += ll;
    *wr += lr;
    if constexpr (kImplicit) {
      const auto [slot, al, ar] = std::make_tuple(implicit...);
      const double off = -0.5 * (0.5 * (ll + lr));
      al[slot[0]] = off;
      ar[slot[1]] = off;
    }
  }
};
}  // namespace

RowSolver::RowSolver(op2::Context& ctx, const rig::AnnulusMesh& mesh,
                     const rig::RowSpec& row, double omega, const FlowConfig& cfg)
    : ctx_(ctx), row_(row), cfg_(cfg), omega_(omega), pfx_(row.name + ":"),
      rk_alpha_(ctx.decl_global<double>(pfx_ + "rk_alpha", 1)),
      frame_angle_(ctx.decl_global<double>(pfx_ + "frame_angle", 1)) {
  declare(mesh, nullptr);
}

RowSolver::RowSolver(op2::Context& ctx, const rig::RowShard& shard,
                     const rig::RowSpec& row, double omega, const FlowConfig& cfg)
    : ctx_(ctx), row_(row), cfg_(cfg), omega_(omega), pfx_(row.name + ":"),
      rk_alpha_(ctx.decl_global<double>(pfx_ + "rk_alpha", 1)),
      frame_angle_(ctx.decl_global<double>(pfx_ + "frame_angle", 1)) {
  declare(shard.local, &shard);
}

void RowSolver::set_coupled(rig::BoundaryGroup group, bool coupled) {
  if (group != BoundaryGroup::Inlet && group != BoundaryGroup::Outlet) {
    throw std::invalid_argument("RowSolver::set_coupled: only Inlet/Outlet can couple");
  }
  if (step_) {
    throw std::logic_error("RowSolver::set_coupled: the step chain of row '" + row_.name +
                           "' is already declared; call set_coupled before initialize()");
  }
  coupled_[gi(group)] = coupled;
}

op2::Dat<double>& RowSolver::ghost(rig::BoundaryGroup g) {
  auto* d = ghost_[gi(g)];
  if (!d) throw std::logic_error("RowSolver::ghost: group has no ghost dat");
  return *d;
}

void RowSolver::declare(const rig::AnnulusMesh& mesh, const rig::RowShard* shard) {
  // In sharded mode `mesh` is the shard-local view (shard->local): its
  // arrays hold only this rank's rows and its map tables hold shard-local
  // cell rows, exactly what decl_map expects after decl_set_sharded. The
  // geometry/BC code below is identical in both modes because every loop
  // here runs over whichever rows the mesh view carries.
  if (shard) {
    if (cfg_.sort_faces) {
      throw std::logic_error(
          "RowSolver: sort_faces requires the full face table on every rank "
          "and is not supported with sharded setup (row '" + row_.name + "')");
    }
    if (cfg_.implicit_dual_time) {
      throw std::logic_error(
          "RowSolver: implicit_dual_time builds a whole-mesh Krylov stencil "
          "and is not supported with sharded setup (row '" + row_.name + "')");
    }
  }
  ncell_global_ = shard ? shard->ncell_global : mesh.ncell;
  cells_ = shard ? &ctx_.decl_set_sharded(pfx_ + "cells", shard->ncell_global,
                                          shard->cell_gids)
                 : &ctx_.decl_set(pfx_ + "cells", mesh.ncell);
  faces_ = shard ? &ctx_.decl_set_sharded(pfx_ + "faces", shard->nface_global,
                                          shard->face_gids)
                 : &ctx_.decl_set(pfx_ + "faces", mesh.nface);

  f2c_ = &ctx_.decl_map(pfx_ + "f2c", *faces_, *cells_, 2, mesh.face2cell);

  cc_ = &ctx_.decl_dat<double>(*cells_, 3, pfx_ + "cc", mesh.cell_center);
  vol_ = &ctx_.decl_dat<double>(*cells_, 1, pfx_ + "vol", mesh.cell_vol);
  rtheta_ = &ctx_.decl_dat<double>(*cells_, 2, pfx_ + "rtheta", mesh.cell_rtheta);

  // Wall distance for the SA closure: annulus passage -> analytic distance
  // to the local hub/casing (the paper's meshes carry precomputed wall
  // distance too).
  std::vector<double> wd(static_cast<std::size_t>(mesh.ncell));
  for (index_t c = 0; c < mesh.ncell; ++c) {
    const double r = mesh.cell_rtheta[static_cast<std::size_t>(c) * 2];
    const double x = mesh.cell_center[static_cast<std::size_t>(c) * 3];
    wd[static_cast<std::size_t>(c)] =
        std::max(1e-6, std::min(r - row_.hub_at(x), row_.casing_at(x) - r));
  }
  wdist_ = &ctx_.decl_dat<double>(*cells_, 1, pfx_ + "wdist", std::move(wd));

  // The circumferential unit vector (-sin theta, cos theta) the blade force
  // and shaft power project momentum on: fixed geometry, evaluated once.
  if (row_.nblades > 0) {
    std::vector<double> et(static_cast<std::size_t>(mesh.ncell) * 2);
    for (std::size_t c = 0; c < static_cast<std::size_t>(mesh.ncell); ++c) {
      const double th = mesh.cell_rtheta[c * 2 + 1];
      et[c * 2] = -std::sin(th);
      et[c * 2 + 1] = std::cos(th);
    }
    etheta_ = &ctx_.decl_dat<double>(*cells_, 2, pfx_ + "etheta", std::move(et));
  }

  q_ = &ctx_.decl_dat<double>(*cells_, kNState, pfx_ + "q");
  q0_ = &ctx_.decl_dat<double>(*cells_, kNState, pfx_ + "q0");
  qold_ = &ctx_.decl_dat<double>(*cells_, kNState, pfx_ + "qold");
  qold2_ = &ctx_.decl_dat<double>(*cells_, kNState, pfx_ + "qold2");
  res_ = &ctx_.decl_dat<double>(*cells_, kNState, pfx_ + "res");
  if (!cfg_.second_order) prim_ = &ctx_.decl_dat<double>(*cells_, kNPrim, pfx_ + "prim");
  ws_ = &ctx_.decl_dat<double>(*cells_, 1, pfx_ + "ws");
  dtl_ = &ctx_.decl_dat<double>(*cells_, 1, pfx_ + "dtl");
  nut_ = &ctx_.decl_dat<double>(*cells_, 1, pfx_ + "nut");
  nut0_ = &ctx_.decl_dat<double>(*cells_, 1, pfx_ + "nut0");
  nut_res_ = &ctx_.decl_dat<double>(*cells_, 1, pfx_ + "nut_res");

  gradq_ = &ctx_.decl_dat<double>(*cells_, kNState * 3, pfx_ + "gradq");
  gradp_ = &ctx_.decl_dat<double>(*cells_, 4 * 3, pfx_ + "gradp");
  gradnut_ = &ctx_.decl_dat<double>(*cells_, 3, pfx_ + "gradnut");
  qmin_ = &ctx_.decl_dat<double>(*cells_, kNState, pfx_ + "qmin");
  qmax_ = &ctx_.decl_dat<double>(*cells_, kNState, pfx_ + "qmax");
  lim_ = &ctx_.decl_dat<double>(*cells_, kNState, pfx_ + "lim");

  fnorm_ = &ctx_.decl_dat<double>(*faces_, 3, pfx_ + "fnorm", mesh.face_normal);
  fcent_ = &ctx_.decl_dat<double>(*faces_, 3, pfx_ + "fcent", mesh.face_center);

  if (cfg_.implicit_dual_time) {
    // Cell-neighbor stencil from the interior face graph: slot 0 the
    // diagonal, slots 1.. the face neighbors in face order. Each face
    // records its slot in both rows (fslot, declared before the faces may
    // be renumbered below). Unused slots stay (self, −0.0) pads: the
    // coefficient a zero-area face would get.
    const auto nc = static_cast<std::size_t>(mesh.ncell);
    std::vector<std::vector<index_t>> adj(nc);
    std::vector<int> fslot(static_cast<std::size_t>(mesh.nface) * 2);
    for (std::size_t e = 0; e < fslot.size(); e += 2) {
      const index_t cl = mesh.face2cell[e];
      const index_t cr = mesh.face2cell[e + 1];
      auto& nl = adj[static_cast<std::size_t>(cl)];
      auto& nr = adj[static_cast<std::size_t>(cr)];
      fslot[e] = 1 + static_cast<int>(nl.size());
      fslot[e + 1] = 1 + static_cast<int>(nr.size());
      nl.push_back(cr);
      nr.push_back(cl);
    }
    std::size_t deg = 0;
    for (const auto& row : adj) deg = std::max(deg, row.size());
    const int width = 1 + static_cast<int>(deg);

    imat_ = krylov::declare_stencil(
        ctx_, *cells_, width, pfx_ + "imat",
        [&adj](index_t row, std::span<index_t> cols, std::span<double> a) {
          const auto& nb = adj[static_cast<std::size_t>(row)];
          for (std::size_t j = 0; j < nb.size(); ++j) cols[1 + j] = nb[j];
          for (std::size_t k = 1 + nb.size(); k < a.size(); ++k) a[k] = -0.0;
        });
    fslot_ = &ctx_.decl_dat<int>(*faces_, 2, pfx_ + "fslot", std::move(fslot));
    ksolver_ = std::make_unique<krylov::Solver>(ctx_, imat_, kNState, pfx_ + "ksolve");
  }

  if (cfg_.sort_faces) {
    // Interior faces carry only f2c/fnorm/fcent (and fslot), all declared
    // above, so the renumbering rewrites everything that references the set.
    const index_t nf = mesh.nface;
    std::vector<index_t> order(static_cast<std::size_t>(nf));
    std::iota(order.begin(), order.end(), index_t{0});
    const auto key = [&](index_t f) {
      return std::max(mesh.face2cell[static_cast<std::size_t>(f) * 2],
                      mesh.face2cell[static_cast<std::size_t>(f) * 2 + 1]);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](index_t a, index_t b) { return key(a) < key(b); });
    std::vector<index_t> perm(static_cast<std::size_t>(nf));
    for (index_t k = 0; k < nf; ++k) {
      perm[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] = k;
    }
    ctx_.renumber_set(*faces_, perm);
  }

  // Boundary groups as separate sets (group-specific kernels iterate their
  // own set, the unstructured-FV idiom OP2-Hydra uses for BC loops).
  for (std::size_t g = 0; g < kGroups; ++g) {
    const auto group = static_cast<BoundaryGroup>(g);
    const index_t begin = mesh.group_begin[g];
    const index_t end = mesh.group_end[g];
    const index_t n = end - begin;
    auto& set = shard ? ctx_.decl_set_sharded(pfx_ + std::string(group_tag(group)),
                                              shard->nbface_global[g], shard->bface_gids[g])
                      : ctx_.decl_set(pfx_ + std::string(group_tag(group)), n);
    bsets_[g] = &set;

    std::vector<index_t> b2c(static_cast<std::size_t>(n));
    std::vector<double> norm(static_cast<std::size_t>(n) * 3);
    for (index_t b = 0; b < n; ++b) {
      b2c[static_cast<std::size_t>(b)] = mesh.bface2cell[static_cast<std::size_t>(begin + b)];
      for (int d = 0; d < 3; ++d) {
        norm[static_cast<std::size_t>(b) * 3 + static_cast<std::size_t>(d)] =
            mesh.bface_normal[static_cast<std::size_t>(begin + b) * 3 +
                              static_cast<std::size_t>(d)];
      }
    }
    b2c_[g] = &ctx_.decl_map(pfx_ + std::string(group_tag(group)) + "_b2c", set, *cells_, 1,
                             std::move(b2c));
    bnorm_[g] = &ctx_.decl_dat<double>(set, 3, pfx_ + std::string(group_tag(group)) + "_norm",
                                       std::move(norm));
    if (group == BoundaryGroup::Inlet || group == BoundaryGroup::Outlet) {
      ghost_[g] = &ctx_.decl_dat<double>(set, kPayload,
                                         pfx_ + std::string(group_tag(group)) + "_ghost");
    }
  }
}

void RowSolver::initialize() {
  // Full re-initialization contract (warm session reuse): clock and CFL-ramp
  // state restart along with the flow field, so a second run on a recycled
  // solver is indistinguishable from a fresh construction.
  time_ = 0.0;
  inner_count_ = 0;
  const double rho = cfg_.rho_in, u = cfg_.u_axial_in, E = cfg_.energy_in();
  const double nut_in = cfg_.sa_nut_in;

  op2::par_loop((pfx_ + "init_flow").c_str(), *cells_,
                [rho, u, E, nut_in](double* q, double* q0, double* qo, double* qo2,
                                    double* nut) {
                  q[0] = rho;
                  q[1] = rho * u;
                  q[2] = 0.0;
                  q[3] = 0.0;
                  q[4] = E;
                  for (int s = 0; s < kNState; ++s) {
                    q0[s] = q[s];
                    qo[s] = q[s];
                    qo2[s] = q[s];
                  }
                  *nut = nut_in;
                },
                op2::write(*q_), op2::write(*q0_),
                op2::write(*qold_), op2::write(*qold2_),
                op2::write(*nut_));

  for (const auto group : {BoundaryGroup::Inlet, BoundaryGroup::Outlet}) {
    op2::par_loop((pfx_ + group_tag(group) + "_ghost_init").c_str(), *bsets_[gi(group)],
                  [rho, u, E, nut_in](double* gh) {
                    gh[0] = rho;
                    gh[1] = rho * u;
                    gh[2] = 0.0;
                    gh[3] = 0.0;
                    gh[4] = E;
                    gh[5] = nut_in;
                  },
                  op2::write(*ghost_[gi(group)]));
  }

  if (step_) return;
  // The step chain, declared once and executed every RK stage (or implicit
  // residual evaluation): the residual loops, then the RK update. Values
  // that change between executions reach the kernels as read globals.
  step_ = std::make_unique<op2::LoopChain>(ctx_, pfx_ + "step");
  declare_residual(*step_);
  if (cfg_.implicit_dual_time) return;
  step_->add((pfx_ + "rk_update").c_str(), *cells_,
             [](const double* q0, const double* r, const double* vol, const double* dt,
                const double* alpha, double* q, const double* nut0, const double* sr,
                double* nut) {
               const double scale = *alpha * *dt / *vol;
               for (int s = 0; s < kNState; ++s) q[s] = q0[s] + scale * r[s];
               // Keep density/energy physical on transients.
               if (q[0] < 1e-3) q[0] = 1e-3;
               *nut = std::max(0.0, *nut0 + scale * *sr);
             },
             op2::read(*q0_), op2::read(*res_), op2::read(*vol_), op2::read(*dtl_),
             op2::read(rk_alpha_), op2::write(*q_), op2::read(*nut0_),
             op2::read(*nut_res_), op2::write(*nut_));
}

void RowSolver::execute_step() {
  if (!step_) throw std::logic_error("RowSolver: initialize() before iterating");
  frame_angle_.set(row_.rotor ? omega_ * time_ : 0.0);
  step_->execute();
}

void RowSolver::declare_residual(op2::LoopChain& chain) {
  const double gamma = cfg_.gamma;

  chain.add((pfx_ + "zero_res").c_str(), *cells_,
       [](double* r, double* nr) {
         for (int s = 0; s < kNState; ++s) r[s] = 0.0;
         *nr = 0.0;
       },
       op2::write(*res_), op2::write(*nut_res_));

  // --- gradients (Green-Gauss), limiter ------------------------------------
  const bool need_grad = cfg_.second_order || cfg_.viscous;
  if (need_grad) {
    const double gas_r = cfg_.gas_constant;
    chain.add((pfx_ + "grad_init").c_str(), *cells_,
                  [](const double* q, double* gq, double* gp, double* gn, double* mn,
                     double* mx, double* lm) {
                    for (int i = 0; i < kNState * 3; ++i) gq[i] = 0.0;
                    for (int i = 0; i < 12; ++i) gp[i] = 0.0;
                    for (int i = 0; i < 3; ++i) gn[i] = 0.0;
                    for (int s = 0; s < kNState; ++s) {
                      mn[s] = q[s];
                      mx[s] = q[s];
                      lm[s] = 1.0;
                    }
                  },
                  op2::read(*q_), op2::write(*gradq_),
                  op2::write(*gradp_), op2::write(*gradnut_),
                  op2::write(*qmin_), op2::write(*qmax_),
                  op2::write(*lim_));

    // Per-face Green-Gauss accumulation (conservative, primitive and SA
    // gradients in one sweep) with neighborhood min/max for the limiter.
    chain.add((pfx_ + "grad_face").c_str(), *faces_,
        [gamma, gas_r](const double* ql, const double* qr, const double* nl,
                       const double* nr_, const double* area, double* gql, double* gqr,
                       double* gpl, double* gpr, double* gnl, double* gnr, double* mnl,
                       double* mnr, double* mxl, double* mxr) {
          double qf[kNState], pf[4];
          for (int s = 0; s < kNState; ++s) qf[s] = 0.5 * (ql[s] + qr[s]);
          auto prim = [&](const double* q, double* p) {
            p[0] = q[1] / q[0];
            p[1] = q[2] / q[0];
            p[2] = q[3] / q[0];
            p[3] = pressure(q, gamma) / (q[0] * gas_r);
          };
          double pl[4], pr[4];
          prim(ql, pl);
          prim(qr, pr);
          for (int v = 0; v < 4; ++v) pf[v] = 0.5 * (pl[v] + pr[v]);
          const double nf = 0.5 * (*nl + *nr_);
          for (int d = 0; d < 3; ++d) {
            for (int s = 0; s < kNState; ++s) {
              gql[s * 3 + d] += qf[s] * area[d];
              gqr[s * 3 + d] -= qf[s] * area[d];
            }
            for (int v = 0; v < 4; ++v) {
              gpl[v * 3 + d] += pf[v] * area[d];
              gpr[v * 3 + d] -= pf[v] * area[d];
            }
            gnl[d] += nf * area[d];
            gnr[d] -= nf * area[d];
          }
          for (int s = 0; s < kNState; ++s) {
            if (qr[s] < mnl[s]) mnl[s] = qr[s];
            if (qr[s] > mxl[s]) mxl[s] = qr[s];
            if (ql[s] < mnr[s]) mnr[s] = ql[s];
            if (ql[s] > mxr[s]) mxr[s] = ql[s];
          }
        },
        op2::read(*q_, *f2c_, 0), op2::read(*q_, *f2c_, 1),
        op2::read(*nut_, *f2c_, 0), op2::read(*nut_, *f2c_, 1),
        op2::read(*fnorm_), op2::inc(*gradq_, *f2c_, 0),
        op2::inc(*gradq_, *f2c_, 1), op2::inc(*gradp_, *f2c_, 0),
        op2::inc(*gradp_, *f2c_, 1), op2::inc(*gradnut_, *f2c_, 0),
        op2::inc(*gradnut_, *f2c_, 1), op2::inc(*qmin_, *f2c_, 0),
        op2::inc(*qmin_, *f2c_, 1), op2::inc(*qmax_, *f2c_, 0),
        op2::inc(*qmax_, *f2c_, 1));

    // Boundary closure of the Green-Gauss integral: cell value on walls
    // (zero normal gradient), ghost average on inlet/outlet.
    for (const auto group : {BoundaryGroup::Inlet, BoundaryGroup::Outlet}) {
      chain.add((pfx_ + group_tag(group) + "_grad").c_str(), *bsets_[gi(group)],
          [gamma, gas_r](const double* q, const double* nut, const double* gh,
                         const double* area, double* gq, double* gp, double* gn) {
            for (int d = 0; d < 3; ++d) {
              for (int s = 0; s < kNState; ++s) {
                gq[s * 3 + d] += 0.5 * (q[s] + gh[s]) * area[d];
              }
              const double u = 0.5 * (q[1] / q[0] + gh[1] / gh[0]);
              const double v = 0.5 * (q[2] / q[0] + gh[2] / gh[0]);
              const double w = 0.5 * (q[3] / q[0] + gh[3] / gh[0]);
              const double t = 0.5 * (pressure(q, gamma) / (q[0] * gas_r) +
                                      pressure(gh, gamma) / (gh[0] * gas_r));
              gp[0 * 3 + d] += u * area[d];
              gp[1 * 3 + d] += v * area[d];
              gp[2 * 3 + d] += w * area[d];
              gp[3 * 3 + d] += t * area[d];
              gn[d] += 0.5 * (*nut + gh[kNState]) * area[d];
            }
          },
          op2::read(*q_, *b2c_[gi(group)], 0),
          op2::read(*nut_, *b2c_[gi(group)], 0),
          op2::read(*ghost_[gi(group)]),
          op2::read(*bnorm_[gi(group)]),
          op2::inc(*gradq_, *b2c_[gi(group)], 0),
          op2::inc(*gradp_, *b2c_[gi(group)], 0),
          op2::inc(*gradnut_, *b2c_[gi(group)], 0));
    }
    for (const auto group : {BoundaryGroup::Hub, BoundaryGroup::Casing}) {
      chain.add((pfx_ + group_tag(group) + "_grad").c_str(), *bsets_[gi(group)],
          [gamma, gas_r](const double* q, const double* nut, const double* area,
                         double* gq, double* gp, double* gn) {
            for (int d = 0; d < 3; ++d) {
              for (int s = 0; s < kNState; ++s) gq[s * 3 + d] += q[s] * area[d];
              gp[0 * 3 + d] += q[1] / q[0] * area[d];
              gp[1 * 3 + d] += q[2] / q[0] * area[d];
              gp[2 * 3 + d] += q[3] / q[0] * area[d];
              gp[3 * 3 + d] += pressure(q, gamma) / (q[0] * gas_r) * area[d];
              gn[d] += *nut * area[d];
            }
          },
          op2::read(*q_, *b2c_[gi(group)], 0),
          op2::read(*nut_, *b2c_[gi(group)], 0),
          op2::read(*bnorm_[gi(group)]),
          op2::inc(*gradq_, *b2c_[gi(group)], 0),
          op2::inc(*gradp_, *b2c_[gi(group)], 0),
          op2::inc(*gradnut_, *b2c_[gi(group)], 0));
    }

    chain.add((pfx_ + "grad_scale").c_str(), *cells_,
                  [](const double* vol, double* gq, double* gp, double* gn) {
                    const double inv = 1.0 / *vol;
                    for (int i = 0; i < kNState * 3; ++i) gq[i] *= inv;
                    for (int i = 0; i < 12; ++i) gp[i] *= inv;
                    for (int i = 0; i < 3; ++i) gn[i] *= inv;
                  },
                  op2::read(*vol_), op2::rw(*gradq_),
                  op2::rw(*gradp_),
                  op2::rw(*gradnut_));

    if (cfg_.second_order) {
      // Barth-Jespersen: per cell, per variable, the most restrictive face.
      chain.add((pfx_ + "limiter_face").c_str(), *faces_,
          [](const double* ql, const double* qr, const double* gql, const double* gqr,
             const double* ccl, const double* ccr, const double* fc, const double* mnl,
             const double* mnr, const double* mxl, const double* mxr, double* lml,
             double* lmr) {
            auto side = [&](const double* q, const double* gq, const double* cc,
                            const double* mn, const double* mx, double* lm) {
              const double dx = fc[0] - cc[0], dy = fc[1] - cc[1], dz = fc[2] - cc[2];
              for (int s = 0; s < kNState; ++s) {
                const double d2 =
                    gq[s * 3] * dx + gq[s * 3 + 1] * dy + gq[s * 3 + 2] * dz;
                if (d2 > 1e-14) {
                  const double r = (mx[s] - q[s]) / d2;
                  if (r < lm[s]) lm[s] = r < 0 ? 0.0 : r;
                } else if (d2 < -1e-14) {
                  const double r = (mn[s] - q[s]) / d2;
                  if (r < lm[s]) lm[s] = r < 0 ? 0.0 : r;
                }
              }
            };
            side(ql, gql, ccl, mnl, mxl, lml);
            side(qr, gqr, ccr, mnr, mxr, lmr);
          },
          op2::read(*q_, *f2c_, 0), op2::read(*q_, *f2c_, 1),
          op2::read(*gradq_, *f2c_, 0),
          op2::read(*gradq_, *f2c_, 1),
          op2::read(*cc_, *f2c_, 0), op2::read(*cc_, *f2c_, 1),
          op2::read(*fcent_), op2::read(*qmin_, *f2c_, 0),
          op2::read(*qmin_, *f2c_, 1), op2::read(*qmax_, *f2c_, 0),
          op2::read(*qmax_, *f2c_, 1), op2::inc(*lim_, *f2c_, 0),
          op2::inc(*lim_, *f2c_, 1));
    }
  }

  // --- interior face fluxes (FaceFlux above) ----------------------------------
  // First order: the cells' primitives, once per cell instead of once per
  // face side.
  if (!cfg_.second_order) {
    chain.add((pfx_ + "prim").c_str(), *cells_,
              [gamma](const double* q, double* prim) { primitives(q, gamma, prim); },
              op2::read(*q_), op2::write(*prim_));
  }
  {
    const std::string name = pfx_ + "flux_face";
    const double cp = cfg_.cp();
    const FaceFluxCoeffs c{gamma,
                           cfg_.mu_laminar,
                           cp,
                           cp * cfg_.mu_laminar / cfg_.prandtl,
                           cfg_.prandtl_turb,
                           cfg_.sa_sigma,
                           cfg_.sa_cv1,
                           cfg_.flux_scheme == FlowConfig::FluxScheme::Roe};
    const auto core = std::make_tuple(
        op2::read(*q_, *f2c_, 0), op2::read(*q_, *f2c_, 1), op2::read(*nut_, *f2c_, 0),
        op2::read(*nut_, *f2c_, 1), op2::read(*fnorm_), op2::inc(*res_, *f2c_, 0),
        op2::inc(*res_, *f2c_, 1), op2::inc(*nut_res_, *f2c_, 0),
        op2::inc(*nut_res_, *f2c_, 1));
    const auto muscl = std::make_tuple(
        op2::read(*gradq_, *f2c_, 0), op2::read(*gradq_, *f2c_, 1), op2::read(*lim_, *f2c_, 0),
        op2::read(*lim_, *f2c_, 1), op2::read(*cc_, *f2c_, 0), op2::read(*cc_, *f2c_, 1),
        op2::read(*fcent_));
    const auto visc =
        std::make_tuple(op2::read(*gradp_, *f2c_, 0), op2::read(*gradp_, *f2c_, 1),
                        op2::read(*gradnut_, *f2c_, 0), op2::read(*gradnut_, *f2c_, 1));
    if (cfg_.second_order && cfg_.viscous) {
      add_member(chain, name, *faces_, FaceFlux<true, true>{c},
                 std::tuple_cat(core, muscl, visc));
    } else if (cfg_.second_order) {
      add_member(chain, name, *faces_, FaceFlux<true, false>{c}, std::tuple_cat(core, muscl));
    } else {
      const auto prim = std::make_tuple(op2::read(*prim_, *f2c_, 0), op2::read(*prim_, *f2c_, 1));
      if (cfg_.viscous) {
        add_member(chain, name, *faces_, FaceFlux<false, true>{c},
                   std::tuple_cat(core, prim, visc));
      } else {
        add_member(chain, name, *faces_, FaceFlux<false, false>{c}, std::tuple_cat(core, prim));
      }
    }
  }

  // Physical total-condition inlet (subsonic characteristic treatment):
  // reservoir p0/T0 with the velocity taken from the interior; the static
  // state follows from the isentropic relations. Coupled inlets keep the
  // coupler-provided ghost, fixed-state inlets keep the init-time ghost.
  if (!coupled_[gi(BoundaryGroup::Inlet)] && cfg_.inlet_total_conditions) {
    const double p0 = cfg_.inlet_p0, t0 = cfg_.inlet_t0;
    const double cp = cfg_.cp();
    const double gas_r = cfg_.gas_constant;
    const double nut_in = cfg_.sa_nut_in;
    chain.add((pfx_ + "inlet_ghost_tc").c_str(), *bsets_[gi(BoundaryGroup::Inlet)],
                  [gamma, p0, t0, cp, gas_r, nut_in](const double* q, double* gh) {
                    // Interior velocity magnitude, axial inflow direction.
                    const double u2 = (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) /
                                      (q[0] * q[0]);
                    const double t = std::max(0.2 * t0, t0 - 0.5 * u2 / cp);
                    const double p = p0 * std::pow(t / t0, gamma / (gamma - 1.0));
                    const double rho = p / (gas_r * t);
                    const double u = std::sqrt(u2);
                    gh[0] = rho;
                    gh[1] = rho * u;
                    gh[2] = 0.0;
                    gh[3] = 0.0;
                    gh[4] = p / (gamma - 1.0) + 0.5 * rho * u2;
                    gh[kNState] = nut_in;
                  },
                  op2::read(*q_, *b2c_[gi(BoundaryGroup::Inlet)], 0),
                  op2::rw(*ghost_[gi(BoundaryGroup::Inlet)]));
  }

  // Physical outlet: refresh the ghost from the interior state with the
  // prescribed back pressure (subsonic outflow). Coupled outlets keep the
  // coupler-provided ghost.
  if (!coupled_[gi(BoundaryGroup::Outlet)]) {
    const double p_back = cfg_.p_back();
    chain.add((pfx_ + "outlet_ghost").c_str(), *bsets_[gi(BoundaryGroup::Outlet)],
                  [gamma, p_back](const double* q, double* gh) {
                    const double ke =
                        0.5 * (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / q[0];
                    gh[0] = q[0];
                    gh[1] = q[1];
                    gh[2] = q[2];
                    gh[3] = q[3];
                    gh[4] = p_back / (gamma - 1.0) + ke;
                    // gh[5] (nut) keeps its previous value: zero-gradient.
                  },
                  op2::read(*q_, *b2c_[gi(BoundaryGroup::Outlet)], 0),
                  op2::rw(*ghost_[gi(BoundaryGroup::Outlet)]));
  }

  // Ghost-based fluxes on inlet/outlet (physical or sliding-plane): Rusanov
  // or Roe against the exterior payload, upwinded SA convection on the same
  // face.
  const bool bc_use_roe = cfg_.flux_scheme == FlowConfig::FluxScheme::Roe;
  for (const auto group : {BoundaryGroup::Inlet, BoundaryGroup::Outlet}) {
    chain.add((pfx_ + group_tag(group) + "_flux").c_str(), *bsets_[gi(group)],
                  [gamma, bc_use_roe](const double* q, const double* nut, const double* gh,
                                      const double* area, double* r, double* sr) {
                    double pq[kNPrim], pg[kNPrim], f[kNState];
                    primitives(q, gamma, pq);
                    primitives(gh, gamma, pg);
                    upwind_flux(bc_use_roe, gamma, q, pq, gh, pg, area, f);
                    for (int s = 0; s < kNState; ++s) r[s] -= f[s];
                    const double un = (q[1] * area[0] + q[2] * area[1] + q[3] * area[2]) / q[0];
                    const double ung =
                        (gh[1] * area[0] + gh[2] * area[1] + gh[3] * area[2]) / gh[0];
                    const double unm = 0.5 * (un + ung);
                    *sr -= unm > 0 ? unm * *nut : unm * gh[kNState];
                  },
                  op2::read(*q_, *b2c_[gi(group)], 0),
                  op2::read(*nut_, *b2c_[gi(group)], 0),
                  op2::read(*ghost_[gi(group)]),
                  op2::read(*bnorm_[gi(group)]),
                  op2::inc(*res_, *b2c_[gi(group)], 0),
                  op2::inc(*nut_res_, *b2c_[gi(group)], 0));
  }

  // Walls (hub/casing): pressure force always; with viscous no-slip walls
  // an additional wall-shear drag -mu_eff * u_parallel / d per unit area
  // (wall-distance based, adiabatic). Only the no-slip member binds nut and
  // the wall distance, the two reads of the shear term.
  {
    const double mu_l = cfg_.mu_laminar;
    const double cv1 = cfg_.sa_cv1;
    const auto wall_flux = [gamma, mu_l, cv1](const double* q, const double* area, double* r,
                                              auto... shear) {
      const double p = pressure(q, gamma);
      r[1] -= p * area[0];
      r[2] -= p * area[1];
      r[3] -= p * area[2];
      if constexpr (sizeof...(shear) == 2) {
        const auto [nut, dist] = std::array<const double*, 2>{shear...};
        const double amag =
            std::sqrt(area[0] * area[0] + area[1] * area[1] + area[2] * area[2]);
        const double nx = area[0] / amag, ny = area[1] / amag, nz = area[2] / amag;
        const double u = q[1] / q[0], v = q[2] / q[0], w = q[3] / q[0];
        const double un = u * nx + v * ny + w * nz;
        const double up[3] = {u - un * nx, v - un * ny, w - un * nz};
        const double nu_l = mu_l / q[0];
        const double mu_eff = mu_l + q[0] * *nut * sa_fv1(*nut / nu_l, cv1);
        const double coeff = mu_eff * amag / *dist;
        r[1] -= coeff * up[0];
        r[2] -= coeff * up[1];
        r[3] -= coeff * up[2];
        // Adiabatic wall: no energy flux (the shear does no work on a
        // stationary wall).
      }
    };
    for (const auto group : {BoundaryGroup::Hub, BoundaryGroup::Casing}) {
      const op2::Map& b2c = *b2c_[gi(group)];
      const std::string name = pfx_ + group_tag(group) + "_flux";
      const auto core = std::make_tuple(op2::read(*q_, b2c, 0), op2::read(*bnorm_[gi(group)]),
                                        op2::inc(*res_, b2c, 0));
      if (cfg_.viscous && cfg_.no_slip_walls) {
        add_member(chain, name, *bsets_[gi(group)], wall_flux,
                   std::tuple_cat(core, std::make_tuple(op2::read(*nut_, b2c, 0),
                                                        op2::read(*wdist_, b2c, 0))));
      } else {
        add_member(chain, name, *bsets_[gi(group)], wall_flux, core);
      }
    }
  }

  // Blade-force model: relax tangential momentum toward the row's target
  // swirl; rotors add the corresponding shaft work (DESIGN.md substitution).
  // With blade_wake_frac > 0 the force is modulated at the blade count in
  // the row's own frame — rotor wakes rotate with the shaft, creating the
  // unsteady rotor-stator interaction of the full-annulus URANS problem.
  // Bladeless rows (nblades == 0, e.g. the swan-neck duct) apply no force.
  if (row_.nblades > 0) {
    const double omega = omega_;
    const double tau = cfg_.blade_relax;
    const double frac = row_.rotor ? cfg_.rotor_swirl_frac : cfg_.stator_swirl_frac;
    const bool rotor = row_.rotor;
    const double axial_load =
        row_.rotor ? cfg_.rotor_axial_load / (row_.x_max - row_.x_min) : 0.0;
    const double wake = cfg_.blade_wake_frac;
    const int nblades = row_.nblades;
    // The wake cosine is evaluated only with wakes on; without them mod is
    // 1.0, exactly what 1.0 + 0.0 * cos(...) gives.
    chain.add((pfx_ + "blade_force").c_str(), *cells_,
                  [omega, tau, frac, rotor, axial_load, wake, nblades](
                      const double* q, const double* rt, const double* et,
                      const double* vol, const double* frame_angle, double* r) {
                    const double rad = rt[0];
                    const double ty = et[0], tz = et[1];
                    const double blade_speed = omega * rad;
                    const double mod =
                        wake != 0.0 ? 1.0 + wake * std::cos(nblades * (rt[1] - *frame_angle))
                                    : 1.0;
                    const double m_theta = q[2] * ty + q[3] * tz;  // rho * w_theta
                    const double f_theta =
                        mod * (q[0] * frac * blade_speed - m_theta) / tau;
                    r[2] += *vol * f_theta * ty;
                    r[3] += *vol * f_theta * tz;
                    if (rotor) {
                      r[4] += *vol * f_theta * blade_speed;
                      // Actuator-disk pressure-rise capability (axial blade
                      // loading) with the corresponding shaft work.
                      const double fx =
                          mod * axial_load * 0.5 * q[0] * blade_speed * blade_speed;
                      r[1] += *vol * fx;
                      r[4] += *vol * fx * (q[1] / q[0]);
                    }
                  },
                  op2::read(*q_), op2::read(*rtheta_), op2::read(*etheta_),
                  op2::read(*vol_), op2::read(frame_angle_), op2::inc(*res_));
  }

  // Dual time stepping: BDF2 physical-time derivative as a residual source
  // (absent in steady RANS mode, where the pseudo-time march converges to
  // the steady solution directly).
  if (!cfg_.steady) {
    const double inv2dt = 1.0 / (2.0 * cfg_.dt_phys);
    chain.add((pfx_ + "dualtime_src").c_str(), *cells_,
                  [inv2dt](const double* q, const double* qo, const double* qo2,
                           const double* vol, double* r) {
                    for (int s = 0; s < kNState; ++s) {
                      r[s] -= *vol * (3.0 * q[s] - 4.0 * qo[s] + qo2[s]) * inv2dt;
                    }
                  },
                  op2::read(*q_), op2::read(*qold_),
                  op2::read(*qold2_), op2::read(*vol_),
                  op2::inc(*res_));
  }

  // Simplified SA source: production against destruction, wall-distance
  // based (DESIGN.md notes the simplification vs. full SA).
  {
    const double cb1 = cfg_.sa_cb1, cw1 = cfg_.sa_cw1;
    chain.add((pfx_ + "sa_source").c_str(), *cells_,
                  [cb1, cw1](const double* q, const double* nut, const double* d,
                             const double* vol, double* sr) {
                    const double speed =
                        std::sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / q[0];
                    const double shear = speed / (*d + 1e-3);
                    const double prod = cb1 * shear * *nut;
                    const double ratio = *nut / *d;
                    const double dest = cw1 * ratio * ratio;
                    *sr += *vol * (prod - dest);
                  },
                  op2::read(*q_), op2::read(*nut_),
                  op2::read(*wdist_), op2::read(*vol_),
                  op2::inc(*nut_res_));
  }
}

void RowSolver::wavespeed_and_dt(double cfl, double dt_cap) {
  const double gamma = cfg_.gamma;

  // Local pseudo-time step from the convective spectral radius, clamped for
  // dual-time stability (the BDF2 source is integrated explicitly).
  op2::par_loop((pfx_ + "zero_ws").c_str(), *cells_, [](double* w) { *w = 0.0; },
                op2::write(*ws_));
  {
    const std::string name = pfx_ + "ws_face";
    const auto core = std::make_tuple(op2::read(*q_, *f2c_, 0), op2::read(*q_, *f2c_, 1),
                                      op2::read(*fnorm_), op2::inc(*ws_, *f2c_, 0),
                                      op2::inc(*ws_, *f2c_, 1));
    const auto run = [&](auto kernel, const auto& args) {
      std::apply([&](const auto&... a) { op2::par_loop(name.c_str(), *faces_, kernel, a...); },
                 args);
    };
    if (cfg_.implicit_dual_time) {
      run(WsFace<true>{gamma},
          std::tuple_cat(core, std::make_tuple(op2::read(*fslot_),
                                               op2::write(*imat_.a, *f2c_, 0),
                                               op2::write(*imat_.a, *f2c_, 1))));
    } else {
      run(WsFace<false>{gamma}, core);
    }
  }
  for (std::size_t g = 0; g < kGroups; ++g) {
    op2::par_loop((pfx_ + group_tag(static_cast<BoundaryGroup>(g)) + "_ws").c_str(),
                  *bsets_[g],
                  [gamma](const double* q, const double* area, double* w) {
                    *w += face_wavespeed(q, area, gamma);
                  },
                  op2::read(*q_, *b2c_[g], 0),
                  op2::read(*bnorm_[g]),
                  op2::inc(*ws_, *b2c_[g], 0));
  }
  op2::par_loop((pfx_ + "local_dt").c_str(), *cells_,
                [cfl, dt_cap](const double* vol, const double* w, double* dt) {
                  *dt = std::min(cfl * *vol / std::max(*w, 1e-12), dt_cap);
                },
                op2::read(*vol_), op2::read(*ws_),
                op2::write(*dtl_));
}

void RowSolver::inner_iteration() {
  if (cfg_.implicit_dual_time) {
    implicit_iteration();
    return;
  }
  trace::Span titer("hydra:inner_iter");

  // CFL ramping for robust cold starts: geometric growth from cfl_start
  // to the target over cfl_ramp_iters pseudo-iterations.
  double cfl = cfg_.cfl;
  if (cfg_.cfl_ramp_iters > 0 && cfg_.cfl_start > 0.0 &&
      inner_count_ < cfg_.cfl_ramp_iters) {
    const double f = static_cast<double>(inner_count_) / cfg_.cfl_ramp_iters;
    cfl = cfg_.cfl_start * std::pow(cfg_.cfl / cfg_.cfl_start, f);
  }
  ++inner_count_;
  // Dual-time stability bounds the pseudo step by the physical step;
  // steady mode has no such bound (pure local time stepping).
  wavespeed_and_dt(cfl, cfg_.steady ? 1e30 : 0.3 * cfg_.dt_phys);

  // RK stage base.
  op2::par_loop((pfx_ + "save_q0").c_str(), *cells_,
                [](const double* q, double* q0, const double* nut, double* nut0) {
                  for (int s = 0; s < kNState; ++s) q0[s] = q[s];
                  *nut0 = *nut;
                },
                op2::read(*q_), op2::write(*q0_),
                op2::read(*nut_), op2::write(*nut0_));

  for (int stage = 0; stage < cfg_.rk_stages; ++stage) {
    trace::Span tstage("hydra:rk_stage");
    tstage.arg("stage", static_cast<double>(stage));
    rk_alpha_.set(1.0 / static_cast<double>(cfg_.rk_stages - stage));
    execute_step();
  }
}

void RowSolver::implicit_iteration() {
  trace::Span titer("hydra:implicit_iter");
  ++inner_count_;

  // Implicit march: no explicit stability bound, so the pseudo step comes
  // straight from implicit_cfl (an order of magnitude above the RK limit;
  // see FlowConfig::implicit_cfl for why not more).
  wavespeed_and_dt(cfg_.implicit_cfl, 1e30);

  // Right-hand side: the full nonlinear residual (including the BDF2
  // dual-time source when unsteady), exactly the explicit path's increment
  // direction — the step chain, which carries no rk_update here.
  execute_step();

  // Spectral-radius Jacobian on the cell stencil (first-order linearization
  // of the Rusanov flux): off-diagonal -1/2 lambda_f per face neighbor,
  // which ws_face wrote above, and the diagonal V/dtau (+ 3V/(2 dt) BDF2
  // shift when unsteady) + 1/2 of the cell's total wavespeed (interior +
  // boundary closure, already summed in ws_). SPD and strictly diagonally
  // dominant, so CG applies.
  const double shift = cfg_.steady ? 0.0 : 1.5 / cfg_.dt_phys;
  op2::par_loop((pfx_ + "implicit_assemble").c_str(), *cells_,
                [shift](const double* vol, const double* dt, const double* w, double* a) {
                  a[0] = *vol / *dt + shift * *vol + 0.5 * *w;
                },
                op2::read(*vol_), op2::read(*dtl_), op2::read(*ws_), op2::rw(*imat_.a));

  krylov::SolveOptions opts;
  opts.max_iters = cfg_.implicit_max_iters;
  opts.rtol = cfg_.implicit_rtol;
  ksolver_->solve(*res_, opts);

  // State update; SA stays on its explicit pseudo step (cfl/ws) — the
  // one-equation transport is not part of the linearized system.
  const double sa_cfl = cfg_.cfl;
  op2::par_loop((pfx_ + "implicit_update").c_str(), *cells_,
                [sa_cfl](const double* d, const double* w, const double* sr, double* q,
                         double* nut) {
                  for (int s = 0; s < kNState; ++s) q[s] += d[s];
                  if (q[0] < 1e-3) q[0] = 1e-3;
                  *nut = std::max(0.0, *nut + sa_cfl / std::max(*w, 1e-12) * *sr);
                },
                op2::read(ksolver_->x()), op2::read(*ws_), op2::read(*nut_res_), op2::rw(*q_),
                op2::rw(*nut_));
}

void RowSolver::advance_inner(int n) {
  for (int i = 0; i < n; ++i) inner_iteration();
}

void RowSolver::shift_time_levels() {
  time_ += cfg_.dt_phys;
  if (cfg_.steady) return;  // no physical time levels in steady mode
  op2::par_loop((pfx_ + "shift_levels").c_str(), *cells_,
                [](const double* q, double* qo, double* qo2) {
                  for (int s = 0; s < kNState; ++s) {
                    qo2[s] = qo[s];
                    qo[s] = q[s];
                  }
                },
                op2::read(*q_), op2::rw(*qold_),
                op2::write(*qold2_));
}

int RowSolver::solve_steady(int max_iters, double tol, int check_every) {
  if (!cfg_.steady) {
    throw std::logic_error("solve_steady: configure FlowConfig::steady first");
  }
  double r0 = -1.0;
  for (int it = 0; it < max_iters; ++it) {
    inner_iteration();
    if ((it + 1) % check_every != 0) continue;
    const double r = residual_rms();
    if (r0 < 0) r0 = std::max(r, 1e-300);
    if (r <= tol * r0) return it + 1;
  }
  return max_iters;
}

double RowSolver::residual_rms() {
  auto ss = ctx_.decl_global<double>(pfx_ + "rms", 1);
  op2::par_loop((pfx_ + "monitor_rms").c_str(), *cells_,
                [](const double* r, double* s) {
                  for (int c = 0; c < kNState; ++c) *s += r[c] * r[c];
                },
                op2::read(*res_), op2::reduce_sum(ss));
  return std::sqrt(ss.value() / (kNState * static_cast<double>(ncell_global_)));
}

double RowSolver::mass_flow(rig::BoundaryGroup group) {
  auto mdot = ctx_.decl_global<double>(pfx_ + group_tag(group) + "_mdot", 1);
  op2::par_loop((pfx_ + group_tag(group) + "_mflow").c_str(), *bsets_[gi(group)],
                [](const double* q, const double* area, double* m) {
                  *m += q[1] * area[0] + q[2] * area[1] + q[3] * area[2];
                },
                op2::read(*q_, *b2c_[gi(group)], 0),
                op2::read(*bnorm_[gi(group)]), op2::reduce_sum(mdot));
  return mdot.value();
}

double RowSolver::mean_pressure() {
  const double gamma = cfg_.gamma;
  auto acc = ctx_.decl_global<double>(pfx_ + "pmean", 2);
  op2::par_loop((pfx_ + "monitor_p").c_str(), *cells_,
                [gamma](const double* q, const double* vol, double* a) {
                  a[0] += pressure(q, gamma) * *vol;
                  a[1] += *vol;
                },
                op2::read(*q_), op2::read(*vol_),
                op2::reduce_sum(acc));
  return acc.value(0) / acc.value(1);
}

double RowSolver::shaft_power() {
  if (!row_.rotor || row_.nblades <= 0) return 0.0;
  const double omega = omega_;
  const double tau = cfg_.blade_relax;
  const double frac = cfg_.rotor_swirl_frac;
  const double axial_load = cfg_.rotor_axial_load / (row_.x_max - row_.x_min);
  auto power = ctx_.decl_global<double>(pfx_ + "power", 1);
  op2::par_loop((pfx_ + "shaft_power").c_str(), *cells_,
                [omega, tau, frac, axial_load](const double* q, const double* rt,
                                               const double* et, const double* vol,
                                               double* p) {
                  const double rad = rt[0];
                  const double ty = et[0], tz = et[1];
                  const double blade_speed = omega * rad;
                  const double m_theta = q[2] * ty + q[3] * tz;
                  const double f_theta = (q[0] * frac * blade_speed - m_theta) / tau;
                  const double fx = axial_load * 0.5 * q[0] * blade_speed * blade_speed;
                  *p += *vol * (f_theta * blade_speed + fx * q[1] / q[0]);
                },
                op2::read(*q_), op2::read(*rtheta_), op2::read(*etheta_),
                op2::read(*vol_), op2::reduce_sum(power));
  return power.value();
}

bool RowSolver::save_state(const std::string& prefix) {
  bool ok = op2::io::save(ctx_, *q_, prefix + "_q.dat");
  ok = op2::io::save(ctx_, *qold_, prefix + "_qold.dat") && ok;
  ok = op2::io::save(ctx_, *qold2_, prefix + "_qold2.dat") && ok;
  ok = op2::io::save(ctx_, *nut_, prefix + "_nut.dat") && ok;
  if (ctx_.rank() == 0) {
    // Physical time sidecar: the interface rotation and rotor wake frames
    // must resume where they stopped.
    std::ofstream meta(prefix + "_time.txt");
    meta.precision(17);
    meta << time_ << '\n';
    ok = static_cast<bool>(meta) && ok;
  }
  if (ctx_.distributed()) ok = ctx_.comm().bcast_value(ok ? 1 : 0, 0) != 0;
  return ok;
}

bool RowSolver::load_state(const std::string& prefix) {
  bool ok = op2::io::load(ctx_, *q_, prefix + "_q.dat");
  ok = op2::io::load(ctx_, *qold_, prefix + "_qold.dat") && ok;
  ok = op2::io::load(ctx_, *qold2_, prefix + "_qold2.dat") && ok;
  ok = op2::io::load(ctx_, *nut_, prefix + "_nut.dat") && ok;
  double t = time_;
  if (ctx_.rank() == 0) {
    std::ifstream meta(prefix + "_time.txt");
    if (meta >> t) {
      // ok unchanged
    } else {
      ok = false;
    }
  }
  if (ctx_.distributed()) {
    ok = ctx_.comm().bcast_value(ok ? 1 : 0, 0) != 0;
    t = ctx_.comm().bcast_value(t, 0);
  }
  if (ok) time_ = t;
  return ok;
}

void RowSolver::gather_owned_face_states(rig::BoundaryGroup g,
                                         std::vector<op2::gindex_t>* gids,
                                         std::vector<double>* payload) {
  gids->clear();
  payload->clear();
  const op2::Set& set = *bsets_[gi(g)];
  const op2::Map& map = *b2c_[gi(g)];
  for (index_t b = 0; b < set.n_owned(); ++b) {
    const index_t c = map(b, 0);
    gids->push_back(set.global_id(b));
    for (int s = 0; s < kNState; ++s) payload->push_back(q_->at(c, s));
    payload->push_back(nut_->at(c, 0));
  }
}

void RowSolver::scatter_ghosts(rig::BoundaryGroup g, std::span<const op2::gindex_t> gids,
                               std::span<const double> payload) {
  if (gids.size() * static_cast<std::size_t>(kPayload) != payload.size()) {
    throw std::invalid_argument("scatter_ghosts: payload size mismatch");
  }
  op2::Dat<double>& gh = ghost(g);
  const op2::Set& set = *bsets_[gi(g)];
  for (std::size_t i = 0; i < gids.size(); ++i) {
    const index_t l = ctx_.global_to_local(set, gids[i]);
    if (l < 0 || l >= set.n_owned()) continue;
    for (int s = 0; s < kPayload; ++s) {
      gh.at(l, s) = payload[i * static_cast<std::size_t>(kPayload) + static_cast<std::size_t>(s)];
    }
  }
  gh.mark_written();
}

}  // namespace vcgt::hydra
