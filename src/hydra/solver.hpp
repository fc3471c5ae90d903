#pragma once
// hydra::RowSolver — a compressible URANS finite-volume solver for one blade
// row, written entirely against the op2 par_loop API (the way the paper's
// OP2-Hydra expresses all of its ~300 loops). One RowSolver per Hydra
// Session (HS); in the monolithic configuration several RowSolvers share a
// single op2::Context.
//
// Numerical structure (paper §III): residual assembly over faces (Rusanov
// flux standing in for Hydra's JST scheme), explicit multi-stage Runge-Kutta
// pseudo-time inner iterations, dual time stepping with a BDF2 physical-time
// term, a simplified Spalart-Allmaras one-equation turbulence transport, a
// distributed blade-force model replacing the proprietary blade geometry
// (DESIGN.md substitution table), and characteristic-flavoured subsonic
// inlet/outlet boundaries via ghost states.
//
// Sliding-plane coupling: the inlet and/or outlet group can be switched to
// "coupled" mode, where the exterior state of each interface face is a ghost
// value written by the JM76 coupler (scatter_ghosts) instead of a physical
// boundary condition.
#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/hydra/config.hpp"
#include "src/hydra/gas.hpp"
#include "src/krylov/krylov.hpp"
#include "src/op2/op2.hpp"
#include "src/rig/annulus.hpp"
#include "src/rig/rowspec.hpp"
#include "src/rig/shard.hpp"

namespace vcgt::hydra {

class RowSolver {
 public:
  /// Declares all sets/maps/dats on `ctx`. The caller must afterwards call
  /// ctx.partition(partitioner, solver.cell_center()) (or include this
  /// solver's declarations in a larger monolithic partition) and then
  /// initialize(). `omega` is the shaft speed [rad/s] (applied to rotor
  /// rows' blade force and the interface rotation handled by the coupler).
  RowSolver(op2::Context& ctx, const rig::AnnulusMesh& mesh, const rig::RowSpec& row,
            double omega, const FlowConfig& cfg);

  /// Sharded construction (DESIGN.md §13): declares only this rank's shard
  /// of the row via decl_set_sharded, from a generate_row_shard() result.
  /// The caller must afterwards call ctx.partition_sharded({&solver.cells(),
  /// ...}) and then initialize(). sort_faces and implicit_dual_time are
  /// whole-mesh setups and throw std::logic_error in this mode.
  RowSolver(op2::Context& ctx, const rig::RowShard& shard, const rig::RowSpec& row,
            double omega, const FlowConfig& cfg);

  /// Marks the inlet/outlet group as a sliding-plane interface; its ghost
  /// values then come from the coupler. Call before initialize(): the step
  /// chain's boundary loops depend on it, so afterwards this throws
  /// std::logic_error.
  void set_coupled(rig::BoundaryGroup group, bool coupled);

  /// Sets the whole field to the inflow state and fills ghost values. The
  /// first call also declares the step chain (DESIGN.md §10) that every
  /// later inner iteration executes. Collective; requires the context to
  /// be partitioned.
  void initialize();

  /// One pseudo-time inner iteration (wavespeed, RK stages over the residual
  /// with the dual-time source, SA update).
  void inner_iteration();
  void advance_inner(int n);

  /// Completes a physical time step: shifts the BDF2 time levels and
  /// advances the solver's physical time (no-op levels in steady mode).
  void shift_time_levels();

  /// Steady RANS driver: pseudo-time march until the residual drops by
  /// `tol` relative to the first measured residual or `max_iters` is hit;
  /// returns the iterations used. Requires FlowConfig::steady. Collective.
  int solve_steady(int max_iters, double tol = 1e-4, int check_every = 10);

  /// Physical time accumulated by shift_time_levels [s] (drives the rotor
  /// wake frame and the coupler rotation).
  [[nodiscard]] double physical_time() const { return time_; }

  /// RMS of the last evaluated residual over all cells (collective).
  double residual_rms();
  /// Mass flow through Inlet (negative = entering) or Outlet group
  /// (collective reduction).
  double mass_flow(rig::BoundaryGroup group);
  /// Volume-weighted mean static pressure (collective).
  double mean_pressure();
  /// Shaft power delivered by the row's blade force [W] (collective): the
  /// volume integral of the tangential force times the blade speed. Zero
  /// for stators/ducts; the per-row work input monitors the compressor's
  /// operating point.
  double shaft_power();

  // --- coupler / example plumbing ------------------------------------------
  [[nodiscard]] op2::Set& cells() { return *cells_; }
  [[nodiscard]] op2::Set& group_set(rig::BoundaryGroup g) {
    return *bsets_[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] op2::Dat<double>& q() { return *q_; }
  [[nodiscard]] op2::Dat<double>& cell_center() { return *cc_; }
  [[nodiscard]] op2::Dat<double>& ghost(rig::BoundaryGroup g);
  [[nodiscard]] op2::Context& context() { return ctx_; }
  [[nodiscard]] const rig::RowSpec& row() const { return row_; }
  [[nodiscard]] const FlowConfig& flow_config() const { return cfg_; }

  /// Per-face payload exchanged across a sliding plane: the adjacent cell's
  /// conservative state plus the SA working variable.
  static constexpr int kPayload = kNState + 1;

  /// Collects (face gid, payload) for the locally owned faces of a sliding
  /// group. Local (non-collective). Gids are 64-bit: interface sets at the
  /// paper's mesh scale exceed the index_t range.
  void gather_owned_face_states(rig::BoundaryGroup g, std::vector<op2::gindex_t>* gids,
                                std::vector<double>* payload);
  /// Writes interpolated exterior payloads into the ghost dat for the faces
  /// (by gid) present and owned on this rank; entries for faces owned
  /// elsewhere are ignored. Collective (all ranks of the session must call,
  /// even with empty spans) because it bumps the dat write epoch.
  void scatter_ghosts(rig::BoundaryGroup g, std::span<const op2::gindex_t> gids,
                      std::span<const double> payload);

 private:
  void declare(const rig::AnnulusMesh& mesh, const rig::RowShard* shard);
  /// Declares the residual-assembly loops as members of `chain`.
  void declare_residual(op2::LoopChain& chain);
  /// Executes the step chain at the current physical time.
  void execute_step();
  /// Wavespeed accumulation + local pseudo step (shared by the explicit and
  /// implicit paths; only the CFL and the dual-time cap differ). On the
  /// implicit path the interior-face loop also writes the Jacobian's
  /// off-diagonal coefficients.
  void wavespeed_and_dt(double cfl, double dt_cap);
  /// Implicit inner iteration: assemble the spectral-radius Jacobian into
  /// the cell stencil and solve M·dq = res with vcgt::krylov CG.
  void implicit_iteration();

  op2::Context& ctx_;
  rig::RowSpec row_;
  FlowConfig cfg_;
  double omega_;
  std::string pfx_;  ///< loop/set name prefix (row name), unique per context
  bool coupled_[4] = {false, false, false, false};
  double time_ = 0.0;  ///< physical time [s]
  long inner_count_ = 0;  ///< total pseudo-iterations (drives the CFL ramp)

  /// Residual + RK update (explicit) or residual only (implicit), declared
  /// by the first initialize(). Its kernels read the two globals below.
  std::unique_ptr<op2::LoopChain> step_;
  op2::Global<double> rk_alpha_;     ///< RK stage coefficient
  op2::Global<double> frame_angle_;  ///< blade-wake frame angle omega * time [rad]

  op2::gindex_t ncell_global_ = 0;

  op2::Set* cells_ = nullptr;
  op2::Set* faces_ = nullptr;
  std::array<op2::Set*, 4> bsets_{};  ///< per BoundaryGroup

  op2::Map* f2c_ = nullptr;
  std::array<op2::Map*, 4> b2c_{};

  // Cell dats.
  op2::Dat<double>* cc_ = nullptr;       ///< cell centers (3)
  op2::Dat<double>* vol_ = nullptr;      ///< volumes (1)
  op2::Dat<double>* rtheta_ = nullptr;   ///< (r, theta) (2)
  op2::Dat<double>* etheta_ = nullptr;   ///< (-sin theta, cos theta) (2); bladed rows
  op2::Dat<double>* wdist_ = nullptr;    ///< wall distance (1)
  op2::Dat<double>* q_ = nullptr;        ///< conservative state (5)
  op2::Dat<double>* q0_ = nullptr;       ///< RK stage base (5)
  op2::Dat<double>* qold_ = nullptr;     ///< physical level n (5)
  op2::Dat<double>* qold2_ = nullptr;    ///< physical level n-1 (5)
  op2::Dat<double>* res_ = nullptr;      ///< residual (5)
  op2::Dat<double>* prim_ = nullptr;     ///< u, v, w, p, c (5); first order only
  op2::Dat<double>* ws_ = nullptr;       ///< wavespeed accumulator (1)
  op2::Dat<double>* dtl_ = nullptr;      ///< local pseudo step (1)
  op2::Dat<double>* nut_ = nullptr;      ///< SA working variable (1)
  op2::Dat<double>* nut0_ = nullptr;     ///< SA stage base (1)
  op2::Dat<double>* nut_res_ = nullptr;  ///< SA residual (1)

  // Gradient / reconstruction dats (used when second_order or viscous).
  op2::Dat<double>* gradq_ = nullptr;    ///< conservative gradients (5x3)
  op2::Dat<double>* gradp_ = nullptr;    ///< primitive (u,v,w,T) gradients (4x3)
  op2::Dat<double>* gradnut_ = nullptr;  ///< SA working-variable gradient (3)
  op2::Dat<double>* qmin_ = nullptr;     ///< neighborhood minima (5)
  op2::Dat<double>* qmax_ = nullptr;     ///< neighborhood maxima (5)
  op2::Dat<double>* lim_ = nullptr;      ///< Barth-Jespersen limiter (5)

  // Face dats.
  op2::Dat<double>* fnorm_ = nullptr;  ///< interior face area vectors (3)
  op2::Dat<double>* fcent_ = nullptr;  ///< interior face centers (3)
  std::array<op2::Dat<double>*, 4> bnorm_{};
  std::array<op2::Dat<double>*, 4> ghost_{};  ///< exterior payload per bface (6)

  // Implicit dual-time (FlowConfig::implicit_dual_time): cell stencil matrix
  // + Krylov solver (whose x() is the state update dq) + each interior
  // face's two stencil slots, into which ws_face writes the face's
  // off-diagonal coefficient.
  krylov::StencilMatrix imat_{};
  std::unique_ptr<krylov::Solver> ksolver_;
  op2::Dat<int>* fslot_ = nullptr;  ///< slot in cell l's, cell r's stencil row (2)

 public:
  /// Checkpoint the solver state (q, qold, qold2, nut) as op2 binary dats
  /// under `prefix`. Collective; returns false on I/O failure.
  bool save_state(const std::string& prefix);
  /// Restores a checkpoint written by save_state (same mesh/partition-
  /// independent format). Collective.
  bool load_state(const std::string& prefix);
};

}  // namespace vcgt::hydra
