#pragma once
// Flow and solver configuration for the hydra mini-URANS solver.
//
// The solver mirrors the structure the paper describes for Rolls-Royce's
// Hydra (§III): an unstructured finite-volume discretization of the
// compressible RANS equations, explicit Runge-Kutta pseudo-time inner
// iterations nested in a dual-time-stepping outer loop (BDF2 in physical
// time), with a Spalart-Allmaras-type one-equation turbulence model.
#include <cmath>

namespace vcgt::hydra {

struct FlowConfig {
  // Gas.
  double gamma = 1.4;
  double gas_constant = 287.05;  ///< J/(kg K)

  // Inflow reference state (subsonic axial inflow, paper §IV-A2 enforces
  // subsonic pressure conditions at inlet/outlet).
  double rho_in = 1.20;     ///< kg/m^3
  double u_axial_in = 80.0; ///< m/s
  double p_in = 101325.0;   ///< Pa

  /// Outlet static back-pressure ratio p_back / p_in. >1 throttles the
  /// compressor (the rig operates against a pressure rise).
  double p_back_ratio = 1.0;

  // Time integration.
  double cfl = 0.8;          ///< pseudo-time CFL for the RK inner iterations
  /// CFL ramping: start at cfl_start and grow geometrically to `cfl` over
  /// `cfl_ramp_iters` pseudo-iterations (robust cold starts; 0 disables).
  double cfl_start = 0.0;
  int cfl_ramp_iters = 0;
  int rk_stages = 3;         ///< low-storage RK stage count
  /// Pre-partition face renumbering: sort the interior faces by their
  /// highest-numbered cell, so contiguous face index ranges track contiguous
  /// cell ranges. The row mesh generator orders faces by family
  /// (axial/radial/tangential blocks), which makes early chain tiles of a
  /// face member depend on far-apart cells; sorting tightens the chain
  /// planner's aligned tile frontiers so a face tile's cells are still
  /// cache-hot from the producing member's matching tile. Off by default:
  /// it permutes the face set's increment fold order, which changes results
  /// at rounding level against runs without it. Fused vs eager step chains
  /// (op2::Config::chain_tile > 0 vs 0) under the same setting stay
  /// bit-identical whenever the eager side folds in flat ascending order
  /// (serial, or latency_hiding off; src/op2/chain.cpp); the family
  /// ordering this replaces happens to keep even the latency-hiding
  /// core/tail split order-compatible, while the sorted order does not at
  /// >2 ranks.
  bool sort_faces = false;
  int inner_iters = 10;      ///< pseudo-time iterations per physical step
  double dt_phys = 2.75e-6;  ///< physical (outer) step [s]; paper Table IV setup

  /// Implicit pseudo-time (DESIGN.md §11): each inner iteration solves the
  /// linearized system M·dq = res with vcgt::krylov (CG over op2 par_loops,
  /// stencil SpMV through the fused-halo LoopChain) instead of marching
  /// explicit RK stages. M is the first-order spectral-radius Jacobian
  /// approximation — SPD and diagonally dominant — so the pseudo-time CFL
  /// can sit orders of magnitude above the explicit stability bound.
  bool implicit_dual_time = false;
  /// Pseudo-CFL for the implicit march. Sits an order of magnitude above
  /// the explicit stability bound, but not arbitrarily high: M is only the
  /// first-order spectral-radius linearization (no pressure coupling), so
  /// at large pseudo-CFL the step approaches an inexact Newton update that
  /// overshoots the true residual slope and the outer march diverges — and
  /// the edge tightens as the mesh resolves more of what the linearization
  /// misses. O(5) is robust across the rig meshes.
  double implicit_cfl = 5.0;
  int implicit_max_iters = 100;   ///< Krylov iteration cap per inner step
  double implicit_rtol = 1e-4;    ///< Krylov relative residual tolerance

  /// Steady RANS mode (the industrial baseline of paper §I/II): no dual-time
  /// term, pure local-time-stepping pseudo-time march to convergence; used
  /// with mixing-plane interfaces and circumferential averaging.
  bool steady = false;

  /// Discrete blade wakes: modulates the blade force circumferentially with
  /// the blade count, locked to the row's frame (rotor wakes rotate with the
  /// shaft). This creates the genuine unsteady rotor-stator interaction that
  /// URANS + sliding planes resolve and steady RANS + mixing planes average
  /// away (the paper's motivation, §I). 0 = smooth actuator ring.
  double blade_wake_frac = 0.0;

  // Blade-force model (substitution for the proprietary blade geometry; see
  // DESIGN.md). Forces relax tangential velocity toward a per-row target.
  double blade_relax = 0.2e-3;  ///< relaxation time scale tau [s]
  /// Rotor target absolute swirl as a fraction of local blade speed (0.5 ~
  /// 50% reaction stage); stators/vanes relax toward `stator_swirl_frac`.
  double rotor_swirl_frac = 0.5;
  double stator_swirl_frac = 0.1;
  /// Actuator-disk axial loading of rotor rows: each rotor applies an axial
  /// body force of `rotor_axial_load * 0.5 * rho * U^2 / L_row` (U = local
  /// blade speed), the per-stage pressure-rise capability that lets the
  /// compressor pump against the throttle (DESIGN.md substitution note).
  double rotor_axial_load = 0.0;

  /// Convective flux scheme: Rusanov (robust, most dissipative) or Roe with
  /// Harten entropy fix (sharper waves, Hydra's upwind family).
  enum class FluxScheme { Rusanov, Roe };
  FluxScheme flux_scheme = FluxScheme::Rusanov;

  // Spatial accuracy: MUSCL reconstruction from Green-Gauss cell gradients
  // with Barth-Jespersen limiting (Hydra's schemes are 2nd order; the
  // 1st-order default is the robust fallback).
  bool second_order = false;

  // Viscous terms: laminar + Spalart-Allmaras eddy viscosity (RANS proper;
  // off = Euler + SA transport only).
  bool viscous = false;
  double mu_laminar = 1.8e-5;  ///< [Pa s]
  double prandtl = 0.72;
  double prandtl_turb = 0.9;
  /// Hub/casing wall treatment when viscous: slip (default, Euler walls) or
  /// no-slip wall shear from the wall-distance law-of-the-wall-lite model.
  bool no_slip_walls = false;

  // Inlet specification: fixed state (default) or reservoir total
  // conditions with the static state derived from the interior velocity
  // (subsonic characteristic treatment).
  bool inlet_total_conditions = false;
  double inlet_p0 = 104000.0;  ///< [Pa]
  double inlet_t0 = 290.0;     ///< [K]

  // Simplified Spalart-Allmaras closure.
  double sa_cb1 = 0.1355;
  double sa_cw1 = 3.24;      ///< cb1/kappa^2 + (1+cb2)/sigma
  double sa_sigma = 2.0 / 3.0;
  double sa_cv1 = 7.1;
  double sa_nut_in = 3e-5;   ///< inflow working variable [m^2/s]

  [[nodiscard]] double cp() const { return gamma * gas_constant / (gamma - 1.0); }

  [[nodiscard]] double p_back() const { return p_back_ratio * p_in; }
  [[nodiscard]] double sound_speed_in() const { return std::sqrt(gamma * p_in / rho_in); }
  [[nodiscard]] double energy_in() const {
    return p_in / (gamma - 1.0) + 0.5 * rho_in * u_axial_in * u_axial_in;
  }
};

}  // namespace vcgt::hydra
