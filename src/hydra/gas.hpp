#pragma once
// Inline compressible-gas helpers shared by the hydra kernels. These are the
// "elemental" pieces of the per-face / per-cell computations and are kept
// header-only so par_loop kernels inline them fully.
#include <algorithm>
#include <cmath>

namespace vcgt::hydra {

/// Conservative state layout: [rho, rho*u, rho*v, rho*w, rho*E].
inline constexpr int kNState = 5;

inline double pressure(const double* q, double gamma) {
  const double rho = q[0];
  const double ke = 0.5 * (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / rho;
  return (gamma - 1.0) * (q[4] - ke);
}

inline double sound_speed(const double* q, double gamma) {
  const double p = pressure(q, gamma);
  return std::sqrt(std::max(1e-12, gamma * p / q[0]));
}

/// Primitive slots of a state: velocity u, v, w, static pressure p and
/// sound speed c.
inline constexpr int kNPrim = 5;

/// The primitives of state q that the convective fluxes read, by the same
/// expressions as pressure() and sound_speed(), so a flux fed with a
/// per-cell precomputed copy equals, bit for bit, one fed with primitives
/// computed at the face.
inline void primitives(const double* q, double gamma, double* prim) {
  prim[0] = q[1] / q[0];
  prim[1] = q[2] / q[0];
  prim[2] = q[3] / q[0];
  prim[3] = pressure(q, gamma);
  prim[4] = std::sqrt(std::max(1e-12, gamma * prim[3] / q[0]));
}

/// Euler flux of state q (primitives prim) through an area vector A (not
/// normalized), into f[5]: f = F(q) . A with F the inviscid flux tensor.
inline void euler_flux(const double* q, const double* prim, const double* area, double* f) {
  const double p = prim[3];
  const double un = prim[0] * area[0] + prim[1] * area[1] + prim[2] * area[2];  // volume flux
  f[0] = q[0] * un;
  f[1] = q[1] * un + p * area[0];
  f[2] = q[2] * un + p * area[1];
  f[3] = q[3] * un + p * area[2];
  f[4] = (q[4] + p) * un;
}

/// Rusanov (local Lax-Friedrichs) numerical flux through area vector A,
/// oriented left -> right, from the states and their primitives(). Robust
/// and entropy-stable; the dissipation plays the role of Hydra's JST
/// artificial smoothing at this mesh scale.
inline void rusanov_flux(const double* ql, const double* priml, const double* qr,
                         const double* primr, const double* area, double* f) {
  double fl[kNState], fr[kNState];
  euler_flux(ql, priml, area, fl);
  euler_flux(qr, primr, area, fr);
  const double amag =
      std::sqrt(area[0] * area[0] + area[1] * area[1] + area[2] * area[2]);
  const double unl =
      (ql[1] * area[0] + ql[2] * area[1] + ql[3] * area[2]) / (ql[0] * std::max(amag, 1e-300));
  const double unr =
      (qr[1] * area[0] + qr[2] * area[1] + qr[3] * area[2]) / (qr[0] * std::max(amag, 1e-300));
  const double lmax = std::max(std::fabs(unl) + priml[4], std::fabs(unr) + primr[4]);
  for (int s = 0; s < kNState; ++s) {
    f[s] = 0.5 * (fl[s] + fr[s]) - 0.5 * lmax * amag * (qr[s] - ql[s]);
  }
}

/// Roe approximate Riemann solver with Harten entropy fix, through area
/// vector A (left -> right), from the states and their primitives(). Less
/// dissipative than Rusanov — the scheme family Hydra's JST/upwind options
/// live in; selected via FlowConfig::flux_scheme.
inline void roe_flux(const double* ql, const double* priml, const double* qr,
                     const double* primr, const double* area, double gamma, double* f) {
  const double amag =
      std::sqrt(area[0] * area[0] + area[1] * area[1] + area[2] * area[2]);
  if (amag < 1e-300) {
    for (int s = 0; s < kNState; ++s) f[s] = 0.0;
    return;
  }
  const double nx = area[0] / amag, ny = area[1] / amag, nz = area[2] / amag;

  const double rl = ql[0], rr = qr[0];
  const double ul = priml[0], vl = priml[1], wl = priml[2];
  const double ur = primr[0], vr = primr[1], wr = primr[2];
  const double pl = priml[3], pr = primr[3];
  const double hl = (ql[4] + pl) / rl, hr = (qr[4] + pr) / rr;

  // Roe averages.
  const double sl = std::sqrt(rl), sr = std::sqrt(rr);
  const double inv = 1.0 / (sl + sr);
  const double u = (sl * ul + sr * ur) * inv;
  const double v = (sl * vl + sr * vr) * inv;
  const double w = (sl * wl + sr * wr) * inv;
  const double h = (sl * hl + sr * hr) * inv;
  const double q2 = u * u + v * v + w * w;
  const double a2 = (gamma - 1.0) * (h - 0.5 * q2);
  const double a = std::sqrt(std::max(1e-12, a2));
  const double un = u * nx + v * ny + w * nz;
  const double unl = ul * nx + vl * ny + wl * nz;
  const double unr = ur * nx + vr * ny + wr * nz;

  // Wave strengths.
  const double drho = rr - rl;
  const double dp = pr - pl;
  const double dun = unr - unl;
  const double alpha2 = drho - dp / a2;  // entropy wave
  const double rho_roe = sl * sr;        // sqrt(rl * rr)
  const double am = (dp - rho_roe * a * dun) / (2.0 * a2);   // u - a wave
  const double ap = (dp + rho_roe * a * dun) / (2.0 * a2);   // u + a wave

  // Eigenvalues with Harten entropy fix on the acoustic waves.
  auto efix = [a](double lam) {
    const double eps = 0.1 * a;
    const double m = std::fabs(lam);
    return m < eps ? (lam * lam + eps * eps) / (2.0 * eps) : m;
  };
  const double l1 = efix(un - a);
  const double l2 = std::fabs(un);
  const double l3 = efix(un + a);

  // Tangential velocity jump (shear waves share the |un| eigenvalue).
  const double dut[3] = {(ur - ul) - dun * nx, (vr - vl) - dun * ny, (wr - wl) - dun * nz};

  double diss[kNState];
  // u - a wave.
  diss[0] = l1 * am;
  diss[1] = l1 * am * (u - a * nx);
  diss[2] = l1 * am * (v - a * ny);
  diss[3] = l1 * am * (w - a * nz);
  diss[4] = l1 * am * (h - a * un);
  // entropy wave.
  diss[0] += l2 * alpha2;
  diss[1] += l2 * (alpha2 * u + rho_roe * dut[0]);
  diss[2] += l2 * (alpha2 * v + rho_roe * dut[1]);
  diss[3] += l2 * (alpha2 * w + rho_roe * dut[2]);
  diss[4] += l2 * (alpha2 * 0.5 * q2 +
                   rho_roe * (u * dut[0] + v * dut[1] + w * dut[2]));
  // u + a wave.
  diss[0] += l3 * ap;
  diss[1] += l3 * ap * (u + a * nx);
  diss[2] += l3 * ap * (v + a * ny);
  diss[3] += l3 * ap * (w + a * nz);
  diss[4] += l3 * ap * (h + a * un);

  double fl[kNState], fr[kNState];
  euler_flux(ql, priml, area, fl);
  euler_flux(qr, primr, area, fr);
  for (int s = 0; s < kNState; ++s) {
    f[s] = 0.5 * (fl[s] + fr[s]) - 0.5 * amag * diss[s];
  }
}

/// Spalart-Allmaras fv1 wall function: the eddy viscosity is
/// mu_t = rho * nu_tilde * fv1(chi), chi = nu_tilde / nu_laminar.
inline double sa_fv1(double chi, double cv1) {
  const double c3 = chi * chi * chi;
  return c3 / (c3 + cv1 * cv1 * cv1);
}

/// |A| of an area vector.
inline double area_norm(const double* area) {
  return std::sqrt(area[0] * area[0] + area[1] * area[1] + area[2] * area[2]);
}

/// Convective spectral radius |u.n| + c |A| of state q across a face of
/// area vector `area`, for a caller that already holds the state's sound
/// speed c = sound_speed(q, gamma) and amag = area_norm(area).
inline double face_wavespeed(const double* q, double c, const double* area, double amag) {
  const double un = (q[1] * area[0] + q[2] * area[1] + q[3] * area[2]) / q[0];
  return std::fabs(un) + c * amag;
}

/// Convective spectral radius |u.n| + c |A| used for the CFL pseudo-step.
inline double face_wavespeed(const double* q, const double* area, double gamma) {
  return face_wavespeed(q, sound_speed(q, gamma), area, area_norm(area));
}

}  // namespace vcgt::hydra
