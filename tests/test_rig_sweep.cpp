// Parameterized geometry sweeps: mesh counting formulas, closure and volume
// properties across resolutions and flow-path shapes; wake-frame rotation
// physics across steps.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/jm76/monolithic.hpp"
#include "src/rig/annulus.hpp"
#include "src/util/spectrum.hpp"

namespace {

using namespace vcgt;

struct GeomCase {
  int nx, nr, nt;
  double hub_out;  // 0 = constant annulus
};

std::string geom_name(const testing::TestParamInfo<GeomCase>& info) {
  const auto& c = info.param;
  return "x" + std::to_string(c.nx) + "r" + std::to_string(c.nr) + "t" +
         std::to_string(c.nt) + (c.hub_out > 0 ? "_contracted" : "_straight");
}

class AnnulusGeometry : public testing::TestWithParam<GeomCase> {};

TEST_P(AnnulusGeometry, CountsClosureAndVolume) {
  const auto c = GetParam();
  rig::RowSpec row;
  row.x_min = 0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  row.r_hub_out = c.hub_out;
  const auto m = rig::generate_row_mesh(row, {c.nx, c.nr, c.nt});

  // Exact set-size formulas.
  EXPECT_EQ(m.ncell, c.nx * c.nr * c.nt);
  EXPECT_EQ(m.nface, (c.nx - 1) * c.nr * c.nt + c.nx * (c.nr - 1) * c.nt +
                         c.nx * c.nr * c.nt);
  EXPECT_EQ(m.nbface, 2 * c.nr * c.nt + 2 * c.nx * c.nt);

  // Closure holds exactly for every shape.
  EXPECT_LT(rig::max_closure_error(m), 1e-12);
  for (const double v : m.cell_vol) EXPECT_GT(v, 0.0);

  // Volume converges toward the exact annulus from below as ntheta grows
  // (inscribed polygon): checked against the analytic inscribed value when
  // the annulus is straight.
  if (c.hub_out <= 0) {
    const double dth = 2.0 * std::numbers::pi / c.nt;
    const double expect = 0.1 * 0.5 * c.nt * std::sin(dth) * (0.5 * 0.5 - 0.3 * 0.3);
    EXPECT_NEAR(rig::total_volume(m), expect, 1e-9 * expect);
  }
}

// A static array: gtest names each case with a byte dump of its param,
// and static storage zero-fills GeomCase's padding, so the names are the
// same in every build.
constexpr GeomCase kGeomCases[] = {{1, 1, 3, 0.0},  {2, 2, 4, 0.0},   {5, 4, 12, 0.0},
                                   {8, 6, 48, 0.0}, {3, 3, 10, 0.33}, {6, 5, 24, 0.35}};
INSTANTIATE_TEST_SUITE_P(Sweep, AnnulusGeometry, testing::ValuesIn(kGeomCases), geom_name);

TEST(WakeFrame, RotorWakeRotatesStatorWakeDoesNot) {
  // Run single rows with strong wakes and inspect the theta phase of the
  // blade-count harmonic in the tangential momentum over time: the rotor's
  // pattern must move, the stator's must stand still.
  auto wake_phase_drift = [&](bool rotor) {
    rig::RowSpec row;
    row.name = rotor ? "R" : "S";
    row.rotor = rotor;
    row.nblades = 3;
    row.x_min = 0;
    row.x_max = 0.08;
    row.r_hub = 0.28;
    row.r_casing = 0.40;
    const rig::MeshResolution res{3, 3, 24};
    const auto mesh = rig::generate_row_mesh(row, res);
    op2::Context ctx;
    hydra::FlowConfig cfg;
    cfg.inner_iters = 4;
    cfg.dt_phys = 4e-5;
    cfg.blade_wake_frac = 0.8;
    cfg.rotor_swirl_frac = 0.25;
    cfg.stator_swirl_frac = 0.25;
    cfg.sa_cb1 = 0.0;
    cfg.sa_cw1 = 0.0;
    const double omega = 1200.0;
    hydra::RowSolver solver(ctx, mesh, row, omega, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();

    auto phase_of = [&]() {
      const auto q = ctx.fetch_global(solver.q());
      // One mid-radius, mid-axial ring of tangential momentum.
      std::vector<double> ring(static_cast<std::size_t>(res.ntheta));
      for (int k = 0; k < res.ntheta; ++k) {
        const int c = (k * res.nr + 1) * res.nx + 1;  // cell_id(i=1, j=1, k)
        const double* qc = q.data() + static_cast<std::size_t>(c) * 5;
        const double y = mesh.cell_center[static_cast<std::size_t>(c) * 3 + 1];
        const double z = mesh.cell_center[static_cast<std::size_t>(c) * 3 + 2];
        const double r = std::hypot(y, z);
        ring[static_cast<std::size_t>(k)] = (-z * qc[2] + y * qc[3]) / r;
      }
      // Phase of the 3rd harmonic via explicit DFT.
      double re = 0, im = 0;
      for (int k = 0; k < res.ntheta; ++k) {
        const double ph = 2.0 * std::numbers::pi * 3 * k / res.ntheta;
        re += ring[static_cast<std::size_t>(k)] * std::cos(ph);
        im -= ring[static_cast<std::size_t>(k)] * std::sin(ph);
      }
      return std::atan2(im, re);
    };

    // Establish the pattern, then measure the phase drift over extra steps.
    for (int t = 0; t < 6; ++t) {
      solver.advance_inner(cfg.inner_iters);
      solver.shift_time_levels();
    }
    const double phase0 = phase_of();
    for (int t = 0; t < 4; ++t) {
      solver.advance_inner(cfg.inner_iters);
      solver.shift_time_levels();
    }
    double drift = phase_of() - phase0;
    while (drift > std::numbers::pi) drift -= 2.0 * std::numbers::pi;
    while (drift < -std::numbers::pi) drift += 2.0 * std::numbers::pi;
    return std::fabs(drift);
  };

  const double rotor_drift = wake_phase_drift(true);
  const double stator_drift = wake_phase_drift(false);
  // Expected rotor drift over 4 steps: 3 * omega * 4 * dt = 0.576 rad.
  EXPECT_GT(rotor_drift, 0.2);
  EXPECT_LT(stator_drift, 0.05);
}

TEST(WakeFrame, NoWakeMeansAxisymmetric) {
  rig::RowSpec row;
  row.name = "A";
  row.rotor = true;
  row.nblades = 5;
  row.x_min = 0;
  row.x_max = 0.08;
  row.r_hub = 0.28;
  row.r_casing = 0.40;
  const rig::MeshResolution res{3, 3, 20};
  const auto mesh = rig::generate_row_mesh(row, res);
  op2::Context ctx;
  hydra::FlowConfig cfg;
  cfg.inner_iters = 3;
  cfg.blade_wake_frac = 0.0;
  cfg.rotor_swirl_frac = 0.2;
  cfg.sa_cb1 = 0.0;
  cfg.sa_cw1 = 0.0;
  hydra::RowSolver solver(ctx, mesh, row, 1000.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  for (int t = 0; t < 5; ++t) {
    solver.advance_inner(cfg.inner_iters);
    solver.shift_time_levels();
  }
  const auto q = ctx.fetch_global(solver.q());
  std::vector<double> ring(static_cast<std::size_t>(res.ntheta));
  for (int k = 0; k < res.ntheta; ++k) {
    const int c = (k * res.nr + 1) * res.nx + 1;
    ring[static_cast<std::size_t>(k)] = q[static_cast<std::size_t>(c) * 5];
  }
  const auto mag = util::theta_harmonics(ring, 6);
  for (int h = 1; h <= 6; ++h) {
    EXPECT_LT(mag[static_cast<std::size_t>(h)], 1e-9 * std::fabs(mag[0]) + 1e-12)
        << "harmonic " << h;
  }
}

}  // namespace
