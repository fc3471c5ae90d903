// Second-order MUSCL reconstruction, viscous/SA-diffusion terms, total-
// condition inlets and checkpoint I/O of the hydra solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "src/hydra/solver.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/op2/io.hpp"
#include "src/rig/annulus.hpp"

namespace {

using namespace vcgt;
using hydra::FlowConfig;
using hydra::RowSolver;
using rig::BoundaryGroup;

rig::RowSpec quiet_row() {
  rig::RowSpec row;
  row.name = "T";
  row.x_min = 0.0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  return row;
}

FlowConfig quiet_config() {
  FlowConfig cfg;
  cfg.stator_swirl_frac = 0.0;
  cfg.rotor_swirl_frac = 0.0;
  cfg.sa_cb1 = 0.0;
  cfg.sa_cw1 = 0.0;
  cfg.inner_iters = 3;
  return cfg;
}

/// Freestream preservation must survive the higher-order machinery: uniform
/// flow has zero gradients, unit limiters and zero viscous stresses.
class HighOrderFreestream : public testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(HighOrderFreestream, UniformFlowIsExactSteadyState) {
  const auto [second_order, viscous] = GetParam();
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 14});
  auto cfg = quiet_config();
  cfg.second_order = second_order;
  cfg.viscous = viscous;
  RowSolver solver(ctx, mesh, row, 0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  solver.advance_inner(4);
  EXPECT_LT(solver.residual_rms(), 1e-5);
  const auto q = ctx.fetch_global(solver.q());
  for (op2::index_t c = 0; c < mesh.ncell; ++c) {
    EXPECT_NEAR(q[static_cast<std::size_t>(c) * 5 + 0], cfg.rho_in, 1e-9);
    EXPECT_NEAR(q[static_cast<std::size_t>(c) * 5 + 2], 0.0, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, HighOrderFreestream,
                         testing::Combine(testing::Bool(), testing::Bool()),
                         [](const testing::TestParamInfo<std::tuple<bool, bool>>& info) {
                           return std::string(std::get<0>(info.param) ? "muscl" : "o1") +
                                  (std::get<1>(info.param) ? "_visc" : "_inviscid");
                         });

/// A smooth density wave advects with less numerical dissipation at second
/// order: after the same number of steps the wave amplitude must be larger
/// than with the first-order scheme.
TEST(HighOrder, MusclRetainsMoreWaveAmplitude) {
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {8, 3, 16});

  auto run = [&](bool second_order) {
    op2::Context ctx;
    auto cfg = quiet_config();
    cfg.second_order = second_order;
    cfg.dt_phys = 2e-5;
    RowSolver solver(ctx, mesh, row, 0.0, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    // Superimpose a small circumferential density wave.
    auto& q = solver.q();
    auto& cc = solver.cell_center();
    for (op2::index_t c = 0; c < solver.cells().total(); ++c) {
      const double* x = cc.elem(c);
      const double th = std::atan2(x[2], x[1]);
      q.elem(c)[0] *= 1.0 + 0.01 * std::sin(2.0 * th);
    }
    q.mark_written();
    solver.shift_time_levels();
    solver.shift_time_levels();  // make the history consistent with q
    for (int t = 0; t < 6; ++t) {
      solver.advance_inner(3);
      solver.shift_time_levels();
    }
    const auto qg = ctx.fetch_global(solver.q());
    double lo = 1e300, hi = -1e300;
    for (op2::index_t c = 0; c < mesh.ncell; ++c) {
      lo = std::min(lo, qg[static_cast<std::size_t>(c) * 5]);
      hi = std::max(hi, qg[static_cast<std::size_t>(c) * 5]);
    }
    return hi - lo;
  };

  const double amp1 = run(false);
  const double amp2 = run(true);
  EXPECT_GT(amp2, amp1 * 1.05) << "MUSCL must be less dissipative";
}

TEST(CflRamp, RampedStartMatchesFixedCflSteadyState) {
  // CFL ramping changes the pseudo-time path, not the converged answer:
  // freestream stays exact with ramping on.
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 10});
  auto cfg = quiet_config();
  cfg.cfl_start = 0.1;
  cfg.cfl_ramp_iters = 6;
  RowSolver solver(ctx, mesh, row, 0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  solver.advance_inner(10);  // crosses the ramp boundary
  EXPECT_LT(solver.residual_rms(), 1e-5);
  const auto q = ctx.fetch_global(solver.q());
  for (op2::index_t c = 0; c < mesh.ncell; ++c) {
    EXPECT_NEAR(q[static_cast<std::size_t>(c) * 5], cfg.rho_in, 1e-9);
  }
}

TEST(FluxScheme, RoePreservesFreestream) {
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 14});
  auto cfg = quiet_config();
  cfg.flux_scheme = FlowConfig::FluxScheme::Roe;
  RowSolver solver(ctx, mesh, row, 0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  solver.advance_inner(4);
  EXPECT_LT(solver.residual_rms(), 1e-5);
}

TEST(FluxScheme, RoeConsistentWithExactFluxForEqualStates) {
  // F(q, q, A) must equal the exact Euler flux for both schemes.
  const double q[5] = {1.2, 96.0, 5.0, -3.0, 2.6e5};
  const double area[3] = {0.4, -0.2, 0.7};
  double prim[5], exact[5], roe[5], rus[5];
  hydra::primitives(q, 1.4, prim);
  hydra::euler_flux(q, prim, area, exact);
  hydra::roe_flux(q, prim, q, prim, area, 1.4, roe);
  hydra::rusanov_flux(q, prim, q, prim, area, rus);
  for (int s = 0; s < 5; ++s) {
    EXPECT_NEAR(roe[s], exact[s], 1e-9 * (std::fabs(exact[s]) + 1.0)) << s;
    EXPECT_NEAR(rus[s], exact[s], 1e-9 * (std::fabs(exact[s]) + 1.0)) << s;
  }
}

TEST(FluxScheme, RoeLessDissipativeThanRusanovOnContact) {
  // A contact discontinuity (density jump at equal velocity and pressure)
  // moves with |u|: Roe's dissipation on it is |u| * dq, Rusanov's is
  // (|u| + c) * dq — much larger at low Mach.
  const double gamma = 1.4;
  const double p = 101325.0, u = 50.0;
  const double rl = 1.0, rr = 1.3;
  const double ql[5] = {rl, rl * u, 0, 0, p / (gamma - 1) + 0.5 * rl * u * u};
  const double qr[5] = {rr, rr * u, 0, 0, p / (gamma - 1) + 0.5 * rr * u * u};
  const double area[3] = {1.0, 0.0, 0.0};
  double pl[5], pr[5], froe[5], frus[5], exact_l[5];
  hydra::primitives(ql, gamma, pl);
  hydra::primitives(qr, gamma, pr);
  hydra::roe_flux(ql, pl, qr, pr, area, gamma, froe);
  hydra::rusanov_flux(ql, pl, qr, pr, area, frus);
  hydra::euler_flux(ql, pl, area, exact_l);
  // Upwind-exact mass flux for the supersonic-free contact: rho_l * u from
  // the left state (u > 0). Roe must be much closer to it than Rusanov.
  const double err_roe = std::fabs(froe[0] - exact_l[0]);
  const double err_rus = std::fabs(frus[0] - exact_l[0]);
  EXPECT_LT(err_roe, 0.35 * err_rus);
}

TEST(FluxScheme, RoeDistributedMatchesSerial) {
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 10});
  FlowConfig cfg = quiet_config();
  cfg.flux_scheme = FlowConfig::FluxScheme::Roe;
  cfg.rotor_swirl_frac = 0.05;
  auto run = [&](op2::Context& ctx) {
    RowSolver solver(ctx, mesh, row, 500.0, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    for (int t = 0; t < 3; ++t) {
      solver.advance_inner(2);
      solver.shift_time_levels();
    }
    return ctx.fetch_global(solver.q());
  };
  std::vector<double> ref;
  {
    op2::Context ctx;
    ref = run(ctx);
  }
  minimpi::World::run(3, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm);
    const auto got = run(ctx);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], ref[i], 1e-7 * (std::fabs(ref[i]) + 1.0)) << i;
    }
  });
}

TEST(HighOrder, ViscosityDampsShear) {
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 6, 12});

  auto swirl_energy = [&](bool viscous) {
    op2::Context ctx;
    auto cfg = quiet_config();
    cfg.viscous = viscous;
    cfg.mu_laminar = 0.2;  // exaggerated viscosity for a fast, clear signal
    cfg.dt_phys = 1e-4;
    cfg.inner_iters = 4;
    RowSolver solver(ctx, mesh, row, 0.0, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    // Radial shear layer in the tangential velocity.
    auto& q = solver.q();
    auto& cc = solver.cell_center();
    for (op2::index_t c = 0; c < solver.cells().total(); ++c) {
      const double* x = cc.elem(c);
      const double r = std::hypot(x[1], x[2]);
      const double th = std::atan2(x[2], x[1]);
      const double w = 20.0 * std::sin((r - 0.3) / 0.2 * 3.14159265 * 2.0);
      const double rho = q.elem(c)[0];
      q.elem(c)[2] += rho * w * -std::sin(th);
      q.elem(c)[3] += rho * w * std::cos(th);
    }
    q.mark_written();
    solver.shift_time_levels();
    solver.shift_time_levels();
    for (int t = 0; t < 8; ++t) {
      solver.advance_inner(4);
      solver.shift_time_levels();
    }
    const auto qg = ctx.fetch_global(solver.q());
    double ke = 0.0;
    for (op2::index_t c = 0; c < mesh.ncell; ++c) {
      const double* qc = qg.data() + static_cast<std::size_t>(c) * 5;
      // Tangential kinetic energy only.
      const double* x = &mesh.cell_center[static_cast<std::size_t>(c) * 3];
      const double r = std::hypot(x[1], x[2]);
      const double mth = (-x[2] * qc[1] * 0 + (-x[2] * qc[2] + x[1] * qc[3])) / r;
      ke += mth * mth / qc[0];
    }
    return ke;
  };

  // The first-order Rusanov dissipation dominates both runs at this mesh
  // size; the physical viscosity must still add a clearly resolvable extra
  // decay.
  const double ke_inviscid = swirl_energy(false);
  const double ke_viscous = swirl_energy(true);
  EXPECT_LT(ke_viscous, ke_inviscid * 0.97);
}

TEST(HighOrder, DistributedMatchesSerialWithAllTermsOn) {
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 12});
  FlowConfig cfg = quiet_config();
  cfg.second_order = true;
  cfg.viscous = true;
  cfg.rotor_swirl_frac = 0.05;
  cfg.sa_cb1 = 0.1355;
  cfg.sa_cw1 = 3.24;

  auto run = [&](op2::Context& ctx) {
    RowSolver solver(ctx, mesh, row, 500.0, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    for (int t = 0; t < 3; ++t) {
      solver.advance_inner(3);
      solver.shift_time_levels();
    }
    return ctx.fetch_global(solver.q());
  };

  std::vector<double> ref;
  {
    op2::Context ctx;
    ref = run(ctx);
  }
  minimpi::World::run(4, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm);
    const auto got = run(ctx);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], ref[i], 1e-7 * (std::fabs(ref[i]) + 1.0)) << i;
    }
  });
}

TEST(HighOrder, TotalConditionInletHoldsReservoirState) {
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {6, 3, 12});
  auto cfg = quiet_config();
  cfg.inlet_total_conditions = true;
  cfg.inlet_p0 = 105000.0;
  cfg.inlet_t0 = 292.0;
  cfg.dt_phys = 1e-3;  // quasi-steady march
  RowSolver solver(ctx, mesh, row, 0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  for (int t = 0; t < 60; ++t) {
    solver.advance_inner(4);
    solver.shift_time_levels();
  }
  // Recover total pressure from the first interior cell layer.
  const auto q = ctx.fetch_global(solver.q());
  double p0_mean = 0.0;
  int count = 0;
  const double dx = 0.1 / 6;
  for (op2::index_t c = 0; c < mesh.ncell; ++c) {
    if (mesh.cell_center[static_cast<std::size_t>(c) * 3] > dx) continue;
    const double* qc = q.data() + static_cast<std::size_t>(c) * 5;
    const double u2 = (qc[1] * qc[1] + qc[2] * qc[2] + qc[3] * qc[3]) / (qc[0] * qc[0]);
    const double p = 0.4 * (qc[4] - 0.5 * qc[0] * u2);
    const double t = p / (qc[0] * cfg.gas_constant);
    const double t0 = t + 0.5 * u2 / cfg.cp();
    p0_mean += p * std::pow(t0 / t, 1.4 / 0.4);
    ++count;
  }
  p0_mean /= count;
  EXPECT_NEAR(p0_mean, cfg.inlet_p0, 0.03 * cfg.inlet_p0);
}

TEST(HydraIo, CheckpointRestartBitwiseContinuation) {
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 10});
  FlowConfig cfg = quiet_config();
  cfg.rotor_swirl_frac = 0.1;
  const std::string prefix = "/tmp/vcgt_ckpt_test";

  std::vector<double> direct;
  {
    op2::Context ctx;
    RowSolver solver(ctx, mesh, row, 300.0, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    for (int t = 0; t < 3; ++t) {
      solver.advance_inner(2);
      solver.shift_time_levels();
    }
    ASSERT_TRUE(solver.save_state(prefix));
    for (int t = 0; t < 2; ++t) {
      solver.advance_inner(2);
      solver.shift_time_levels();
    }
    direct = ctx.fetch_global(solver.q());
  }
  {
    op2::Context ctx;
    RowSolver solver(ctx, mesh, row, 300.0, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    ASSERT_TRUE(solver.load_state(prefix));
    for (int t = 0; t < 2; ++t) {
      solver.advance_inner(2);
      solver.shift_time_levels();
    }
    const auto resumed = ctx.fetch_global(solver.q());
    ASSERT_EQ(resumed.size(), direct.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
      EXPECT_DOUBLE_EQ(resumed[i], direct[i]) << i;
    }
  }
  for (const char* suffix : {"_q.dat", "_qold.dat", "_qold2.dat", "_nut.dat"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(HydraIo, CheckpointIsPartitionIndependent) {
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 10});
  FlowConfig cfg = quiet_config();
  const std::string prefix = "/tmp/vcgt_ckpt_dist";

  // Save from a 3-rank run...
  minimpi::World::run(3, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm);
    RowSolver solver(ctx, mesh, row, 300.0, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    solver.advance_inner(3);
    ASSERT_TRUE(solver.save_state(prefix));
  });
  // ...and load serially.
  op2::Context ctx;
  RowSolver solver(ctx, mesh, row, 300.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  ASSERT_TRUE(solver.load_state(prefix));
  const auto q = ctx.fetch_global(solver.q());
  for (const double v : q) EXPECT_TRUE(std::isfinite(v));
  for (const char* suffix : {"_q.dat", "_qold.dat", "_qold2.dat", "_nut.dat"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Op2Io, RoundTripAndValidation) {
  op2::Context ctx;
  auto& cells = ctx.decl_set("cells", 20);
  std::vector<double> data(40);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.5 * static_cast<double>(i);
  auto& d = ctx.decl_dat<double>(cells, 2, "d", data);
  const std::string path = "/tmp/vcgt_io_test.dat";
  ASSERT_TRUE(op2::io::save(ctx, d, path));

  auto& d2 = ctx.decl_dat<double>(cells, 2, "d2");
  ASSERT_TRUE(op2::io::load(ctx, d2, path));
  for (op2::index_t e = 0; e < 20; ++e) {
    EXPECT_DOUBLE_EQ(d2.elem(e)[0], d.elem(e)[0]);
    EXPECT_DOUBLE_EQ(d2.elem(e)[1], d.elem(e)[1]);
  }

  // Dim mismatch must throw.
  auto& wrong = ctx.decl_dat<double>(cells, 3, "wrong");
  EXPECT_THROW((void)op2::io::load(ctx, wrong, path), std::runtime_error);
  // Missing file returns false.
  auto& d3 = ctx.decl_dat<double>(cells, 2, "d3");
  EXPECT_FALSE(op2::io::load(ctx, d3, "/tmp/does_not_exist_vcgt.dat"));
  std::remove(path.c_str());
}

}  // namespace
