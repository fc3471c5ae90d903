// hydra::RowSolver physics and parallel-equivalence tests.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>

#include "src/hydra/solver.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/rig/annulus.hpp"

namespace {

using namespace vcgt;
using hydra::FlowConfig;
using hydra::RowSolver;
using rig::BoundaryGroup;

rig::RowSpec quiet_row() {
  rig::RowSpec row;
  row.name = "T";
  row.rotor = false;
  row.x_min = 0.0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  return row;
}

/// Config whose blade force vanishes for swirl-free flow (targets zero
/// swirl) so uniform axial flow is an exact steady state.
FlowConfig quiet_config() {
  FlowConfig cfg;
  cfg.stator_swirl_frac = 0.0;
  cfg.rotor_swirl_frac = 0.0;
  cfg.sa_cb1 = 0.0;  // no SA production for the exactness test
  cfg.sa_cw1 = 0.0;
  cfg.inner_iters = 3;
  return cfg;
}

TEST(HydraSolver, FreestreamPreservation) {
  // Uniform axial flow with matching inlet/outlet states must be an exact
  // steady state of the discretization (machine precision residual).
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 16});
  const auto cfg = quiet_config();
  RowSolver solver(ctx, mesh, row, /*omega=*/0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();

  solver.inner_iteration();
  // Residual scale: fluxes are O(p * area) ~ 1e5 * 1e-3; machine-zero means
  // many orders below that.
  EXPECT_LT(solver.residual_rms(), 1e-6);

  // The state is unchanged after several iterations.
  solver.advance_inner(5);
  const auto q = ctx.fetch_global(solver.q());
  for (op2::index_t c = 0; c < mesh.ncell; ++c) {
    EXPECT_NEAR(q[static_cast<std::size_t>(c) * 5 + 0], cfg.rho_in, 1e-10);
    EXPECT_NEAR(q[static_cast<std::size_t>(c) * 5 + 1], cfg.rho_in * cfg.u_axial_in, 1e-8);
    EXPECT_NEAR(q[static_cast<std::size_t>(c) * 5 + 2], 0.0, 1e-8);
    EXPECT_NEAR(q[static_cast<std::size_t>(c) * 5 + 3], 0.0, 1e-8);
    EXPECT_NEAR(q[static_cast<std::size_t>(c) * 5 + 4], cfg.energy_in(), 1e-4);
  }
}

TEST(HydraSolver, MassFlowConsistentAtFreestream) {
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 16});
  const auto cfg = quiet_config();
  RowSolver solver(ctx, mesh, row, 0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();

  const double m_in = solver.mass_flow(BoundaryGroup::Inlet);
  const double m_out = solver.mass_flow(BoundaryGroup::Outlet);
  // Outward normals: inflow negative, outflow positive, equal magnitude.
  EXPECT_LT(m_in, 0.0);
  EXPECT_GT(m_out, 0.0);
  EXPECT_NEAR(m_in + m_out, 0.0, 1e-9 * std::fabs(m_out));
  // Magnitude ~ rho * u * inscribed annulus area.
  EXPECT_NEAR(m_out, cfg.rho_in * cfg.u_axial_in * 16 * std::sin(2.0 * M_PI / 16) * 0.5 *
                          (0.5 * 0.5 - 0.3 * 0.3),
              1e-6 * m_out);
}

TEST(HydraSolver, RotorBladeForceAddsSwirlAndWork) {
  op2::Context ctx;
  auto row = quiet_row();
  row.rotor = true;
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 16});
  FlowConfig cfg = quiet_config();
  cfg.rotor_swirl_frac = 0.3;
  cfg.dt_phys = 5e-5;  // quasi-steady march
  const double omega = 1000.0;
  RowSolver solver(ctx, mesh, row, omega, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();

  const double p0 = solver.mean_pressure();
  for (int t = 0; t < 10; ++t) {
    solver.advance_inner(4);
    solver.shift_time_levels();
  }
  const double p1 = solver.mean_pressure();
  EXPECT_GT(p1, p0) << "rotor work must raise mean pressure/energy";

  // Swirl developed: tangential momentum nonzero somewhere.
  const auto q = ctx.fetch_global(solver.q());
  double max_swirl = 0.0;
  for (op2::index_t c = 0; c < mesh.ncell; ++c) {
    const double y = mesh.cell_center[static_cast<std::size_t>(c) * 3 + 1];
    const double z = mesh.cell_center[static_cast<std::size_t>(c) * 3 + 2];
    const double r = std::hypot(y, z);
    const double mth =
        (-z * q[static_cast<std::size_t>(c) * 5 + 2] + y * q[static_cast<std::size_t>(c) * 5 + 3]) / r;
    max_swirl = std::max(max_swirl, std::fabs(mth));
  }
  EXPECT_GT(max_swirl, 1.0);
}

TEST(HydraSolver, DualTimePenalizesDeviationFromHistory) {
  // After shifting levels at a uniform state and perturbing q, the BDF2 term
  // must pull the solution back toward the history.
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 12});
  const auto cfg = quiet_config();
  RowSolver solver(ctx, mesh, row, 0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();

  // Perturb density up 1% everywhere (direct write outside loops).
  auto& q = solver.q();
  for (op2::index_t c = 0; c < solver.cells().total(); ++c) q.elem(c)[0] *= 1.01;
  q.mark_written();

  const double dev0 = 0.01 * cfg.rho_in;
  solver.advance_inner(8);
  const auto qg = ctx.fetch_global(solver.q());
  double worst = 0.0;
  for (op2::index_t c = 0; c < mesh.ncell; ++c) {
    worst = std::max(worst, std::fabs(qg[static_cast<std::size_t>(c) * 5] - cfg.rho_in));
  }
  EXPECT_LT(worst, dev0) << "pseudo-time iterations must contract the perturbation";
}

TEST(HydraSolver, DistributedMatchesSerial) {
  const auto row = quiet_row();
  const rig::MeshResolution res{4, 3, 12};
  const auto mesh = rig::generate_row_mesh(row, res);
  FlowConfig cfg = quiet_config();
  cfg.rotor_swirl_frac = 0.2;  // non-trivial dynamics
  cfg.stator_swirl_frac = 0.1;
  cfg.sa_cb1 = 0.1355;
  cfg.sa_cw1 = 3.24;

  auto run = [&](op2::Context& ctx) {
    RowSolver solver(ctx, mesh, row, 800.0, cfg);
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
  for (const int nranks : {2, 3, 5}) {
    minimpi::World::run(nranks, [&](minimpi::Comm& comm) {
      op2::Context ctx(comm);
      const auto got = run(ctx);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], ref[i], 1e-9 * (std::fabs(ref[i]) + 1.0))
            << "component " << i << " nranks " << nranks;
      }
    });
  }
}

TEST(HydraSolver, SaTransportStaysNonNegativeAndBounded) {
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 12});
  FlowConfig cfg;  // full SA source active
  cfg.inner_iters = 4;
  RowSolver solver(ctx, mesh, row, 0.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  for (int t = 0; t < 5; ++t) {
    solver.advance_inner(4);
    solver.shift_time_levels();
  }
  const auto& nutdat = solver.context();
  (void)nutdat;
  // Fetch through the public q()-style accessors is not exposed for nut;
  // validate via mean pressure staying finite and positive instead.
  const double p = solver.mean_pressure();
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(p, 0.0);
}

TEST(HydraSolver, ShaftPowerPositiveForPumpingRotor) {
  op2::Context ctx;
  auto row = quiet_row();
  row.rotor = true;
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 12});
  FlowConfig cfg = quiet_config();
  cfg.rotor_swirl_frac = 0.3;
  cfg.rotor_axial_load = 0.5;
  RowSolver solver(ctx, mesh, row, 1000.0, cfg);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  // At the swirl-free initial state the blade force drives toward target
  // swirl: the shaft does positive work.
  EXPECT_GT(solver.shaft_power(), 0.0);

  // A stator delivers none.
  op2::Context ctx2;
  auto stator = quiet_row();
  RowSolver ssolver(ctx2, rig::generate_row_mesh(stator, {4, 3, 12}), stator, 1000.0, cfg);
  ctx2.partition(op2::Partitioner::Rcb, ssolver.cell_center());
  ssolver.initialize();
  EXPECT_DOUBLE_EQ(ssolver.shaft_power(), 0.0);
}

TEST(HydraSolver, PlanDiagnosticsDescribeLoops) {
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {3, 3, 8});
  RowSolver solver(ctx, mesh, row, 0.0, quiet_config());
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  solver.inner_iteration();
  const std::string report = ctx.describe_plans();
  EXPECT_NE(report.find("flux_face"), std::string::npos);
  EXPECT_NE(report.find("redundant exec halo"), std::string::npos) << report;
  EXPECT_NE(report.find("calls"), std::string::npos);
}

// The boundary exchange the coupler drives (gather_owned_face_states,
// scatter_ghosts) is reproducible: two fresh contexts gather the same
// payloads and evolve to the same post-scatter state, bit for bit.
TEST(HydraSolver, BoundaryExchangeLayoutAgnostic) {
  struct Result {
    std::vector<op2::gindex_t> gids;
    std::vector<double> payload;
    std::vector<double> q;
  };
  auto run = [] {
    op2::Context ctx;
    auto row = quiet_row();
    row.rotor = true;
    const auto mesh = rig::generate_row_mesh(row, {4, 3, 16});
    FlowConfig cfg = quiet_config();
    cfg.rotor_swirl_frac = 0.3;
    cfg.dt_phys = 5e-5;
    RowSolver solver(ctx, mesh, row, /*omega=*/1000.0, cfg);
    solver.set_coupled(BoundaryGroup::Inlet, true);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    solver.advance_inner(4);  // develop a non-uniform state to exchange

    Result r;
    solver.gather_owned_face_states(BoundaryGroup::Outlet, &r.gids, &r.payload);
    // Feed the outlet states back in as inlet ghosts (a self-coupled rig):
    // exercises the scatter path and lets its effect propagate into q.
    std::vector<op2::gindex_t> igids;
    std::vector<double> ipayload;
    solver.gather_owned_face_states(BoundaryGroup::Inlet, &igids, &ipayload);
    solver.scatter_ghosts(BoundaryGroup::Inlet, igids, ipayload);
    solver.advance_inner(4);
    r.q = ctx.fetch_global(solver.q());
    return r;
  };
  const Result ref = run();
  ASSERT_FALSE(ref.payload.empty());
  const Result got = run();
  EXPECT_EQ(got.gids, ref.gids);
  EXPECT_EQ(got.payload, ref.payload);
  EXPECT_EQ(got.q, ref.q);
}

// A member binds only what its configured terms read (DESIGN.md §10).
// flux_face: 9 core arguments, then the cells' primitives (2, first order)
// or the MUSCL terms (7), then +4 for viscous terms; a `prim` member exists
// exactly on the first-order path. The wall fluxes bind nut and the wall
// distance only for no-slip walls.
TEST(HydraFlux, MembersBindOnlyWhatTheirTermsRead) {
  for (const bool muscl : {false, true}) {
    for (const bool viscous : {false, true}) {
      for (const bool no_slip : {false, true}) {
        op2::Context ctx;
        const auto row = quiet_row();
        const auto mesh = rig::generate_row_mesh(row, {3, 3, 8});
        FlowConfig cfg = quiet_config();
        cfg.second_order = muscl;
        cfg.viscous = viscous;
        cfg.no_slip_walls = no_slip;
        RowSolver solver(ctx, mesh, row, 0.0, cfg);
        ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
        solver.initialize();
        solver.inner_iteration();  // the step chain's plan is built on first execute

        const op2::ChainPlan* plan = ctx.find_chain("T:step");
        ASSERT_NE(plan, nullptr);
        const auto nargs = [&](const std::string& name) -> long {
          for (const auto& m : plan->members) {
            if (m.name == name) return static_cast<long>(m.args.size());
          }
          return -1;
        };
        SCOPED_TRACE(testing::Message() << "muscl=" << muscl << " viscous=" << viscous
                                        << " no_slip=" << no_slip);
        EXPECT_EQ(nargs("T:flux_face"), 9 + (muscl ? 7 : 2) + (viscous ? 4 : 0));
        EXPECT_EQ(nargs("T:prim"), muscl ? -1 : 2);
        const long wall = viscous && no_slip ? 5 : 3;
        EXPECT_EQ(nargs("T:hub_flux"), wall);
        EXPECT_EQ(nargs("T:casing_flux"), wall);
      }
    }
  }
}

// The first-order residual with per-cell primitives (the `prim` member)
// equals, bit for bit, a reference assembled here with primitives()
// evaluated at every face side, for Rusanov and Roe on a wake rotor. The
// reference replays the residual members of this configuration in the
// solver's order: interior faces, inlet/outlet ghost fluxes, wall
// pressure, blade force (steady: no dual-time source).
TEST(HydraFlux, CellPrimitivesResidualMatchesPerFaceReference) {
  for (const auto scheme : {FlowConfig::FluxScheme::Rusanov, FlowConfig::FluxScheme::Roe}) {
    using hydra::kNPrim, hydra::kNState;
    const bool roe = scheme == FlowConfig::FluxScheme::Roe;
    SCOPED_TRACE(roe ? "Roe" : "Rusanov");
    op2::Context ctx;
    auto row = quiet_row();
    row.rotor = true;
    row.nblades = 12;
    const auto mesh = rig::generate_row_mesh(row, {4, 3, 16});
    FlowConfig cfg = quiet_config();
    cfg.flux_scheme = scheme;
    cfg.rotor_swirl_frac = 0.3;
    cfg.rotor_axial_load = 0.5;
    cfg.blade_wake_frac = 0.3;
    cfg.p_back_ratio = 1.02;
    cfg.steady = true;
    // The implicit path evaluates the residual without overwriting it, so
    // after an iteration `res` holds R(q) of the state fetched before it.
    cfg.implicit_dual_time = true;
    const double omega = 1000.0;
    RowSolver solver(ctx, mesh, row, omega, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    solver.advance_inner(3);  // develop a non-uniform state

    const auto q = ctx.fetch_global(solver.q());
    solver.inner_iteration();
    op2::Dat<double>* res_dat = nullptr;
    for (const auto& d : ctx.dats()) {
      if (d->name() == "T:res") res_dat = dynamic_cast<op2::Dat<double>*>(d.get());
    }
    ASSERT_NE(res_dat, nullptr);
    const auto res = ctx.fetch_global(*res_dat);
    const auto gh_in = ctx.fetch_global(solver.ghost(BoundaryGroup::Inlet));
    const auto gh_out = ctx.fetch_global(solver.ghost(BoundaryGroup::Outlet));

    const double gamma = cfg.gamma;
    const auto flux = [&](const double* ql, const double* qr, const double* area, double* f) {
      double pl[kNPrim], pr[kNPrim];
      hydra::primitives(ql, gamma, pl);
      hydra::primitives(qr, gamma, pr);
      if (roe) {
        hydra::roe_flux(ql, pl, qr, pr, area, gamma, f);
      } else {
        hydra::rusanov_flux(ql, pl, qr, pr, area, f);
      }
    };
    const auto at = [](const std::vector<double>& v, std::size_t i, std::size_t dim) {
      return v.data() + i * dim;
    };
    std::vector<double> ref(res.size(), 0.0);
    double f[kNState];
    for (std::size_t e = 0; e < static_cast<std::size_t>(mesh.nface); ++e) {
      const auto cl = static_cast<std::size_t>(mesh.face2cell[e * 2]);
      const auto cr = static_cast<std::size_t>(mesh.face2cell[e * 2 + 1]);
      flux(at(q, cl, kNState), at(q, cr, kNState), at(mesh.face_normal, e, 3), f);
      for (std::size_t s = 0; s < kNState; ++s) {
        ref[cl * kNState + s] -= f[s];
        ref[cr * kNState + s] += f[s];
      }
    }
    for (const auto group : {BoundaryGroup::Inlet, BoundaryGroup::Outlet, BoundaryGroup::Hub,
                             BoundaryGroup::Casing}) {
      const auto g = static_cast<std::size_t>(group);
      const auto& gh = group == BoundaryGroup::Inlet ? gh_in : gh_out;
      for (auto b = static_cast<std::size_t>(mesh.group_begin[g]);
           b < static_cast<std::size_t>(mesh.group_end[g]); ++b) {
        const auto c = static_cast<std::size_t>(mesh.bface2cell[b]);
        const double* area = at(mesh.bface_normal, b, 3);
        if (group == BoundaryGroup::Inlet || group == BoundaryGroup::Outlet) {
          const std::size_t k = b - static_cast<std::size_t>(mesh.group_begin[g]);
          flux(at(q, c, kNState), at(gh, k, RowSolver::kPayload), area, f);
          for (std::size_t s = 0; s < kNState; ++s) ref[c * kNState + s] -= f[s];
        } else {
          const double p = hydra::pressure(at(q, c, kNState), gamma);
          for (std::size_t d = 0; d < 3; ++d) ref[c * kNState + 1 + d] -= p * area[d];
        }
      }
    }
    const double axial_load = cfg.rotor_axial_load / (row.x_max - row.x_min);
    for (std::size_t c = 0; c < static_cast<std::size_t>(mesh.ncell); ++c) {
      const double* qc = at(q, c, kNState);
      double* r = &ref[c * kNState];
      const double vol = mesh.cell_vol[c];
      const double rad = mesh.cell_rtheta[c * 2], th = mesh.cell_rtheta[c * 2 + 1];
      const double ty = -std::sin(th), tz = std::cos(th);
      const double blade_speed = omega * rad;
      const double mod = 1.0 + cfg.blade_wake_frac * std::cos(row.nblades * (th - 0.0));
      const double m_theta = qc[2] * ty + qc[3] * tz;
      const double f_theta =
          mod * (qc[0] * cfg.rotor_swirl_frac * blade_speed - m_theta) / cfg.blade_relax;
      r[2] += vol * f_theta * ty;
      r[3] += vol * f_theta * tz;
      r[4] += vol * f_theta * blade_speed;
      const double fx = mod * axial_load * 0.5 * qc[0] * blade_speed * blade_speed;
      r[1] += vol * fx;
      r[4] += vol * fx * (qc[1] / qc[0]);
    }

    ASSERT_EQ(ref.size(), res.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
      if (std::memcmp(&ref[i], &res[i], sizeof(double)) != 0) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << res.size() << " residual components";
  }
}

// The implicit Jacobian is assembled in two places: ws_face writes each
// interior face's off-diagonal coefficient into the two stencil slots the
// face owns, and implicit_assemble writes the diagonal. Together they equal,
// bit for bit, a reference that calls face_wavespeed() on both sides of
// every slot with the slot's outward area, serially and on 2 ranks. The
// reference rebuilds the solver's stencil from the mesh: slot 0 the cell,
// then its interior-face neighbours in face order with the face's area
// vector (negated on the right-hand cell), then (self, zero-area) pads,
// whose coefficient is -0.0.
TEST(HydraImplicit, AssemblyMatchesPerSlotReference) {
  using hydra::kNState;
  auto row = quiet_row();
  row.rotor = true;
  row.nblades = 12;
  const auto mesh = rig::generate_row_mesh(row, {4, 3, 16});
  FlowConfig cfg = quiet_config();
  cfg.rotor_swirl_frac = 0.3;
  cfg.p_back_ratio = 1.02;
  cfg.steady = true;
  cfg.implicit_dual_time = true;
  const double omega = 1000.0;

  struct Fields {
    std::vector<double> q, a, vol, dtl, ws;
  };
  const auto run = [&](op2::Context& ctx) {
    RowSolver solver(ctx, mesh, row, omega, cfg);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    solver.advance_inner(3);  // develop a non-uniform state
    Fields f;
    // The implicit iteration assembles from this state before updating it;
    // the pseudo step and wavespeed it assembles from stay in dtl and ws.
    f.q = ctx.fetch_global(solver.q());
    solver.inner_iteration();
    const auto fetch = [&ctx](const std::string& name) {
      for (const auto& d : ctx.dats()) {
        if (d->name() == name) return ctx.fetch_global(dynamic_cast<op2::Dat<double>&>(*d));
      }
      ADD_FAILURE() << "no dat " << name;
      return std::vector<double>{};
    };
    f.a = fetch("T:imat_a");
    f.vol = fetch("T:vol");
    f.dtl = fetch("T:dtl");
    f.ws = fetch("T:ws");
    return f;
  };

  const auto nc = static_cast<std::size_t>(mesh.ncell);
  struct Slot {
    std::size_t nb;
    std::array<double, 3> area;  ///< outward from the row's cell
  };
  std::vector<std::vector<Slot>> slots(nc);
  for (std::size_t e = 0; e < static_cast<std::size_t>(mesh.nface); ++e) {
    const auto cl = static_cast<std::size_t>(mesh.face2cell[e * 2]);
    const auto cr = static_cast<std::size_t>(mesh.face2cell[e * 2 + 1]);
    const double* n = mesh.face_normal.data() + e * 3;
    slots[cl].push_back({cr, {n[0], n[1], n[2]}});
    slots[cr].push_back({cl, {-n[0], -n[1], -n[2]}});
  }
  const auto check = [&](const Fields& f) {
    ASSERT_FALSE(f.a.empty());
    ASSERT_EQ(f.a.size() % nc, 0u);
    const std::size_t width = f.a.size() / nc;
    std::vector<double> ref(f.a.size());
    std::size_t nonzero = 0, pads = 0, pad_mismatches = 0;
    for (std::size_t c = 0; c < nc; ++c) {
      const double* qc = f.q.data() + c * kNState;
      ref[c * width] = f.vol[c] / f.dtl[c] + 0.0 * f.vol[c] + 0.5 * f.ws[c];
      for (std::size_t k = 1; k < width; ++k) {
        const bool pad = k - 1 >= slots[c].size();
        const Slot s = pad ? Slot{c, {0.0, 0.0, 0.0}} : slots[c][k - 1];
        const double lam =
            0.5 * (hydra::face_wavespeed(qc, s.area.data(), cfg.gamma) +
                   hydra::face_wavespeed(f.q.data() + s.nb * kNState, s.area.data(), cfg.gamma));
        ref[c * width + k] = -0.5 * lam;
        if (lam != 0.0) ++nonzero;
        if (pad) {
          ++pads;
          const double v = f.a[c * width + k];
          if (!(v == 0.0 && std::signbit(v))) ++pad_mismatches;
        }
      }
    }
    EXPECT_GT(nonzero, nc);
    EXPECT_GT(pads, 0u);
    EXPECT_EQ(pad_mismatches, 0u) << "pad slots that are not -0.0, of " << pads;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (std::memcmp(&ref[i], &f.a[i], sizeof(double)) != 0) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << ref.size() << " coefficients";
  };

  {
    SCOPED_TRACE("serial");
    op2::Context ctx;
    check(run(ctx));
  }
  {
    SCOPED_TRACE("2 ranks");
    Fields f;
    minimpi::World::run(2, [&](minimpi::Comm& comm) {
      op2::Context ctx(comm);
      auto r = run(ctx);
      if (ctx.rank() == 0) f = std::move(r);
    });
    check(f);
  }
}

TEST(HydraSolver, SetCoupledValidation) {
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {3, 3, 8});
  RowSolver solver(ctx, mesh, row, 0.0, quiet_config());
  EXPECT_THROW(solver.set_coupled(BoundaryGroup::Hub, true), std::invalid_argument);
  EXPECT_THROW((void)solver.ghost(BoundaryGroup::Hub), std::logic_error);
  EXPECT_NO_THROW((void)solver.ghost(BoundaryGroup::Inlet));
}

TEST(HydraSolver, SetCoupledAfterInitializeThrows) {
  // The step chain's boundary loops are fixed when initialize() declares
  // it; changing the coupling afterwards would leave them stale.
  op2::Context ctx;
  const auto row = quiet_row();
  const auto mesh = rig::generate_row_mesh(row, {3, 3, 8});
  RowSolver solver(ctx, mesh, row, 0.0, quiet_config());
  solver.set_coupled(BoundaryGroup::Inlet, true);
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  EXPECT_THROW(solver.set_coupled(BoundaryGroup::Outlet, true), std::logic_error);
  EXPECT_THROW(solver.set_coupled(BoundaryGroup::Inlet, false), std::logic_error);
  solver.initialize();  // warm re-initialization keeps the declared chain
  EXPECT_NO_THROW(solver.advance_inner(1));
}

}  // namespace
