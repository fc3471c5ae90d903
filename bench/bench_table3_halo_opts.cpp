// Table III reproduction: OP2 communication optimizations — partial halo
// exchanges (PH), grouped halo messages (GH) and the staged/GPU-side gather
// for coupler payloads (GG).
//
// Layer 1 (measured): a distributed hydra row over minimpi rank-threads with
// each optimization toggled, metering exchanged halo bytes and message
// counts (the quantities the optimizations exist to reduce), plus the
// coupled staged-gather message shape.
// Layer 2 (model): projected per-step runtimes at the paper's ARCHER2 and
// Cirrus configurations next to the published Table III values.
//
// Halo transport layer: timings of the pooled send_owned/recv_owned halo
// exchange in a bandwidth and a latency regime, and the steady-state
// allocation gate. Results land in BENCH_halo.json; gate violations fail
// the exit status (--quick shrinks sizes without relaxing the gates).
#include "bench/bench_common.hpp"
#include "src/hydra/solver.hpp"
#include "src/jm76/coupled.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/perf/costmodel.hpp"
#include "src/util/timer.hpp"

using namespace vcgt;

namespace {

struct HaloMeasurement {
  std::uint64_t bytes = 0;
  std::uint64_t msgs = 0;
};

HaloMeasurement run_row(bool partial, bool grouped, int nranks, int steps) {
  HaloMeasurement out;
  const auto rig = rig::rig250_spec(1);
  const auto res = rig::resolution_tier("coarse");
  const auto mesh = rig::generate_row_mesh(rig.rows[0], res);
  hydra::FlowConfig flow;
  flow.inner_iters = 3;
  minimpi::World::run(nranks, [&](minimpi::Comm& comm) {
    op2::Config cfg;
    cfg.partial_halos = partial;
    cfg.grouped_halos = grouped;
    op2::Context ctx(comm, cfg);
    hydra::RowSolver solver(ctx, mesh, rig.rows[0], rig.omega(), flow);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    for (int t = 0; t < steps; ++t) {
      solver.advance_inner(flow.inner_iters);
      solver.shift_time_levels();
    }
    if (comm.rank() == 0) {
      const auto s = ctx.total_stats();
      out.bytes = s.halo_bytes;
      out.msgs = s.halo_msgs;
    }
    // Meters are per-rank; aggregate across ranks.
    const auto bytes = comm.allreduce_sum_u64(ctx.total_stats().halo_bytes);
    const auto msgs = comm.allreduce_sum_u64(ctx.total_stats().halo_msgs);
    if (comm.rank() == 0) {
      out.bytes = bytes;
      out.msgs = msgs;
    }
  });
  return out;
}

/// One timed halo transport run: a two-loop epoch (direct write, then an
/// indirect read through a half-shift map) over `ncell` elements whose halo
/// is half the mesh — every epoch moves ncell/2 * ncomp doubles per rank
/// each way, so the exchange dominates and the regime is set by
/// ncell * ncomp (large = bandwidth, small = latency).
struct ZcRun {
  double seconds = 0;               ///< timed epochs, barrier-fenced wall
  std::uint64_t site_allocs = 0;    ///< halo_buffer_allocs delta (sum over ranks)
  std::uint64_t slab_allocs = 0;    ///< pool freelist misses delta (world pool)
  std::uint64_t msgs = 0;           ///< halo messages delta (sum over ranks)
  std::uint64_t bytes = 0;          ///< halo payload bytes delta
  std::uint64_t copies_avoided = 0; ///< send_owned moves delta (world pool)
};

ZcRun run_zc_micro(int nranks, op2::index_t ncell, int ncomp, int warm, int epochs) {
  ZcRun out;
  minimpi::World::run(nranks, [&](minimpi::Comm& comm) {
    op2::Context ctx(comm);
    auto& cells = ctx.decl_set("cells", ncell);
    std::vector<double> centers(static_cast<std::size_t>(ncell) * 3, 0.0);
    for (op2::index_t i = 0; i < ncell; ++i) {
      centers[static_cast<std::size_t>(i) * 3] = static_cast<double>(i);
    }
    std::vector<op2::index_t> shift(static_cast<std::size_t>(ncell));
    for (op2::index_t i = 0; i < ncell; ++i) {
      shift[static_cast<std::size_t>(i)] = (i + ncell / 2) % ncell;
    }
    auto& map = ctx.decl_map("shift", cells, cells, 1, std::move(shift));
    auto& cc = ctx.decl_dat<double>(cells, 3, "cc", centers);
    auto& v = ctx.decl_dat<double>(cells, ncomp, "v");
    auto& acc = ctx.decl_dat<double>(cells, 1, "acc");
    ctx.partition(op2::Partitioner::Rcb, cc);
    auto epoch = [&] {
      op2::par_loop("write_v", cells, [](double* x) { x[0] += 1.0; }, op2::write(v));
      op2::par_loop("read_shift", cells,
                    [](const double* x, double* a) { *a = x[0]; },
                    op2::read(v, map, 0), op2::write(acc));
    };
    for (int i = 0; i < warm; ++i) epoch();
    comm.barrier();
    const auto allocs0 = ctx.halo_buffer_allocs();
    const auto stats0 = ctx.total_stats();
    const auto pool0 = comm.pool_stats();
    comm.barrier();
    util::Timer t;
    for (int i = 0; i < epochs; ++i) epoch();
    comm.barrier();
    const double sec = t.elapsed();
    const auto site = comm.allreduce_sum_u64(ctx.halo_buffer_allocs() - allocs0);
    const auto stats1 = ctx.total_stats();
    const auto msgs = comm.allreduce_sum_u64(stats1.halo_msgs - stats0.halo_msgs);
    const auto bytes = comm.allreduce_sum_u64(stats1.halo_bytes - stats0.halo_bytes);
    if (comm.rank() == 0) {
      const auto pool1 = comm.pool_stats();
      out.seconds = sec;
      out.site_allocs = site;
      out.msgs = msgs;
      out.bytes = bytes;
      out.slab_allocs = pool1.slab_allocs - pool0.slab_allocs;
      out.copies_avoided = pool1.copies_avoided - pool0.copies_avoided;
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const int nranks = static_cast<int>(cli.get_int("ranks", 8));
  const int steps = static_cast<int>(cli.get_int("steps", quick ? 2 : 4));

  bench::header("Table III: OP2 communication optimizations (PH / GH / GG)",
                "paper Table III, SS IV-A5");

  bench::section(util::fmt(
      "measured: one coarse Rig250 row on {} rank-threads, {} steps — halo traffic", nranks,
      steps));
  util::Table meas({"config", "halo MB", "halo msgs", "bytes vs default", "msgs vs default"});
  const auto base = run_row(false, false, nranks, steps);
  struct Case {
    const char* name;
    bool ph, gh;
  };
  for (const Case c : {Case{"default", false, false}, Case{"+PH", true, false},
                       Case{"+GH", false, true}, Case{"+PH+GH", true, true}}) {
    const auto m = run_row(c.ph, c.gh, nranks, steps);
    meas.add_row({c.name, util::Table::num(m.bytes / 1e6, 3), std::to_string(m.msgs),
                  util::Table::num(static_cast<double>(m.bytes) / base.bytes, 3),
                  util::Table::num(static_cast<double>(m.msgs) / base.msgs, 3)});
  }
  meas.print_text(std::cout);
  util::write_csv(meas, "table3_measured_halo.csv");

  // PH's motivating pattern (paper SS IV-A5): "sets representing the
  // boundary of the mesh ... only have connectivity with a few internal
  // mesh elements", so when a boundary loop is the first reader of a dirty
  // dat, only those few halo elements need exchanging. The full hydra step
  // above refreshes halos via interior loops first, which masks PH; this
  // micro-sequence isolates it: write a cell dat, then read it only through
  // a boundary-face map.
  bench::section("measured: boundary-only reader micro-sequence (PH's motivating case)");
  util::Table phm({"config", "halo bytes", "halo msgs"});
  for (const bool partial : {false, true}) {
    const auto rig1 = rig::rig250_spec(1);
    const auto mesh1 = rig::generate_row_mesh(rig1.rows[0], rig::resolution_tier("coarse"));
    std::uint64_t bytes = 0, msgs = 0;
    minimpi::World::run(nranks, [&](minimpi::Comm& comm) {
      op2::Config ocfg;
      ocfg.partial_halos = partial;
      op2::Context ctx(comm, ocfg);
      auto& cells = ctx.decl_set("cells", mesh1.ncell);
      auto& hub = ctx.decl_set("hub", mesh1.group_size(rig::BoundaryGroup::Hub));
      // Two entries per boundary face: its own cell plus the next face's
      // cell around the annulus — the second hop crosses partitions and is
      // what creates (small) halo demand.
      std::vector<op2::index_t> b2c;
      const auto hb = mesh1.group_begin[static_cast<std::size_t>(rig::BoundaryGroup::Hub)];
      const auto nhub = hub.global_size();
      for (op2::index_t b = 0; b < nhub; ++b) {
        b2c.push_back(mesh1.bface2cell[static_cast<std::size_t>(hb + b)]);
        b2c.push_back(mesh1.bface2cell[static_cast<std::size_t>(hb + (b + 1) % nhub)]);
      }
      auto& map = ctx.decl_map("b2c", hub, cells, 2, std::move(b2c));
      auto& cc = ctx.decl_dat<double>(cells, 3, "cc", mesh1.cell_center);
      auto& v = ctx.decl_dat<double>(cells, 5, "v");
      auto& acc = ctx.decl_dat<double>(hub, 1, "acc");
      ctx.partition(op2::Partitioner::Rcb, cc);
      for (int t = 0; t < steps; ++t) {
        op2::par_loop("write_v", cells,
                      [](double* x) {
                        for (int c = 0; c < 5; ++c) x[c] = 1.0;
                      },
                      op2::write(v));
        op2::par_loop("read_boundary", hub,
                      [](const double* x, const double* y, double* a) { *a = x[0] + y[0]; },
                      op2::read(v, map, 0),
                      op2::read(v, map, 1),
                      op2::write(acc));
      }
      const auto b = comm.allreduce_sum_u64(ctx.total_stats().halo_bytes);
      const auto mm = comm.allreduce_sum_u64(ctx.total_stats().halo_msgs);
      if (comm.rank() == 0) {
        bytes = b;
        msgs = mm;
      }
    });
    phm.add_row({partial ? "+PH" : "default", std::to_string(bytes), std::to_string(msgs)});
  }
  phm.print_text(std::cout);
  util::write_csv(phm, "table3_measured_ph_micro.csv");

  // Staged gather (GG): message count per coupled step with the toggle.
  bench::section("measured: coupler payload messages per interface step (GG toggle)");
  util::Table gg({"staged_gather", "world msgs", "world bytes"});
  for (const bool staged : {false, true}) {
    jm76::CoupledConfig ccfg;
    ccfg.rig = rig::rig250_spec(2);
    ccfg.res = rig::resolution_tier("coarse");
    ccfg.flow.inner_iters = 1;
    ccfg.hs_ranks = {2, 2};
    ccfg.cus_per_interface = 2;
    ccfg.staged_gather = staged;
    ccfg.pipelined = false;
    std::uint64_t msgs = 0, bytes = 0;
    minimpi::World::run(ccfg.layout().world_size(), [&](minimpi::Comm& world) {
      jm76::CoupledRig rigrun(world, ccfg);
      world.barrier();
      if (world.rank() == 0) world.reset_traffic();  // ignore setup traffic
      world.barrier();
      rigrun.run(3);
      world.barrier();
      if (world.rank() == 0) {
        const auto t = world.traffic();
        msgs = t.messages;
        bytes = t.bytes;
      }
    });
    gg.add_row({staged ? "on (GG)" : "off", std::to_string(msgs), std::to_string(bytes)});
  }
  gg.print_text(std::cout);
  util::write_csv(gg, "table3_measured_gg.csv");

  // -------------------------------------------------------------------------
  // Halo transport: regime timings and the steady-state allocation gate.
  int gate_failures = 0;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++gate_failures;
      std::cout << "GATE FAIL: " << what << "\n";
    }
  };

  bench::section("measured: halo transport — exchange regimes");
  const int bw_cells = quick ? 12000 : 40000;
  const int bw_comp = 64;
  const int bw_epochs = quick ? 6 : 10;
  const int lat_cells = 2048;
  const int lat_comp = 2;
  const int lat_epochs = quick ? 40 : 100;
  const int trials = quick ? 2 : 3;

  // Best-of-N wall time per regime; the meters are gated on every trial.
  double bw_s = 1e30, lat_s = 1e30;
  ZcRun bw_run;
  for (int r = 0; r < trials; ++r) {
    const auto b = run_zc_micro(2, bw_cells, bw_comp, 3, bw_epochs);
    if (b.seconds < bw_s) { bw_s = b.seconds; bw_run = b; }
    // Deterministic per-site meter: zero growth after warm-up.
    gate(b.site_allocs == 0, "steady-state send-site growth != 0");
    // Every steady-state message moved its payload (no copies on the
    // clean path); pool growth, if any, is transient warm-up — never
    // per-message.
    gate(b.copies_avoided == b.msgs, "a steady-state message copied its payload");
    gate(b.slab_allocs * 4 <= b.msgs, "pool allocating per message");
    lat_s = std::min(lat_s, run_zc_micro(2, lat_cells, lat_comp, 3, lat_epochs).seconds);
  }
  util::Table zc({"regime", "payload/epoch", "epochs", "seconds"});
  zc.add_row({"bandwidth", util::fmt("{} MB", bw_cells / 2 * bw_comp * 8 / 1000000),
              std::to_string(bw_epochs), util::Table::num(bw_s, 4)});
  zc.add_row({"latency", util::fmt("{} KB", lat_cells / 2 * lat_comp * 8 / 1000),
              std::to_string(lat_epochs), util::Table::num(lat_s, 4)});
  zc.print_text(std::cout);
  std::cout << util::fmt(
      "steady state ({} msgs): site allocs {}, pool slab allocs {}, payload moves {}\n",
      bw_run.msgs, bw_run.site_allocs, bw_run.slab_allocs, bw_run.copies_avoided);

  bench::write_bench_json(
      "halo", {{"bw_seconds", bw_s},
               {"lat_seconds", lat_s},
               {"steady_site_allocs", static_cast<double>(bw_run.site_allocs)},
               {"steady_slab_allocs", static_cast<double>(bw_run.slab_allocs)},
               {"steady_msgs", static_cast<double>(bw_run.msgs)},
               {"steady_copies_avoided", static_cast<double>(bw_run.copies_avoided)},
               {"gate_failures", static_cast<double>(gate_failures)}});

  // Model layer: communication cost (halo + coupler transfer) per step at
  // the paper's configs. The paper's Table III runtimes cover an unspecified
  // iteration count, so the reproduction target is the *ordering and
  // relative gains* of the optimization ladder, not absolute seconds.
  bench::section("model: projected communication s/step at the paper's node counts");
  util::Table proj({"system", "mesh", "nodes", "default comm", "+PH", "+GG+GH+PH",
                    "best/default", "paper best/default"});
  struct PaperRow {
    const char* system;
    perf::MachineSpec machine;
    perf::WorkloadSpec wl;
    int nodes;
    double paper_default, paper_best;
  };
  const PaperRow rows[] = {
      {"ARCHER2", perf::archer2(), perf::w430m(), 27, 41.62, 39.87},
      {"ARCHER2", perf::archer2(), perf::w458b(), 288, 41.24, 18.19},
      {"Cirrus", perf::cirrus(), perf::w430m(), 25, 19.07, 5.09},
      {"Cirrus", perf::cirrus(), perf::w653m(), 29, 23.79, 6.74},
  };
  auto comm_cost = [](const perf::StepCost& c) { return c.halo + c.coupler_wait; };
  for (const auto& r : rows) {
    perf::ScalingModel model(r.machine, r.wl);
    perf::ModelOptions def, ph, all;
    def.partial_halos = ph.partial_halos = all.partial_halos = false;
    def.grouped_halos = ph.grouped_halos = all.grouped_halos = false;
    def.staged_gather = ph.staged_gather = all.staged_gather = false;
    ph.partial_halos = true;
    all.partial_halos = all.grouped_halos = all.staged_gather = true;
    const double cd = comm_cost(model.step_cost(r.nodes, def));
    const double cp = comm_cost(model.step_cost(r.nodes, ph));
    const double ca = comm_cost(model.step_cost(r.nodes, all));
    proj.add_row({r.system, r.wl.name, std::to_string(r.nodes), util::Table::num(cd, 3),
                  util::Table::num(cp, 3), util::Table::num(ca, 3),
                  util::Table::num(ca / cd, 2),
                  util::Table::num(r.paper_best / r.paper_default, 2)});
  }
  proj.print_text(std::cout);
  util::write_csv(proj, "table3_model.csv");

  std::cout << "\nPaper shape check: PH trims a few percent of halo bytes on CPU; grouping\n"
               "plus the staged gather removes most per-message device-copy overhead on\n"
               "GPU nodes (paper: 60-70% runtime reduction on Cirrus, modest on ARCHER2\n"
               "where packing outweighs latency).\n";
  if (gate_failures > 0) {
    std::cout << "\n" << gate_failures << " transport gate(s) FAILED\n";
    return 1;
  }
  return 0;
}
