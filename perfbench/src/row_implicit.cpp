// row_implicit — one blade row (R1) on 2 minimpi ranks with RCB
// partitioning, steady RANS with implicit pseudo-time: every outer
// iteration solves M·dq = res with vcgt::krylov CG, so every CG iteration
// pays a halo exchange (the SpMV's read_span) plus an allreduce. The
// coupler is absent.
//
// One operation is a solve: RowSolver::initialize() followed by
// solve_steady() to a fixed 1e-3 residual drop. Its time counts whatever
// the iteration count is, so a preconditioner that halves the iterations
// while making each dearer shows as the gain it is.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <memory>

#include "perfbench/src/common.hpp"
#include "src/hydra/solver.hpp"
#include "src/op2/op2.hpp"
#include "src/rig/annulus.hpp"
#include "src/util/trace.hpp"

namespace perfbench {

namespace vc = vcgt;

namespace {

constexpr double kRpm = 11000.0;
constexpr int kRanks = 2;
const vc::rig::MeshResolution kRes{16, 8, 128};  ///< 16,384 cells
constexpr double kDrop = 1e-3;
constexpr int kMaxOuter = 400;  ///< a solve that needs more has failed
constexpr int kSetups = 15;     ///< full set-ups timed per run (setup_s = median)
constexpr double kRtol = 1e-6;  ///< converged monitors vs reference

vc::rig::RowSpec bench_row() { return vc::rig::rig250_spec(2, kRpm).rows[1]; }

vc::hydra::FlowConfig bench_flow(double p_back_ratio) {
  vc::hydra::FlowConfig flow;
  flow.steady = true;
  flow.implicit_dual_time = true;
  flow.p_back_ratio = p_back_ratio;
  return flow;
}

/// Per-rank solve record gathered to rank 0.
enum Field : int {
  kIters, kLoopS, kLoopCalls, kLoopElems, kHaloMsgs, kHaloBytes, kHaloS, kKrylovIters,
  kKrylovS, kMsgs, kBytes, kWaitS, kRms, kMeanP, kMdotIn, kMdotOut, kRecord
};
const char* kMonitorNames[] = {"rms", "mean_p", "mdot_in", "mdot_out"};

struct Totals {
  std::vector<double> solve_s;
  double wall = 0.0;  ///< summed solve walls
  double outer = 0.0;
  double loop_max = 0.0, loop_calls = 0.0, loop_elems = 0.0, loop_s = 0.0;
  double halo_msgs = 0.0, halo_bytes = 0.0, halo_max = 0.0;
  double krylov_iters = 0.0, krylov_max = 0.0;
  double msgs = 0.0, bytes = 0.0, wait_max = 0.0, slab_allocs = 0.0;
  std::vector<double> iters;
};

/// One set-up of `row` on `ctx`, timed layer by layer: mesh generation,
/// RowSolver construction, RCB partition and initialize.
std::unique_ptr<vc::hydra::RowSolver> setup_row(vc::op2::Context& ctx,
                                                const vc::rig::RowSpec& row,
                                                const vc::rig::MeshResolution& res,
                                                const vc::hydra::FlowConfig& flow, double omega,
                                                RowSetupLayers* ms) {
  const double t0 = now_s();
  const auto mesh = vc::rig::generate_row_mesh(row, res);
  const double t1 = now_s();
  auto solver = std::make_unique<vc::hydra::RowSolver>(ctx, mesh, row, omega, flow);
  const double t2 = now_s();
  ctx.partition(vc::op2::Partitioner::Rcb, solver->cell_center());
  const double t3 = now_s();
  solver->initialize();
  const double t4 = now_s();
  *ms = {(t1 - t0) * 1e3, (t3 - t2) * 1e3, (t4 - t3) * 1e3};
  return solver;
}

}  // namespace

RowSetupLayers time_row_setup(const vc::rig::RowSpec& row, const vc::rig::MeshResolution& res,
                              const vc::hydra::FlowConfig& flow, double omega, int reps) {
  std::vector<double> mesh_ms, part_ms, init_ms;
  for (int i = 0; i < reps; ++i) {
    vc::op2::Context ctx;
    RowSetupLayers ms;
    setup_row(ctx, row, res, flow, omega, &ms);
    mesh_ms.push_back(ms.mesh_gen_ms);
    part_ms.push_back(ms.partition_ms);
    init_ms.push_back(ms.init_ms);
  }
  return {median(mesh_ms), median(part_ms), median(init_ms)};
}

Result run_row_implicit(const Options& opt) {
  const auto refs = Refs::load(opt.refs_dir + "/row_implicit.ref");
  const int nops = refs.count("op", "p_back_ratio");
  if (nops == 0) throw std::runtime_error("row_implicit.ref: empty catalog");
  Rng rng(opt.seed);
  const int op = static_cast<int>(rng.below(static_cast<std::size_t>(nops)));
  const std::string opkey = "op." + std::to_string(op);

  Result res;
  res.meta["operating_point"] = std::to_string(op);
  res.meta["busy_threads"] = std::to_string(kRanks);
  Totals tot, traced;
  std::vector<double> setups, mesh_ms, part_ms, init_ms;
  TracedOps traced_ops(opt);
  std::vector<double> emitted;

  const auto row = bench_row();
  const long cells = static_cast<long>(kRes.nx) * kRes.nr * kRes.ntheta;
  const double omega = vc::rig::rig250_spec(2, kRpm).omega();

  auto run_op = [&](double p_back_ratio, bool emit) {
    const auto flow = bench_flow(p_back_ratio);
    vc::minimpi::World::run(kRanks, [&](vc::minimpi::Comm& comm) {
      const bool root = comm.rank() == 0;
      std::unique_ptr<vc::op2::Context> ctx;
      std::unique_ptr<vc::hydra::RowSolver> solver;
      for (int i = 0; i < (emit ? 1 : kSetups); ++i) {
        solver.reset();
        ctx.reset();
        comm.barrier();
        const double t0 = now_s();
        ctx = std::make_unique<vc::op2::Context>(comm, vc::op2::Config{});
        RowSetupLayers ms;
        solver = setup_row(*ctx, row, kRes, flow, omega, &ms);
        comm.barrier();
        if (root) {
          setups.push_back(now_s() - t0);
          mesh_ms.push_back(ms.mesh_gen_ms);
          part_ms.push_back(ms.partition_ms);
          init_ms.push_back(ms.init_ms);
        }
      }

      const double t_start = now_s();
      for (int solve = 0;; ++solve) {
        const bool trace_this = opt.trace && solve % 2 == 1;
        solver->initialize();
        ctx->reset_stats();
        if (root && trace_this) traced_ops.open();
        comm.barrier();
        const double b1 = now_s();
        const std::uint64_t slabs0 = root ? comm.pool_stats().slab_allocs : 0;
        const OwnTraffic own0 = OwnTraffic::read(comm);
        int iters = 0;
        {
          vc::trace::Span span("bench:row.solve_steady");
          iters = solver->solve_steady(kMaxOuter, kDrop, 1);
        }
        const OwnTraffic own = OwnTraffic::read(comm) - own0;
        comm.barrier();
        const double wall = now_s() - b1;
        const std::uint64_t slabs = root ? comm.pool_stats().slab_allocs - slabs0 : 0;
        if (root && trace_this) traced_ops.close();

        std::vector<double> rec(kRecord, 0.0);
        rec[kIters] = iters;
        const auto loops = ctx->total_stats();
        rec[kLoopS] = loops.seconds;
        rec[kLoopCalls] = static_cast<double>(loops.invocations);
        rec[kLoopElems] = static_cast<double>(loops.elements);
        rec[kHaloMsgs] = static_cast<double>(loops.halo_msgs);
        rec[kHaloBytes] = static_cast<double>(loops.halo_bytes);
        rec[kHaloS] = loops.halo_seconds;
        // Krylov: the CG iteration is one LoopChain execution (xpay + SpMV)
        // per iteration; its other loops live in the plan table.
        const std::string kpfx = row.name + ":ksolve:";
        if (const auto* chain = ctx->find_chain(kpfx + "iter")) {
          rec[kKrylovIters] = static_cast<double>(chain->invocations);
          rec[kKrylovS] = chain->seconds;
        }
        for (const auto& l : ctx->loop_stats()) {
          if (l.name.rfind(kpfx, 0) == 0) rec[kKrylovS] += l.seconds;
        }
        rec[kMsgs] = own.msgs;
        rec[kBytes] = own.bytes;
        rec[kWaitS] = own.wait_s;
        rec[kRms] = solver->residual_rms();
        rec[kMeanP] = solver->mean_pressure();
        rec[kMdotIn] = solver->mass_flow(vc::rig::BoundaryGroup::Inlet);
        rec[kMdotOut] = solver->mass_flow(vc::rig::BoundaryGroup::Outlet);
        const auto all = comm.gatherv(std::span<const double>(rec), 0);

        int go = 0;
        if (root) {
          if (emit) {
            emitted = all;
          } else if (solve > 0) {  // solve 0 is the untimed warm-up
            ++res.attempted;
            Totals& t = trace_this ? traced : tot;
            t.solve_s.push_back(wall);
            t.wall += wall;
            t.outer += iters;
            t.iters.push_back(iters);
            t.slab_allocs += static_cast<double>(slabs);
            double loop_max = 0.0, halo_max = 0.0, krylov_max = 0.0, wait_max = 0.0;
            for (int r = 0; r < kRanks; ++r) {
              const double* f = &all[static_cast<std::size_t>(r * kRecord)];
              loop_max = std::max(loop_max, f[kLoopS]);
              halo_max = std::max(halo_max, f[kHaloS]);
              krylov_max = std::max(krylov_max, f[kKrylovS]);
              wait_max = std::max(wait_max, f[kWaitS]);
              t.loop_calls += f[kLoopCalls];
              t.loop_elems += f[kLoopElems];
              t.loop_s += f[kLoopS];
              t.halo_msgs += f[kHaloMsgs];
              t.halo_bytes += f[kHaloBytes];
              t.msgs += f[kMsgs];
              t.bytes += f[kBytes];
            }
            t.krylov_iters += all[kKrylovIters];
            t.loop_max += loop_max;
            t.halo_max += halo_max;
            t.krylov_max += krylov_max;
            t.wait_max += wait_max;
            std::string bad;
            if (iters >= kMaxOuter) bad = "no 1e-3 drop within " + std::to_string(kMaxOuter);
            for (int m = 0; m < 4; ++m) {
              const double want = refs.get(opkey + "." + kMonitorNames[m]);
              if (!close(all[static_cast<std::size_t>(kRms + m)], want, kRtol)) {
                bad = std::string(kMonitorNames[m]) + " = " +
                      std::to_string(all[static_cast<std::size_t>(kRms + m)]) +
                      ", reference " + std::to_string(want);
              }
            }
            if (!bad.empty()) res.fail("row_implicit solve " + std::to_string(solve) + ": " + bad);
          }
          // At least one measured solve, and one of each kind when traced.
          const int min_last = opt.trace ? 2 : 1;
          go = emit ? 0 : (now_s() - t_start < opt.seconds || solve < min_last) ? 1 : 0;
        }
        if (comm.bcast_value(go, 0) == 0) break;
      }
    });
  };

  if (opt.emit_refs) {
    std::cout << std::setprecision(17);
    for (int i = 0; i < nops; ++i) {
      const std::string key = "op." + std::to_string(i);
      run_op(refs.get(key + ".p_back_ratio"), /*emit=*/true);
      std::cout << key << ".p_back_ratio " << refs.get(key + ".p_back_ratio") << "\n";
      std::cout << key << ".outer_iters " << emitted[kIters] << "\n";
      for (int m = 0; m < 4; ++m) {
        std::cout << key << "." << kMonitorNames[m] << " " << emitted[kRms + m] << "\n";
      }
    }
    return res;
  }

  run_op(refs.get(opkey + ".p_back_ratio"), /*emit=*/false);

  res.meta["samples"] = std::to_string(tot.solve_s.size()) + " solves, " +
                        std::to_string(setups.size()) + " set-ups";
  res.set("setup_s", median(setups));
  res.set("op_ms.p50", quantile(tot.solve_s, 0.5) * 1e3);
  res.set("op_ms.p90", quantile(tot.solve_s, 0.9) * 1e3);
  // Both rates are derived from the median solve time. mcups counts a fixed
  // amount of work per solve, the reference's outer iterations, so a solve
  // that needs fewer (dearer) iterations but less time counts as a gain.
  res.set("ops_per_s", 1.0 / median(tot.solve_s));
  res.set("mcups", static_cast<double>(cells) * refs.get(opkey + ".outer_iters") /
                       median(tot.solve_s) * 1e-6);
  res.set("peak_rss_mb", peak_rss_mb());

  if (opt.trace) {
    const double outer = tot.outer;
    res.set("op2.loop_ms_per_step", tot.loop_max / outer * 1e3);
    res.set("op2.elems_per_s", tot.loop_elems / tot.loop_s);
    res.set("op2.loop_calls_per_step", tot.loop_calls / outer);
    res.set("op2.halo_msgs_per_outer", tot.halo_msgs / outer);
    res.set("op2.halo_bytes_per_outer", tot.halo_bytes / outer);
    res.set("op2.halo_wait_ms_per_outer", tot.halo_max / outer * 1e3);
    res.set("op2.partition_ms", median(part_ms));
    res.set("rig.mesh_gen_ms", median(mesh_ms));
    res.set("hydra.init_ms", median(init_ms));
    res.set("hydra.outer_iters", median(tot.iters));
    res.set("krylov.iters_per_outer", tot.krylov_iters / outer);
    res.set("krylov.ms_per_outer", tot.krylov_max / outer * 1e3);
    res.set("minimpi.msgs_per_step", tot.msgs / outer);
    res.set("minimpi.bytes_per_step", tot.bytes / outer);
    res.set("minimpi.wait_ms_per_step", tot.wait_max / outer * 1e3);
    res.set("minimpi.wait_ms_per_outer", tot.wait_max / outer * 1e3);
    res.set("minimpi.slab_allocs_per_step", tot.slab_allocs / outer);
    res.set("ledger.unattributed_frac", 1.0 - tot.loop_max / tot.wall);
    res.set("trace.overhead_frac",
            quantile(traced.solve_s, 0.5) / quantile(tot.solve_s, 0.5) - 1.0);
    res.set("trace.dropped", static_cast<double>(traced_ops.dropped()));
  }
  return res;
}

}  // namespace perfbench
