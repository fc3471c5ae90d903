// bench_chain — measures what loop-chain fusion (DESIGN.md §10) buys on the
// hydra RK stage pipeline, the tentpole workload it was built for:
//
// The "unchained" side of every comparison (the *_unchained JSON keys) is
// the same step chain run with
// op2::Config::chain_tile = 0, the eager reference: each member executes as
// its own par_loop, exactly as if issued one by one.
//
//  1. Serial fusion speedup: fused vs eager advance_inner on a mesh whose
//     per-cell state far exceeds the last-level cache, sweeping the
//     cross-loop tile width (tile 0 is the eager row). The fused path
//     revisits each tile's cells across every member loop while they are
//     still cache-resident instead of streaming the whole field once per
//     loop.
//  2. Distributed halo accounting (--ranks, default 2): fused chain epochs
//     pack every dirty dat needed by a segment into one message per
//     neighbor, vs one message per dat per loop on the eager path.
//     Reports message and epoch counts plus bit-identity of the resulting
//     flow field. Both paths run with latency hiding off so they fold in
//     the same flat ascending order (bit-exact comparison; see
//     src/op2/chain.cpp's execution-order contract).
//  3. Latency-dominated limit: same comparison on a small per-rank mesh
//     with an emulated per-message interconnect latency (minimpi fault
//     Delay, --latency_us, default 500). Fewer fused epochs -> fewer
//     latency payments; this is the headline chain_speedup.
//
// Writes BENCH_chain.json (chain_speedup, halo message counts). Options:
// --scale=N (mesh scale, default 10), --iters=N (timed inner iterations,
// default 8), --quick (scale 4, 3 iters, for CI smoke).
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/hydra/solver.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/op2/op2.hpp"
#include "src/rig/annulus.hpp"
#include "src/rig/rowspec.hpp"
#include "src/util/timer.hpp"

using namespace vcgt;

namespace {

rig::RowSpec bench_row() {
  rig::RowSpec row;
  row.name = "B";
  row.rotor = false;
  row.x_min = 0.0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  return row;
}

hydra::FlowConfig bench_flow() {
  hydra::FlowConfig cfg;
  // Second-order + viscous turns on the gradient/limiter loops, so the RK
  // step chain carries the full ~17-member pipeline the solver fuses.
  cfg.second_order = true;
  cfg.viscous = true;
  // Applied to fused AND eager runs (same mesh numbering both sides,
  // so the comparison stays bit-identical): face-by-cell ordering is what
  // lets cross-loop tiles keep a face member's cells cache-hot.
  cfg.sort_faces = true;
  return cfg;
}

struct RkRun {
  double seconds = 0.0;
  double halo_seconds = 0.0;
  std::uint64_t halo_msgs = 0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t chain_epochs = 0;
  std::uint64_t chain_msgs = 0;
  std::vector<double> q;  ///< gathered flow field (bit-identity checks)
};

/// One fresh solver on `comm` (or serial), `iters` timed inner iterations
/// after a one-iteration warmup that builds and caches all plans. `tile` is
/// op2::Config::chain_tile (0 = eager).
///
/// Distributed callers pass latency_hiding=false: the solo executor's
/// core/tail overlap folds indirect increments in core-then-tail order
/// instead of flat ascending order (see the execution-order contract in
/// src/op2/chain.cpp), so disabling it keeps the fused-vs-eager
/// comparison bit-exact at every rank count — and on this harness's
/// threads-as-ranks transport the "overlap" is only time-sharing anyway.
RkRun run_rk(const rig::AnnulusMesh& mesh, int tile, int iters,
             minimpi::Comm comm = {}, bool latency_hiding = true) {
  op2::Config oc;
  oc.chain_tile = tile;
  oc.latency_hiding = latency_hiding;
  op2::Context ctx(comm, oc);
  const auto row = bench_row();
  hydra::RowSolver solver(ctx, mesh, row, /*omega=*/0.0, bench_flow());
  ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
  solver.initialize();
  solver.advance_inner(1);  // warmup: plan build + first-touch
  ctx.reset_stats();
  util::Timer t;
  solver.advance_inner(iters);
  RkRun out;
  out.seconds = t.elapsed();
  const auto total = ctx.total_stats();
  out.halo_msgs = total.halo_msgs;
  out.halo_seconds = total.halo_seconds;
  out.halo_bytes = total.halo_bytes;
  if (const auto* chain = ctx.find_chain(row.name + ":step")) {
    out.chain_epochs = chain->halo_epochs;
    out.chain_msgs = chain->halo_msgs;
  }
  out.q = ctx.fetch_global(solver.q());
  return out;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const int scale = static_cast<int>(cli.get_int("scale", quick ? 4 : 10));
  const int iters = static_cast<int>(cli.get_int("iters", quick ? 3 : 8));

  bench::header("Loop-chain fusion on the hydra RK pipeline",
                "DESIGN.md §10; paper §III loop-level execution plans");

  const auto row = bench_row();
  const rig::AnnulusMesh mesh =
      rig::generate_row_mesh(row, {4 * scale, 3 * scale, 12 * scale});
  std::cout << "mesh: " << mesh.ncell << " cells, " << mesh.nface << " faces ("
            << iters << " timed inner iterations)\n";

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("ncell", static_cast<double>(mesh.ncell));
  metrics.emplace_back("iters", static_cast<double>(iters));

  // --- 1. serial fusion speedup, sweeping the cross-loop tile width -------
  bench::section("serial RK: fused vs eager (tile sweep, tile 0 = eager)");
  const RkRun plain = run_rk(mesh, /*tile=*/0, iters);

  util::Table sweep({"chain_tile", "seconds", "speedup", "bit-identical"});
  sweep.add_row({"0", util::Table::num(plain.seconds, 3), util::Table::num(1.0, 2), "-"});
  double best_s = 0.0;
  int best_tile = 0;
  RkRun best;
  for (const int tile : {512, 1024, 2048, 4096, 8192}) {
    const RkRun r = run_rk(mesh, tile, iters);
    const double sp = plain.seconds / r.seconds;
    sweep.add_row({std::to_string(tile), util::Table::num(r.seconds, 3),
               util::Table::num(sp, 2), bit_equal(r.q, plain.q) ? "yes" : "NO"});
    if (sp > best_s) {
      best_s = sp;
      best_tile = tile;
      best = r;
    }
  }
  sweep.print_text(std::cout);
  std::cout << util::fmt("  best: tile {} -> {}x\n", best_tile,
                         util::Table::num(best_s, 2));
  metrics.emplace_back("rk_seconds_unchained", plain.seconds);
  metrics.emplace_back("rk_seconds_chained", plain.seconds / best_s);
  metrics.emplace_back("chain_speedup_serial", best_s);
  metrics.emplace_back("chain_tile_best", static_cast<double>(best_tile));
  metrics.emplace_back("serial_bit_identical", bit_equal(best.q, plain.q) ? 1.0 : 0.0);

  // --- 2. distributed RK: fused halo epochs --------------------------------
  // The headline chain win. Every eager par_loop with stale indirect
  // reads opens its own halo epoch — one message per dirty dat per neighbor
  // plus a rendezvous with every neighbor rank — so an RK stage pays tens of
  // exchange latencies. The chained segments prefetch everything a segment
  // needs in one grouped epoch up front.
  const int nranks = static_cast<int>(cli.get_int("ranks", 2));
  const int dscale = static_cast<int>(cli.get_int("dscale", std::max(2, scale / 2)));
  bench::section(util::fmt("distributed ({} ranks): RK time and fused halo epochs", nranks));
  const rig::AnnulusMesh dmesh =
      rig::generate_row_mesh(row, {4 * dscale, 3 * dscale, 12 * dscale});
  const int diters = iters;
  RkRun dplain, dchain;
  minimpi::World::run(nranks, [&](minimpi::Comm& comm) {
    const RkRun p = run_rk(dmesh, /*tile=*/0, diters, comm, /*latency_hiding=*/false);
    const RkRun c = run_rk(dmesh, best_tile, diters, comm, /*latency_hiding=*/false);
    if (comm.rank() == 0) {
      dplain = p;
      dchain = c;
    }
  });
  const double dist_speedup = dplain.seconds / dchain.seconds;
  util::Table halo({"path", "seconds", "halo s", "halo msgs", "halo MB", "fused epochs"});
  halo.add_row({"eager", util::Table::num(dplain.seconds, 3),
                util::Table::num(dplain.halo_seconds, 3),
                std::to_string(dplain.halo_msgs),
                util::Table::num(static_cast<double>(dplain.halo_bytes) / 1e6, 2), "-"});
  halo.add_row({"fused", util::Table::num(dchain.seconds, 3),
                util::Table::num(dchain.halo_seconds, 3),
                std::to_string(dchain.halo_msgs),
                util::Table::num(static_cast<double>(dchain.halo_bytes) / 1e6, 2),
                std::to_string(dchain.chain_epochs)});
  halo.print_text(std::cout);
  std::cout << util::fmt("  fused speedup {}x; rank-0 field bit-identical: {}\n",
                         util::Table::num(dist_speedup, 2),
                         bit_equal(dchain.q, dplain.q) ? "yes" : "NO");
  metrics.emplace_back("dist_seconds_unchained", dplain.seconds);
  metrics.emplace_back("dist_seconds_chained", dchain.seconds);
  metrics.emplace_back("chain_speedup_dist", dist_speedup);
  metrics.emplace_back("halo_msgs_unchained", static_cast<double>(dplain.halo_msgs));
  metrics.emplace_back("halo_msgs_chained", static_cast<double>(dchain.halo_msgs));
  metrics.emplace_back("halo_epochs_chained", static_cast<double>(dchain.chain_epochs));
  metrics.emplace_back("dist_bit_identical", bit_equal(dchain.q, dplain.q) ? 1.0 : 0.0);

  // --- 3. emulated interconnect: the latency-dominated limit ---------------
  // The threads-as-ranks transport above delivers messages at memcpy speed,
  // so halo traffic barely shows up in wall-clock. Real interconnects charge
  // ~fixed latency per message, and strong scaling drives per-rank meshes
  // small enough that those latencies dominate — precisely the regime the
  // paper's fused/grouped exchanges target. Emulate it with the minimpi
  // fault plan's Delay (wall-clock sleep per send op, never touches
  // content): every halo message pays a fixed latency, so the chained
  // path's fewer fused epochs convert directly into wall-clock speedup.
  // This is the headline chain_speedup.
  // 500 us per message models a commodity-ethernet-class rendezvous (TCP
  // stack + congestion), the interconnect the paper's clusters explicitly
  // avoid; see EXPERIMENTS.md for the sweep across latencies.
  const double net_lat = cli.get_double("latency_us", 500.0) * 1e-6;
  const int lscale = static_cast<int>(cli.get_int("lscale", 2));
  bench::section(util::fmt("latency-dominated limit ({} ranks, {} us/message)", nranks,
                           util::Table::num(net_lat * 1e6, 0)));
  const rig::AnnulusMesh lmesh =
      rig::generate_row_mesh(row, {4 * lscale, 3 * lscale, 12 * lscale});
  minimpi::WorldOptions lopts;
  {
    minimpi::FaultConfig fc;
    fc.seed = 1;
    fc.p_delay = 1.0;  // every send pays the emulated wire latency
    fc.delay_seconds = net_lat;
    lopts.fault = std::make_shared<minimpi::FaultPlan>(fc);
  }
  RkRun lplain, lchain;
  minimpi::World::run(
      nranks,
      [&](minimpi::Comm& comm) {
        const RkRun p = run_rk(lmesh, /*tile=*/0, diters, comm, /*latency_hiding=*/false);
        const RkRun c = run_rk(lmesh, best_tile, diters, comm, /*latency_hiding=*/false);
        if (comm.rank() == 0) {
          lplain = p;
          lchain = c;
        }
      },
      lopts);
  const double lat_speedup = lplain.seconds / lchain.seconds;
  util::Table lat({"path", "seconds", "halo s", "halo msgs", "fused epochs"});
  lat.add_row({"eager", util::Table::num(lplain.seconds, 3),
               util::Table::num(lplain.halo_seconds, 3),
               std::to_string(lplain.halo_msgs), "-"});
  lat.add_row({"fused", util::Table::num(lchain.seconds, 3),
               util::Table::num(lchain.halo_seconds, 3),
               std::to_string(lchain.halo_msgs), std::to_string(lchain.chain_epochs)});
  lat.print_text(std::cout);
  std::cout << util::fmt("  fused speedup {}x; rank-0 field bit-identical: {}\n",
                         util::Table::num(lat_speedup, 2),
                         bit_equal(lchain.q, lplain.q) ? "yes" : "NO");
  metrics.emplace_back("lat_seconds_unchained", lplain.seconds);
  metrics.emplace_back("lat_seconds_chained", lchain.seconds);
  metrics.emplace_back("chain_speedup", lat_speedup);
  metrics.emplace_back("lat_halo_msgs_unchained", static_cast<double>(lplain.halo_msgs));
  metrics.emplace_back("lat_halo_msgs_chained", static_cast<double>(lchain.halo_msgs));
  metrics.emplace_back("lat_bit_identical", bit_equal(lchain.q, lplain.q) ? 1.0 : 0.0);

  bench::write_bench_json("chain", metrics);
  return 0;
}
