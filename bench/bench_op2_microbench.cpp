// Micro-benchmarks (google-benchmark) of the op2 runtime and coupler
// primitives: par_loop dispatch, indirect increments, the krylov stencil
// SpMV, coloring, partitioner cost, ADT build/query vs brute force. These
// quantify the constants behind the execution plans the paper's OP2 code
// generator emits.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/jm76/adt.hpp"
#include "src/krylov/krylov.hpp"
#include "src/op2/op2.hpp"
#include "src/rig/annulus.hpp"
#include "src/rig/interface.hpp"
#include "src/rig/rowspec.hpp"
#include "src/util/rng.hpp"

using namespace vcgt;
using op2::Access;
using op2::index_t;

namespace {

rig::AnnulusMesh bench_mesh(int scale) {
  rig::RowSpec row;
  row.x_min = 0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  return rig::generate_row_mesh(row, {4 * scale, 3 * scale, 12 * scale});
}

struct LoopFixture {
  explicit LoopFixture(int scale)
      : mesh(bench_mesh(scale)),
        cells(ctx.decl_set("cells", mesh.ncell)),
        faces(ctx.decl_set("faces", mesh.nface)),
        f2c(ctx.decl_map("f2c", faces, cells, 2, mesh.face2cell)),
        x(ctx.decl_dat<double>(cells, 1, "x")),
        res(ctx.decl_dat<double>(cells, 1, "res")) {
    op2::par_loop("init", cells, [](double* v) { *v = 1.0; }, op2::write(x));
  }
  op2::Context ctx;
  rig::AnnulusMesh mesh;
  op2::Set& cells;
  op2::Set& faces;
  op2::Map& f2c;
  op2::Dat<double>& x;
  op2::Dat<double>& res;
};

void BM_ParLoopDirect(benchmark::State& state) {
  LoopFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    op2::par_loop("direct", f.cells, [](const double* a, double* b) { *b = 2.0 * *a; },
                  op2::read(f.x), op2::write(f.res));
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.ncell);
}
BENCHMARK(BM_ParLoopDirect)->Arg(1)->Arg(2)->Arg(4);

// Fixed cost of one par_loop call: a direct loop over a 16-element set, so
// the plan lookup, argument binding, element executor and metering dominate
// the kernel work.
void BM_ParLoopEmpty(benchmark::State& state) {
  op2::Context ctx;
  auto& tiny = ctx.decl_set("tiny", 16);
  auto& a = ctx.decl_dat<double>(tiny, 1, "a");
  for (auto _ : state) {
    op2::par_loop("empty", tiny, [](double* v) { *v += 1.0; }, op2::rw(a));
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParLoopEmpty);

// Fixed cost per fused chain member: 8 members that each touch a 16-element
// set, declared once outside the timing loop (as the solvers do).
void BM_ChainMemberEmpty(benchmark::State& state) {
  constexpr int kMembers = 8;
  op2::Context ctx;
  auto& tiny = ctx.decl_set("tiny", 16);
  auto& a = ctx.decl_dat<double>(tiny, 1, "a");
  op2::LoopChain chain(ctx, "empty_chain");
  for (int m = 0; m < kMembers; ++m) {
    chain.add("empty", tiny, [](double* v) { *v += 1.0; }, op2::rw(a));
  }
  for (auto _ : state) {
    chain.execute();
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kMembers);
}
BENCHMARK(BM_ChainMemberEmpty);

void BM_ParLoopIndirectInc(benchmark::State& state) {
  LoopFixture f(static_cast<int>(state.range(0)));
  op2::par_loop("zero", f.cells, [](double* v) { *v = 0.0; }, op2::write(f.res));
  for (auto _ : state) {
    op2::par_loop("flux", f.faces,
                  [](const double* a, const double* b, double* ra, double* rb) {
                    const double fl = 0.5 * (*a + *b);
                    *ra += fl;
                    *rb -= fl;
                  },
                  op2::read(f.x, f.f2c, 0), op2::read(f.x, f.f2c, 1),
                  op2::inc(f.res, f.f2c, 0),
                  op2::inc(f.res, f.f2c, 1));
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nface);
}
BENCHMARK(BM_ParLoopIndirectInc)->Arg(1)->Arg(2)->Arg(4);

// The face kernel of BM_ParLoopIndirectInc, kept out of line as GCC keeps
// hydra's large face kernels at -O2. With op2's per-element argument
// helpers inlined, GCC clones the body without its unread parameters
// (IPA-SRA, `.isra` in nm) and drops their map loads and pointers; while
// the helpers were out of line, each bound argument cost a call per
// element, read or not.
struct DeadArgFlux {
  template <class... Dead>
  [[gnu::noinline]] void operator()(const double* a, const double* b, double* ra, double* rb,
                                    Dead...) const {
    const double fl = 0.5 * (*a + *b);
    *ra += fl;
    *rb -= fl;
  }
};

template <std::size_t... I>
void dead_arg_flux(LoopFixture& f, std::index_sequence<I...>) {
  op2::par_loop("flux_dead", f.faces, DeadArgFlux{}, op2::read(f.x, f.f2c, 0),
                op2::read(f.x, f.f2c, 1), op2::inc(f.res, f.f2c, 0), op2::inc(f.res, f.f2c, 1),
                op2::read(f.x, f.f2c, static_cast<int>(I % 2))...);
}

// Cost of unread arguments: the indirect face loop above with 0, 4 or 11
// extra indirect reads its kernel never touches (11 is what hydra's
// flux_face bound for the first-order inviscid scheme before it bound only
// its terms' dats). (time(n) - time(0)) / n / faces is the per-argument,
// per-element cost.
void BM_ParLoopDeadArgs(benchmark::State& state) {
  LoopFixture f(2);
  op2::par_loop("zero", f.cells, [](double* v) { *v = 0.0; }, op2::write(f.res));
  for (auto _ : state) {
    switch (state.range(0)) {
      case 0: dead_arg_flux(f, std::make_index_sequence<0>{}); break;
      case 4: dead_arg_flux(f, std::make_index_sequence<4>{}); break;
      default: dead_arg_flux(f, std::make_index_sequence<11>{}); break;
    }
    benchmark::DoNotOptimize(f.res.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.mesh.nface);
}
BENCHMARK(BM_ParLoopDeadArgs)->Arg(0)->Arg(4)->Arg(11);

// krylov's SpMV, y = A x, at hydra's width: d = 5 components and 7-slot
// rows (the row itself, then its 6 neighbours on a periodic 16 x 16 x 32
// grid, 8,192 rows). Reports time_per_row and bytes_per_second, counting per row the 7 coefficients,
// the 7 column ids, y and one read of x (its other 6 reads assumed cached).
void BM_StencilSpmv(benchmark::State& state) {
  constexpr int kNx = 16, kNy = 16, kNz = 32, kD = 5, kWidth = 7;
  constexpr index_t kRows = kNx * kNy * kNz;
  op2::Context ctx;
  auto& rows = ctx.decl_set("rows", kRows);
  const auto id = [](int i, int j, int k) {
    return static_cast<index_t>((((k + kNz) % kNz) * kNy + (j + kNy) % kNy) * kNx +
                                (i + kNx) % kNx);
  };
  const auto m = krylov::declare_stencil(
      ctx, rows, kWidth, "lap", [&id](index_t r, std::span<index_t> cols, std::span<double> a) {
        const int i = r % kNx, j = r / kNx % kNy, k = r / (kNx * kNy);
        const index_t nb[kWidth] = {r,            id(i - 1, j, k), id(i + 1, j, k),
                                    id(i, j - 1, k), id(i, j + 1, k), id(i, j, k - 1),
                                    id(i, j, k + 1)};
        for (int s = 0; s < kWidth; ++s) {
          cols[static_cast<std::size_t>(s)] = nb[s];
          a[static_cast<std::size_t>(s)] = s == 0 ? 7.0 : -1.0;
        }
      });
  auto& x = ctx.decl_dat<double>(rows, kD, "x",
                                 std::vector<double>(static_cast<std::size_t>(kRows) * kD, 1.0));
  auto& y = ctx.decl_dat<double>(rows, kD, "y");
  krylov::Solver solver(ctx, m, kD, "k");
  for (auto _ : state) {
    solver.spmv("k:spmv", x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  const auto row_bytes = kWidth * (sizeof(double) + sizeof(index_t)) + 2 * kD * sizeof(double);
  state.SetBytesProcessed(state.iterations() * kRows * static_cast<std::int64_t>(row_bytes));
  state.counters["time_per_row"] = benchmark::Counter(
      kRows, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_StencilSpmv);

void BM_ColoringBuild(benchmark::State& state) {
  const auto mesh = bench_mesh(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    op2::Config cfg;
    cfg.force_coloring = true;
    op2::Context ctx(cfg);
    auto& cells = ctx.decl_set("cells", mesh.ncell);
    auto& faces = ctx.decl_set("faces", mesh.nface);
    auto& f2c = ctx.decl_map("f2c", faces, cells, 2, mesh.face2cell);
    auto& x = ctx.decl_dat<double>(cells, 1, "x");
    // First invocation builds and caches the colored plan.
    op2::par_loop("color_me", faces,
                  [](double* a, double* b) {
                    *a += 1;
                    *b += 1;
                  },
                  op2::inc(x, f2c, 0), op2::inc(x, f2c, 1));
    benchmark::DoNotOptimize(ctx);
  }
  state.SetItemsProcessed(state.iterations() * mesh.nface);
}
BENCHMARK(BM_ColoringBuild)->Arg(1)->Arg(2);

void BM_MeshGeneration(benchmark::State& state) {
  for (auto _ : state) {
    const auto mesh = bench_mesh(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(mesh.ncell);
  }
}
BENCHMARK(BM_MeshGeneration)->Arg(1)->Arg(2)->Arg(4);

// Chained vs unchained three-loop relax pipeline (zero -> indirect flux ->
// direct update) — the micro-scale version of the hydra RK chain that
// bench_chain times end-to-end. The chained variant declares its LoopChain
// once and executes it every step, so cross-loop tiles keep `res`/`x`
// cache-resident between loops.
void relax_unchained(LoopFixture& f) {
  op2::par_loop("zero", f.cells, [](double* v) { *v = 0.0; }, op2::write(f.res));
  op2::par_loop("flux", f.faces,
                [](const double* a, const double* b, double* ra, double* rb) {
                  const double fl = 0.5 * (*a + *b);
                  *ra += fl;
                  *rb -= fl;
                },
                op2::read(f.x, f.f2c, 0), op2::read(f.x, f.f2c, 1),
                op2::inc(f.res, f.f2c, 0), op2::inc(f.res, f.f2c, 1));
  op2::par_loop("update", f.cells,
                [](double* x, const double* r) { *x += 0.01 * *r; },
                op2::rw(f.x), op2::read(f.res));
}

void BM_RelaxUnchained(benchmark::State& state) {
  LoopFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) relax_unchained(f);
  state.SetItemsProcessed(state.iterations() * (2 * f.mesh.ncell + f.mesh.nface));
}
BENCHMARK(BM_RelaxUnchained)->Arg(1)->Arg(2)->Arg(4);

void BM_RelaxChained(benchmark::State& state) {
  LoopFixture f(static_cast<int>(state.range(0)));
  op2::LoopChain chain(f.ctx, "relax");
  chain.add("zero", f.cells, [](double* v) { *v = 0.0; }, op2::write(f.res));
  chain.add("flux", f.faces,
            [](const double* a, const double* b, double* ra, double* rb) {
              const double fl = 0.5 * (*a + *b);
              *ra += fl;
              *rb -= fl;
            },
            op2::read(f.x, f.f2c, 0), op2::read(f.x, f.f2c, 1),
            op2::inc(f.res, f.f2c, 0), op2::inc(f.res, f.f2c, 1));
  chain.add("update", f.cells,
            [](double* x, const double* r) { *x += 0.01 * *r; },
            op2::rw(f.x), op2::read(f.res));
  for (auto _ : state) chain.execute();
  state.SetItemsProcessed(state.iterations() * (2 * f.mesh.ncell + f.mesh.nface));
}
BENCHMARK(BM_RelaxChained)->Arg(1)->Arg(2)->Arg(4);

std::vector<double> interface_boxes(int scale) {
  rig::RowSpec row;
  row.x_min = 0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  const auto mesh = rig::generate_row_mesh(row, {2, 4 * scale, 48 * scale});
  const auto side = rig::extract_interface(mesh, row, rig::BoundaryGroup::Outlet);
  std::vector<double> boxes;
  for (index_t i = 0; i < side.size(); ++i) {
    boxes.insert(boxes.end(), {side.box[static_cast<std::size_t>(i) * 4 + 0],
                               side.box[static_cast<std::size_t>(i) * 4 + 1],
                               side.box[static_cast<std::size_t>(i) * 4 + 2],
                               side.box[static_cast<std::size_t>(i) * 4 + 3]});
  }
  return boxes;
}

void BM_AdtBuild(benchmark::State& state) {
  const auto boxes = interface_boxes(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    jm76::Adt2D adt(boxes);
    benchmark::DoNotOptimize(adt.size());
  }
  state.SetItemsProcessed(state.iterations() * (boxes.size() / 4));
}
BENCHMARK(BM_AdtBuild)->Arg(1)->Arg(4)->Arg(16);

void BM_AdtQuery(benchmark::State& state) {
  const auto boxes = interface_boxes(static_cast<int>(state.range(0)));
  const jm76::Adt2D adt(boxes);
  util::Rng rng(1);
  std::vector<int> hits;
  for (auto _ : state) {
    hits.clear();
    adt.query(rng.uniform(0.3, 0.5), rng.uniform(0.0, 6.28), &hits);
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdtQuery)->Arg(1)->Arg(4)->Arg(16);

void BM_BinsQuery(benchmark::State& state) {
  const auto boxes = interface_boxes(static_cast<int>(state.range(0)));
  const jm76::UniformBins2D bins(boxes);
  util::Rng rng(1);
  std::vector<int> hits;
  for (auto _ : state) {
    hits.clear();
    bins.query(rng.uniform(0.3, 0.5), rng.uniform(0.0, 6.28), &hits);
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinsQuery)->Arg(1)->Arg(4)->Arg(16);

void BM_BruteForceQuery(benchmark::State& state) {
  const auto boxes = interface_boxes(static_cast<int>(state.range(0)));
  const jm76::BruteForce2D bf(boxes);
  util::Rng rng(1);
  std::vector<int> hits;
  for (auto _ : state) {
    hits.clear();
    bf.query(rng.uniform(0.3, 0.5), rng.uniform(0.0, 6.28), &hits);
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BruteForceQuery)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
