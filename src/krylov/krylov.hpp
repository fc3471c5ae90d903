#pragma once
// vcgt::krylov — a distributed Jacobi-preconditioned CG solver composed
// entirely from typed op2 par_loops (DESIGN.md §11).
//
// The matrix is a fixed-width (ELL) stencil over an op2 set: a rows→rows Map
// of width K holding each row's column ids (slot 0 is the diagonal by
// contract; unused slots pad with the row itself and a zero coefficient,
// which is bitwise-neutral in the SpMV fold) plus a dim-K coefficient Dat.
// SpMV is then one indirect-read par_loop per row — the kernel walks the
// stencil row (op2::row) and reads x through a gather-free view
// (op2::read_span) — so the halo exchange, latency hiding and loop-chain
// fusion machinery apply to the solve exactly as to any other loop.
//
// The solver treats a dim-d right-hand side as d independent scalar systems
// sharing the stencil (hydra's 5 conservative state components): every dot
// product reduces per component and the step scalars alpha/beta are
// per-component, so each component marches its own optimal CG trajectory
// while all d ride the same loops and the same collective per dot round
// (component-batched Global reductions).
//
// Reduction-determinism contract: with Config::deterministic_reductions on,
// every dot product folds per-element products in ascending *global* id
// order regardless of rank count or thread count (op2's delta-capture
// finalize), and the Jacobi preconditioner is pointwise, so residual
// histories — and therefore iteration counts and the converged answer — are
// bit-identical across serial, threaded and distributed executions.
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/op2/op2.hpp"

namespace vcgt::krylov {

/// Fixed-width stencil matrix over an op2 set (ELL storage through a Map).
/// Slot 0 of every row is the diagonal; pad slots reference the row itself
/// with a zero coefficient.
struct StencilMatrix {
  op2::Set* rows = nullptr;
  op2::Map* cols = nullptr;       ///< rows→rows, dim = width, slot 0 = self
  op2::Dat<double>* a = nullptr;  ///< dim = width coefficients per row
  [[nodiscard]] int width() const { return cols->dim(); }
};

/// Per-row structure+value callback: fill `cols` (global row ids, slot 0
/// must be the row itself) and `a` (matching coefficients) for `row`.
/// Unused trailing slots should be left as (row, 0.0) — they are
/// pre-initialized that way.
using StencilFill =
    std::function<void(op2::index_t row, std::span<op2::index_t> cols, std::span<double> a)>;

/// Declares the stencil map + coefficient dat (pre-partition, collective
/// declaration like any op2 decl). The fill callback runs once per global
/// row on every rank.
StencilMatrix declare_stencil(op2::Context& ctx, op2::Set& rows, int width,
                              const std::string& name, const StencilFill& fill);

/// CG stops once the residual 2-norm is at most rtol times its initial value.
struct SolveOptions {
  int max_iters = 500;
  double rtol = 1e-8;
};

/// How a solve ended. Breakdown: a step's denominator p·q was exactly zero
/// for a component whose z·r was not, so that component cannot continue. It takes zero
/// steps from then on, the other components go on until their own
/// residual meets the tolerance, and the solve reports Breakdown.
enum class SolveStatus { Converged, MaxIters, Breakdown };

struct SolveStats {
  int iters = 0;
  SolveStatus status = SolveStatus::MaxIters;
  double rnorm0 = 0.0;
  double rnorm = 0.0;
  /// Aggregate residual 2-norm (sqrt of the sum over components of r·r)
  /// after 0, 1, ... iterations. Bit-identical across executions under the
  /// determinism contract above.
  std::vector<double> history;
};

/// CG + Jacobi solver instance bound to one stencil matrix and one RHS dimension.
/// Construct *pre-partition* (declares dim-d work dats on the rows set);
/// solve() runs post-partition and may be called repeatedly — coefficient
/// changes are picked up because the preconditioner is rebuilt per solve.
/// The SpMV kernel is compiled per dimension: dim must be in 1..kMaxDim
/// (std::invalid_argument otherwise).
class Solver {
 public:
  static constexpr int kMaxDim = 8;

  Solver(op2::Context& ctx, StencilMatrix m, int dim, std::string name);

  /// Solves A x = b (d components independently). `x` holds the initial
  /// guess on entry and the solution on exit.
  SolveStats solve(op2::Dat<double>& x, op2::Dat<double>& b, const SolveOptions& opts);

  /// out = A in (both dim d on the rows set), as the loop named `loop`.
  void spmv(const char* loop, op2::Dat<double>& in, op2::Dat<double>& out);

  [[nodiscard]] const StencilMatrix& matrix() const { return m_; }
  [[nodiscard]] int dim() const { return d_; }

 private:
  void prepare();
  void apply_precond(op2::Dat<double>& in, op2::Dat<double>& out, const char* loop);
  void dot_pair(const char* loop, op2::Dat<double>& u, op2::Dat<double>& v);
  void dot_single(const char* loop, op2::Dat<double>& u, op2::Dat<double>& v);

  op2::Context& ctx_;
  StencilMatrix m_;
  int d_;
  /// The SpMV instantiation for d_: runs it as a par_loop, or appends it
  /// to `chain` when that is non-null.
  void (*spmv_)(const StencilMatrix& m, op2::LoopChain* chain, const char* loop,
                op2::Dat<double>& in, op2::Dat<double>& out);
  std::string name_;
  std::string pfx_;

  // Work vectors (dim d on the rows set).
  op2::Dat<double>* r_;
  op2::Dat<double>* z_;  ///< preconditioned residual
  op2::Dat<double>* p_;
  op2::Dat<double>* q_;  ///< A p

  // Reductions (Inc) and per-component step scalars (Read).
  op2::Global<double> dots2_;  ///< dim 2d: paired per-component dots
  op2::Global<double> dot1_;   ///< dim d
  op2::Global<double> alpha_;
  op2::Global<double> beta_;

  // Jacobi: reciprocal diagonal (dim 1).
  op2::Dat<double>* invdiag_;

  /// The CG iteration's direction update + SpMV (p = z + beta p; q = A p),
  /// declared on the first CG solve: one fused halo epoch covers the SpMV's
  /// read of p.
  std::unique_ptr<op2::LoopChain> cg_iter_;
};

}  // namespace vcgt::krylov
