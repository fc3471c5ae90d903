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
// machinery apply to the solve exactly as to any other loop.
//
// CG is the single-reduction (Chronopoulos–Gear) form: an iteration is one
// direct update loop and one SpMV loop that also folds the iteration's
// three dot products, so it pays one halo exchange and one collective.
// Every solve starts from x = 0, so its set-up is one direct loop with no
// SpMV.
//
// The solver treats a dim-d right-hand side as d independent scalar systems
// sharing the stencil (hydra's 5 conservative state components): every dot
// product reduces per component and the step scalars alpha/beta are
// per-component, so each component marches its own CG trajectory while all
// d ride the same loops and the same collective (component-batched Global
// reductions).
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

/// How a solve ended. Breakdown: a step's denominator p·A·p (computed as
/// w·z − β·γ/α_old from the iteration's dots) was exactly zero for a
/// component whose z·r was not, so that component cannot continue. It
/// takes zero steps from then on, the other components go on until their
/// own residual meets the tolerance, and the solve reports Breakdown.
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

  /// Solves A x = b (d components independently) from x = 0 into x():
  /// whatever x() held on entry is overwritten unread.
  SolveStats solve(op2::Dat<double>& b, const SolveOptions& opts);

  /// The solution of the last solve (dim d on the rows set). The solver
  /// owns it because its declared update loop binds it.
  [[nodiscard]] op2::Dat<double>& x() { return *x_; }

  /// out = A in (both dim d on the rows set), as the loop named `loop`.
  void spmv(const char* loop, op2::Dat<double>& in, op2::Dat<double>& out);

  [[nodiscard]] const StencilMatrix& matrix() const { return m_; }
  [[nodiscard]] int dim() const { return d_; }

 private:
  op2::Context& ctx_;
  StencilMatrix m_;
  int d_;
  /// The SpMV instantiation for d_: out = A in, and with `dots` (CG's
  /// iteration: in = z, out = w) also the dots of z, w and r.
  void (*spmv_)(const StencilMatrix& m, const char* loop, op2::Dat<double>& in,
                op2::Dat<double>& out, op2::Dat<double>* r, op2::Global<double>* dots);
  std::string name_;
  std::string pfx_;
  std::string spmv_dots_loop_;  ///< the per-iteration loop's name, built once

  // Work vectors (dim d on the rows set).
  op2::Dat<double>* x_;
  op2::Dat<double>* r_;
  op2::Dat<double>* z_;  ///< preconditioned residual
  op2::Dat<double>* w_;  ///< A z
  op2::Dat<double>* p_;
  op2::Dat<double>* s_;  ///< A p, by recurrence

  // Jacobi: reciprocal diagonal (dim 1).
  op2::Dat<double>* invdiag_;

  // The iteration's reduction (Inc) and per-component step scalars (Read).
  op2::Global<double> dots_;  ///< dim 3d: z·r, w·z, r·r per component
  op2::Global<double> alpha_;
  op2::Global<double> beta_;

  /// The CG iteration's direct update, declared on the first solve: a
  /// one-member LoopChain, so its execution count is the iteration count.
  std::unique_ptr<op2::LoopChain> update_;
};

}  // namespace vcgt::krylov
