#pragma once
// op2::par_loop — the DSL's parallel loop construct (paper Fig. 3).
//
//   op2::par_loop("res_calc", edges, kernel,
//                 op2::read(x,   e2n, 0),
//                 op2::read(x,   e2n, 1),
//                 op2::read(q,   e2c, 0),
//                 op2::inc(res,  e2c, 0));
//
// Arguments carry their access mode *in the type* (compile-time access
// tags): a `read()` argument reaches the kernel as `const T*`, so a kernel
// declaring a mutable `T*` parameter for it fails to compile instead of
// silently racing. `write()`, `rw()` and `inc()` hand out `T*`;
// `reduce_sum/min/max()` mark global reduction targets. The pre-redesign
// runtime-enum spelling `op2::arg(..., Access::X)` is gone: access modes
// live in the type, and the old spelling no longer compiles.
//
// The loop body is written purely element-wise; the runtime supplies the
// parallelization: distributed halo exchanges with latency hiding,
// redundant execution over the exec halo for indirect increments and
// conflict-free coloring for shared-memory workers. Dats are stored AoS
// (DESIGN.md §8), so a kernel pointer is the element's storage address.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/op2/context.hpp"
#include "src/op2/dat.hpp"
#include "src/op2/map.hpp"
#include "src/op2/plan.hpp"
#include "src/op2/set.hpp"
#include "src/op2/types.hpp"
#include "src/util/timer.hpp"
#include "src/util/trace.hpp"

// The per-element argument helpers below (tgt, pre) run once per argument
// per element, and DatSpan::elem once per stencil column. GCC would keep
// them out of line in large par_loop/LoopChain instantiations, and an
// out-of-line call per argument per element then costs more than most
// kernels' own work; so they are forced inline.
#define VCGT_OP2_PER_ELEM [[gnu::always_inline]] inline

namespace vcgt::op2 {

// --- argument descriptors (access mode in the type) -------------------------

template <class T, Access A>
struct DatArg {
  Dat<T>* dat;
  const Map* map;  ///< null for direct access
  int idx;
  static constexpr Access acc = A;
};

template <class T, Access A>
struct GblArg {
  Global<T>* g;
  static constexpr Access acc = A;
};

/// OP2's op_arg_idx: passes the element's *global* id into the kernel (the
/// same value on every rank regardless of partitioning) — used for
/// element-dependent coefficients, deterministic per-element randomness and
/// debugging output.
struct IdxArg {
  const gindex_t* l2g = nullptr;  ///< filled by par_loop from the iteration set
};

// --- access-tagged builders -------------------------------------------------

/// Direct read: kernel receives `const T*` to dat[e].
template <class T>
[[nodiscard]] DatArg<T, Access::Read> read(Dat<T>& d) {
  return {&d, nullptr, 0};
}
/// Indirect read: kernel receives `const T*` to dat[map(e, idx)].
template <class T>
[[nodiscard]] DatArg<T, Access::Read> read(Dat<T>& d, const Map& m, int idx) {
  return {&d, &m, idx};
}
/// Direct overwrite (no prior value observed).
template <class T>
[[nodiscard]] DatArg<T, Access::Write> write(Dat<T>& d) {
  return {&d, nullptr, 0};
}
/// Indirect overwrite.
template <class T>
[[nodiscard]] DatArg<T, Access::Write> write(Dat<T>& d, const Map& m, int idx) {
  return {&d, &m, idx};
}
/// Direct read-modify-write.
template <class T>
[[nodiscard]] DatArg<T, Access::ReadWrite> rw(Dat<T>& d) {
  return {&d, nullptr, 0};
}
/// Indirect read-modify-write.
template <class T>
[[nodiscard]] DatArg<T, Access::ReadWrite> rw(Dat<T>& d, const Map& m, int idx) {
  return {&d, &m, idx};
}
/// Direct increment (+=).
template <class T>
[[nodiscard]] DatArg<T, Access::Inc> inc(Dat<T>& d) {
  return {&d, nullptr, 0};
}
/// Indirect increment — resolved race-free via coloring / redundant compute.
template <class T>
[[nodiscard]] DatArg<T, Access::Inc> inc(Dat<T>& d, const Map& m, int idx) {
  return {&d, &m, idx};
}

/// Read-only global parameter: kernel receives `const T*`.
template <class T>
[[nodiscard]] GblArg<T, Access::Read> read(Global<T>& g) {
  return {&g};
}
/// Global sum reduction (finalized across ranks).
template <class T>
[[nodiscard]] GblArg<T, Access::Inc> reduce_sum(Global<T>& g) {
  return {&g};
}
/// Global min reduction.
template <class T>
[[nodiscard]] GblArg<T, Access::Min> reduce_min(Global<T>& g) {
  return {&g};
}
/// Global max reduction.
template <class T>
[[nodiscard]] GblArg<T, Access::Max> reduce_max(Global<T>& g) {
  return {&g};
}

/// Element-id argument: the kernel receives a const gindex_t* to the
/// element's 64-bit global id.
[[nodiscard]] inline IdxArg arg_idx() { return {}; }

// --- gather-free row access (CSR/stencil pattern, DESIGN.md §11) ------------

/// Kernel-facing whole-dat read view handed out by op2::read_span: indexes
/// the dat by *local* element id — normally a column id taken from the
/// map row an op2::row argument supplies — so SpMV-style kernels walk a
/// stencil row without per-slot gathers. elem(e) points at element e's
/// dim() contiguous components.
template <class T>
struct DatSpan {
  const T* base = nullptr;
  int ddim = 0;
  [[nodiscard]] VCGT_OP2_PER_ELEM const T* elem(index_t e) const {
    return base + static_cast<std::size_t>(e) * static_cast<std::size_t>(ddim);
  }
  [[nodiscard]] int dim() const { return ddim; }
};

/// Whole-dat indirect read through every slot of a map row: the kernel
/// receives a DatSpan<T> view. The planner treats the argument as reading
/// all map components (ArgInfo::idx = kIdxAll) for halo needs, core/tail
/// splits and chain regions.
template <class T>
struct SpanReadArg {
  Dat<T>* dat;
  const Map* map;
};
template <class T>
[[nodiscard]] SpanReadArg<T> read_span(Dat<T>& d, const Map& m) {
  return {&d, &m};
}

/// Map-row argument: the kernel receives `const index_t*` pointing at the
/// element's localized map row (`m.dim()` column ids) — the stencil
/// structure itself, with no dat attached.
struct RowArg {
  const Map* map;
};
[[nodiscard]] inline RowArg row(const Map& m) { return {&m}; }

namespace detail {

template <class T, Access A>
ArgInfo to_info(const DatArg<T, A>& a) {
  return ArgInfo{a.dat, a.map, a.idx, A, false};
}
template <class T, Access A>
ArgInfo to_info(const GblArg<T, A>&) {
  return ArgInfo{nullptr, nullptr, 0, A, true};
}
inline ArgInfo to_info(const IdxArg&) {
  return ArgInfo{nullptr, nullptr, -1, Access::Read, false};
}
template <class T>
ArgInfo to_info(const SpanReadArg<T>& a) {
  return ArgInfo{a.dat, a.map, kIdxAll, Access::Read, false};
}
inline ArgInfo to_info(const RowArg& a) {
  return ArgInfo{nullptr, a.map, kIdxAll, Access::Read, false};
}

// --- bound (per-thread) argument views used in the hot loop -----------------

/// Kernel-facing pointer for access mode A: read arguments are const.
template <class T, Access A>
using KernelPtr = std::conditional_t<A == Access::Read, const T*, T*>;

/// A dat argument bound to one worker. The access mode stays in the type,
/// so constness is decided at compile time.
template <class T, Access A>
struct BoundDat {
  T* base;
  const index_t* table;  ///< null for direct
  int mdim;
  int idx;
  int ddim;
};
template <class T, Access A>
struct BoundGbl {
  T* ptr;
};
struct BoundIdx {
  const gindex_t* l2g;  ///< local -> global of the iteration set
};
template <class T>
struct BoundSpan {
  DatSpan<T> view;
};
struct BoundRow {
  const index_t* table;
  int mdim;
};

template <class T, Access A>
[[nodiscard]] VCGT_OP2_PER_ELEM index_t tgt(const BoundDat<T, A>& b, index_t e) {
  return b.table
             ? b.table[static_cast<std::size_t>(e) * static_cast<std::size_t>(b.mdim) +
                       static_cast<std::size_t>(b.idx)]
             : e;
}

// --- per-element resolution -------------------------------------------------

/// Kernel pointer for element e: the storage address of its target.
template <class T, Access A>
[[nodiscard]] VCGT_OP2_PER_ELEM KernelPtr<T, A> pre(BoundDat<T, A>& b, index_t e) {
  return b.base + static_cast<std::size_t>(tgt(b, e)) * static_cast<std::size_t>(b.ddim);
}
template <class T, Access A>
[[nodiscard]] VCGT_OP2_PER_ELEM KernelPtr<T, A> pre(BoundGbl<T, A>& b, index_t) {
  return b.ptr;
}
[[nodiscard]] VCGT_OP2_PER_ELEM const gindex_t* pre(BoundIdx& b, index_t e) { return b.l2g + e; }
template <class T>
[[nodiscard]] VCGT_OP2_PER_ELEM DatSpan<T> pre(BoundSpan<T>& b, index_t) {
  return b.view;
}
[[nodiscard]] VCGT_OP2_PER_ELEM const index_t* pre(BoundRow& b, index_t e) {
  return b.table + static_cast<std::size_t>(e) * static_cast<std::size_t>(b.mdim);
}

// --- scratch ----------------------------------------------------------------

struct NoScratch {};
template <class T>
struct GblScratch {
  std::vector<T> buf;  ///< nthreads * dim, initialized per access mode
  int dim;
};

template <class T, Access A>
GblScratch<T> make_scratch(const GblArg<T, A>& a, int nthreads) {
  const Global<T>& g = *a.g;
  GblScratch<T> s{{}, g.dim()};
  if constexpr (A != Access::Read) {
    s.buf.resize(static_cast<std::size_t>(nthreads) * static_cast<std::size_t>(g.dim()));
    for (int t = 0; t < nthreads; ++t) {
      for (int c = 0; c < g.dim(); ++c) {
        const std::size_t i =
            static_cast<std::size_t>(t) * static_cast<std::size_t>(g.dim()) +
            static_cast<std::size_t>(c);
        // Inc accumulates from zero; Min/Max fold from the current value.
        s.buf[i] = A == Access::Inc ? T{} : g.data()[c];
      }
    }
  }
  return s;
}
/// Every other argument needs no per-thread scratch.
template <class Arg>
NoScratch make_scratch(const Arg&, int) {
  return {};
}

// --- binding ----------------------------------------------------------------

template <class T, Access A>
BoundDat<T, A> bind(const DatArg<T, A>& a, NoScratch&, int) {
  return BoundDat<T, A>{a.dat->data(), a.map ? a.map->table().data() : nullptr,
                        a.map ? a.map->dim() : 0, a.idx, a.dat->dim()};
}
template <class T, Access A>
BoundGbl<T, A> bind(const GblArg<T, A>& a, GblScratch<T>& s, int tid) {
  if constexpr (A == Access::Read) {
    return {a.g->data()};
  } else {
    return {s.buf.data() + static_cast<std::size_t>(tid) * static_cast<std::size_t>(s.dim)};
  }
}
inline BoundIdx bind(const IdxArg& a, NoScratch&, int) { return BoundIdx{a.l2g}; }
template <class T>
BoundSpan<T> bind(const SpanReadArg<T>& a, NoScratch&, int) {
  return BoundSpan<T>{DatSpan<T>{a.dat->data(), a.dat->dim()}};
}
inline BoundRow bind(const RowArg& a, NoScratch&, int) {
  return BoundRow{a.map->table().data(), a.map->dim()};
}

// --- the element executor ---------------------------------------------------

/// Element source for a fused chain tile: the contiguous range [lo, hi).
/// An index list is the other source, as a std::span<const index_t>.
struct IndexRange {
  index_t lo;
  index_t hi;
  [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(hi - lo); }
  [[nodiscard]] index_t operator[](std::size_t i) const { return lo + static_cast<index_t>(i); }
};

/// Per-element hook that does nothing.
struct NoHook {
  void operator()(index_t) const {}
};

/// The element executor behind par_loop's colored and flat phases, its
/// deterministic-capture phase and every fused LoopChain tile. Runs
/// `kernel` once per element of `src`, in source order, with reduction
/// arguments bound to worker `tid`'s scratch slice. `hook(e)` runs after
/// element e's kernel (the deterministic-reduction delta capture).
template <class Kernel, class Args, class Scratch, class Src, class Hook = NoHook>
void run_elements(Kernel& kernel, const Args& args, Scratch& scratch, int tid, Src src,
                  Hook&& hook = {}) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    auto bound = std::make_tuple(bind(std::get<I>(args), std::get<I>(scratch), tid)...);
    const std::size_t n = src.size();
    for (std::size_t i = 0; i < n; ++i) {
      const index_t e = src[i];
      kernel(pre(std::get<I>(bound), e)...);
      hook(e);
    }
  }(std::make_index_sequence<std::tuple_size_v<Args>>{});
}

// --- reduction merge / finalize ---------------------------------------------

template <class T, Access A>
void merge_scratch(const GblArg<T, A>& a, const GblScratch<T>& s, int nthreads) {
  if constexpr (A != Access::Read) {
    Global<T>& g = *a.g;
    for (int c = 0; c < s.dim; ++c) {
      T acc_v = g.data()[c];
      for (int t = 0; t < nthreads; ++t) {
        const T v = s.buf[static_cast<std::size_t>(t) * static_cast<std::size_t>(s.dim) +
                          static_cast<std::size_t>(c)];
        if constexpr (A == Access::Inc) {
          acc_v += v;
        } else if constexpr (A == Access::Min) {
          acc_v = v < acc_v ? v : acc_v;
        } else {
          acc_v = v > acc_v ? v : acc_v;
        }
      }
      g.data()[c] = acc_v;
    }
  }
}
template <class A, class S>
void merge_scratch(const A&, const S&, int) {}

// --- deterministic distributed Inc capture (delta fold by global id) --------
// With Config::deterministic_reductions on, a *distributed* loop carrying an
// Inc global cannot just allreduce rank partials: the fold order would then
// depend on the partitioning, breaking bit-identity across rank counts. The
// executor instead runs on tid 0 and, after each element's kernel, captures
// that element's reduction delta from the tid-0 scratch (read, then reset
// to zero; run_elements' per-element hook), records it with
// the element's global id for owned elements (exec-halo elements are reset
// but not recorded, so redundant computation never double-counts), and the
// finalize step gathers every rank's (gid, delta) records, sorts by gid and
// folds ascending from zero — exactly the serial executor's flat ascending
// fold for kernels that accumulate one value per component per element
// (multi-accumulation kernels differ only at re-association rounding level,
// within vcgt::verify's ULP policy).

template <class T, Access A>
inline void capture_delta(const GblArg<T, A>&, GblScratch<T>& s, std::vector<double>* out) {
  if constexpr (A == Access::Inc) {
    for (int c = 0; c < s.dim; ++c) {
      T& v = s.buf[static_cast<std::size_t>(c)];
      if (out) out->push_back(static_cast<double>(v));
      v = T{};
    }
  }
}
template <class A, class S>
inline void capture_delta(const A&, S&, std::vector<double>*) {}

template <class T, Access A>
inline void count_inc_dims(const GblArg<T, A>& a, std::size_t& n) {
  if constexpr (A == Access::Inc) n += static_cast<std::size_t>(a.g->dim());
}
template <class A>
inline void count_inc_dims(const A&, std::size_t&) {}

template <class T, Access A>
void snapshot_global(const GblArg<T, A>& a, std::vector<double>& out) {
  for (int c = 0; c < a.g->dim(); ++c) out.push_back(static_cast<double>(a.g->data()[c]));
}
template <class A>
void snapshot_global(const A&, std::vector<double>&) {}

/// The gathered (gid, delta) records of a deterministic capture, consumed
/// one Inc global at a time.
struct DeltaRecords {
  std::span<const gindex_t> gids;
  std::span<const double> deltas;
  std::size_t stride;    ///< Inc-global components per record
  std::size_t off = 0;   ///< the next Inc global's first component
};

// Finalization across ranks. Under the distributed deterministic capture
// (`det` non-null), Inc globals fold the gathered (gid, delta) records;
// Min/Max keep the plain order-insensitive allreduce.
template <class T, Access A>
void finalize_arg(Context& ctx, const GblArg<T, A>& a, std::span<const double> initial,
                  std::size_t& cursor, DeltaRecords* det) {
  Global<T>& g = *a.g;
  std::vector<T> init(static_cast<std::size_t>(g.dim()));
  for (int c = 0; c < g.dim(); ++c) {
    init[static_cast<std::size_t>(c)] =
        static_cast<T>(initial[cursor + static_cast<std::size_t>(c)]);
  }
  cursor += static_cast<std::size_t>(g.dim());
  if (A == Access::Inc && det != nullptr) {
    ctx.finalize_global_det(g, std::span<const T>(init), det->gids, det->deltas, det->stride,
                            det->off);
    det->off += static_cast<std::size_t>(g.dim());
    return;
  }
  ctx.finalize_global(g, A, std::span<const T>(init));
}
template <class A>
void finalize_arg(Context&, const A&, std::span<const double>, std::size_t&, DeltaRecords*) {}

// par_loop wires the iteration set's numbering into IdxArgs.
inline void attach_set(IdxArg& a, const Set& s) { a.l2g = s.local_to_global().data(); }
template <class A>
void attach_set(A&, const Set&) {}

}  // namespace detail

/// Executes `kernel` once per element of `set` (owned elements, plus the
/// exec halo when any argument is an indirect write — OP2's redundant
/// computation). Collective across the context's communicator.
template <class Kernel, class... As>
void par_loop(const char* name, const Set& set, Kernel&& kernel, As... as) {
  Context& ctx = set.context();
  const std::vector<ArgInfo> infos{detail::to_info(as)...};
  util::Timer timer;

  trace::Span tspan(name);
  LoopPlan& plan = ctx.get_plan(name, set, infos);
  if (tspan.active()) {
    tspan.arg("set_size", static_cast<double>(plan.n_executed));
    tspan.arg("colors",
              static_cast<double>(plan.core_colors.size() + plan.tail_colors.size()));
    tspan.arg("nthreads", static_cast<double>(ctx.config().nthreads));
  }
  auto pending = ctx.exchange_begin(plan, infos);

  const int nthreads = ctx.config().nthreads;
  auto args = std::forward_as_tuple(as...);
  std::apply([&](auto&... a) { (detail::attach_set(a, set), ...); }, args);
  auto scratch = std::apply(
      [&](auto&... a) { return std::make_tuple(detail::make_scratch(a, nthreads)...); }, args);

  // Snapshot globals for distributed Inc finalization.
  std::vector<double> initial;
  std::apply([&](auto&... a) { (detail::snapshot_global(a, initial), ...); }, args);

  bool has_reduction = false;
  for (const auto& a : infos) {
    if (a.is_global && a.acc != Access::Read) has_reduction = true;
  }
  // Deterministic-reduction mode (Config::deterministic_reductions): a loop
  // carrying a reduction runs single-threaded over the flat ascending
  // element list, so the floating-point fold order matches the serial
  // reference executor exactly.
  const bool det_run = ctx.config().deterministic_reductions && has_reduction;
  // Distributed deterministic reductions: capture per-element Inc deltas
  // keyed by global id so finalize can fold them in ascending-gid order —
  // bit-identical to the serial fold regardless of rank count (see the
  // capture_delta block above and DESIGN.md §11).
  std::size_t inc_gbl_dims = 0;
  std::apply([&](const auto&... a) { (detail::count_inc_dims(a, inc_gbl_dims), ...); },
             args);
  const bool det_capture = det_run && ctx.distributed() && inc_gbl_dims > 0;
  std::vector<gindex_t> delta_gids;
  std::vector<double> delta_vals;
  constexpr auto idx_seq = std::index_sequence_for<As...>{};
  // Records owned elements' Inc deltas (tid 0's scratch) after each kernel.
  const auto capture = [&, nown = set.n_owned()](index_t e) {
    std::vector<double>* rec = nullptr;
    if (e < nown) {
      delta_gids.push_back(set.local_to_global()[static_cast<std::size_t>(e)]);
      rec = &delta_vals;
    }
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (detail::capture_delta(std::get<I>(args), std::get<I>(scratch), rec), ...);
    }(idx_seq);
  };

  // One index list through the element executor, split across workers.
  auto run_list = [&](const std::vector<index_t>& elems) {
    if (nthreads <= 1) {
      detail::run_elements(kernel, args, scratch, 0, std::span<const index_t>(elems));
      return;
    }
    ctx.pool().parallel_for(elems.size(), [&](int tid, std::size_t b, std::size_t e) {
      detail::run_elements(kernel, args, scratch, tid,
                           std::span<const index_t>(elems.data() + b, e - b));
    });
  };

  auto run_phase = [&](const std::vector<index_t>& flat,
                       const std::vector<std::vector<index_t>>& colors) {
    if (det_capture) {
      detail::run_elements(kernel, args, scratch, 0, std::span<const index_t>(flat), capture);
      return;
    }
    if (det_run) {
      detail::run_elements(kernel, args, scratch, 0, std::span<const index_t>(flat));
      return;
    }
    if (!plan.colored) {
      run_list(flat);
      return;
    }
    for (const auto& color : colors) run_list(color);
  };

  run_phase(plan.core, plan.core_colors);
  ctx.exchange_end(plan, pending);
  run_phase(plan.tail, plan.tail_colors);

  std::size_t cursor = 0;
  detail::DeltaRecords records{delta_gids, delta_vals, inc_gbl_dims};
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (detail::merge_scratch(std::get<I>(args), std::get<I>(scratch), nthreads), ...);
    (detail::finalize_arg(ctx, std::get<I>(args), std::span<const double>(initial), cursor,
                          det_capture ? &records : nullptr),
     ...);
  }(idx_seq);

  ctx.post_loop(plan, infos, timer.elapsed());
}

// --- LoopChain (DESIGN.md §10) ----------------------------------------------
//
//   op2::LoopChain chain(ctx, "rk_stage");   // declared once ...
//   chain.add("grad",  cells, grad_kernel,  op2::read(q), op2::write(dq));
//   chain.add("flux",  edges, flux_kernel,  op2::read(dq, e2c, 0), ...);
//   chain.add("update", cells, upd_kernel,  op2::read(alpha), op2::rw(q));
//   chain.execute();   // ... executed many times; collective
//
// Kernels and arguments are captured at add(), so a value that changes
// between executions (alpha above) is passed as an op2::read Global.
// Declaring the loops up front hands the planner the whole pipeline at
// once: it classifies the cross-loop dependences, fuses the per-loop halo
// exchanges into one grouped epoch per segment, and executes the member
// loops tile-interleaved — each cross-loop tile walks every member's
// aligned element range before moving on, so intermediate dats are still
// cache-hot when the consumer loop touches them. Per-loop ascending element
// order is preserved inside every tile range, which keeps chained results
// bit-identical to issuing the same par_loops one by one (vcgt::verify's
// chained fuzz group holds the executor to that). Members carrying a global
// reduction run as ordinary standalone par_loops between fused segments;
// with Config::chain_tile = 0 every member does (the eager reference).
class LoopChain {
 public:
  LoopChain(Context& ctx, std::string name)
      : ctx_(ctx), name_(std::move(name)), span_name_("chain:" + name_) {}
  LoopChain(const LoopChain&) = delete;
  LoopChain& operator=(const LoopChain&) = delete;

  /// Declares the next member loop. Same argument forms as par_loop; the
  /// kernel and arguments are captured by value.
  template <class Kernel, class... As>
  void add(const char* name, const Set& set, Kernel kernel, As... as) {
    ChainLoopDecl decl;
    decl.name = name;
    decl.set = &set;
    decl.args = {detail::to_info(as)...};
    decls_.push_back(std::move(decl));
    plan_ = nullptr;  // revalidate against the cached plan on next execute

    auto args = std::make_tuple(as...);
    std::apply([&](auto&... a) { (detail::attach_set(a, set), ...); }, args);
    const int nthreads = ctx_.config().nthreads;
    auto scratch = std::apply(
        [&](auto&... a) { return std::make_tuple(detail::make_scratch(a, nthreads)...); },
        args);

    Member mem;
    // Fused-tile executor: one contiguous ascending element range.
    // Concurrent calls use distinct tids, so same-color tiles may run in
    // parallel.
    mem.run_tile = [kernel, args, scratch](index_t lo, index_t hi, int tid) mutable {
      detail::run_elements(kernel, args, scratch, tid, detail::IndexRange{lo, hi});
    };
    // Standalone fallback: the member runs as a full par_loop (its own
    // halo exchange, coloring, reduction merge/finalize machinery).
    mem.run_loop = [lname = std::string(name), &set, kernel, args]() {
      std::apply([&](const auto&... a) { par_loop(lname.c_str(), set, kernel, a...); },
                 args);
    };
    members_.push_back(std::move(mem));
  }

  /// Executes the declared chain. Collective across the context's
  /// communicator; the plan is built on first call and cached by name, and
  /// later calls reuse it without a lookup.
  ///
  /// Metering: each loop's time is booked once. A standalone member books
  /// its time in its own LoopPlan; a fused segment books its wall time,
  /// epoch included, in ChainPlan::seconds, and the epoch alone in
  /// ChainPlan::halo_seconds.
  void execute() {
    if (decls_.empty()) return;
    if (!plan_) plan_ = &ctx_.get_chain_plan(name_, decls_);
    ChainPlan& plan = *plan_;
    trace::Span tspan(span_name_.c_str());
    if (tspan.active()) {
      tspan.arg("members", static_cast<double>(plan.members.size()));
      tspan.arg("segments", static_cast<double>(plan.segments.size()));
      tspan.arg("deps", static_cast<double>(plan.deps.size()));
    }
    const int nthreads = ctx_.config().nthreads;
    // Per-member time attribution: fused members run tile-interleaved, so no
    // single span can bracket one member. Accumulate per-member busy time
    // across tiles and emit one complete event per member at the end, under
    // the member's loop name (keeping per-loop summaries/attribution working
    // exactly as for solo par_loops).
    const bool tr = trace::enabled();
    const std::int64_t chain_begin_ns = tr ? trace::now_ns() : 0;
    std::vector<std::atomic<std::int64_t>> member_ns(tr ? members_.size() : 0);
    for (const auto& seg : plan.segments) {
      if (!seg.fused) {
        members_[static_cast<std::size_t>(seg.first)].run_loop();
        continue;
      }
      util::Timer timer;
      ctx_.chain_exchange(plan, seg);
      const int count = seg.last - seg.first + 1;
      const int ntiles =
          seg.tile_end.empty() ? 0 : static_cast<int>(seg.tile_end.front().size());
      auto run_tile = [&](int t, int tid) {
        for (int m = 0; m < count; ++m) {
          const auto& be = seg.tile_end[static_cast<std::size_t>(m)];
          const index_t lo = t == 0 ? 0 : be[static_cast<std::size_t>(t - 1)];
          const index_t hi = be[static_cast<std::size_t>(t)];
          if (hi > lo) {
            const std::int64_t t0 = tr ? trace::now_ns() : 0;
            members_[static_cast<std::size_t>(seg.first + m)].run_tile(lo, hi, tid);
            if (tr) {
              member_ns[static_cast<std::size_t>(seg.first + m)].fetch_add(
                  trace::now_ns() - t0, std::memory_order_relaxed);
            }
          }
        }
      };
      if (nthreads <= 1) {
        for (int t = 0; t < ntiles; ++t) run_tile(t, 0);
      } else {
        // Colors ascending: a tile's conflicting predecessors carry
        // strictly smaller colors, so they have completed; same-color
        // tiles are conflict-free and run in parallel.
        for (int c = 0; c < seg.n_colors; ++c) {
          std::vector<int> tiles;
          for (int t = 0; t < ntiles; ++t) {
            if (seg.tile_colors[static_cast<std::size_t>(t)] == c) tiles.push_back(t);
          }
          ctx_.pool().parallel_for(tiles.size(), [&](int tid, std::size_t b,
                                                     std::size_t e) {
            for (std::size_t i = b; i < e; ++i) run_tile(tiles[i], tid);
          });
        }
      }
      for (int m = seg.first; m <= seg.last; ++m) {
        const auto& mp = plan.members[static_cast<std::size_t>(m)];
        plan.elements += static_cast<std::uint64_t>(mp.n_executed);
        for (const auto& a : mp.args) {
          if (a.dat && access_writes(a.acc)) a.dat->mark_written();
        }
      }
      plan.seconds += timer.elapsed();
    }
    if (tr) {
      for (std::size_t m = 0; m < member_ns.size(); ++m) {
        const std::int64_t ns = member_ns[m].load(std::memory_order_relaxed);
        if (ns > 0) trace::complete(plan.members[m].name.c_str(), chain_begin_ns, ns);
      }
    }
    ++plan.invocations;
  }

  /// The cached plan (null before the first execute()).
  [[nodiscard]] const ChainPlan* plan() const { return ctx_.find_chain(name_); }

 private:
  struct Member {
    std::function<void(index_t, index_t, int)> run_tile;
    std::function<void()> run_loop;
  };

  Context& ctx_;
  std::string name_;
  std::string span_name_;  ///< "chain:<name>", built once
  std::vector<ChainLoopDecl> decls_;
  std::vector<Member> members_;
  ChainPlan* plan_ = nullptr;  ///< owned by the context, set by execute()
};

}  // namespace vcgt::op2

#undef VCGT_OP2_PER_ELEM
