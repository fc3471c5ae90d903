#pragma once
// Core vocabulary types of the op2 embedded DSL (see DESIGN.md §2).
//
// The DSL follows the published OP2 model: an unstructured-mesh computation
// is declared as (1) sets of mesh elements, (2) data on sets ("dats"),
// (3) connectivity between sets ("maps") and (4) parallel loops over sets
// with explicit per-argument access descriptors. The access descriptors are
// what let the runtime build race-free shared-memory plans (coloring) and
// minimal distributed-memory halo exchanges.
#include <cstdint>
#include <stdexcept>
#include <string>

namespace vcgt::op2 {

/// A halo exchange failed structurally (transient send faults exhausted the
/// retry budget, or a bounded receive timed out). Carries enough context —
/// set, peer, direction — to localize the failure without a debugger; wraps
/// the underlying minimpi error as the `what()` suffix.
class HaloError : public std::runtime_error {
 public:
  HaloError(std::string what, std::string set, int peer, bool sending)
      : std::runtime_error(std::move(what)), set(std::move(set)), peer(peer),
        sending(sending) {}
  std::string set;  ///< op2 set whose halo was being exchanged
  int peer;         ///< neighbor rank of the failed transfer
  bool sending;     ///< true: packing/sending; false: receiving/scattering
};

/// Local element index. A rank's local window (owned + halos) always fits
/// in 32 bits — plans, map tables and halo slot lists stay compact.
using index_t = std::int32_t;

/// Global element id. 64-bit: the paper's 4.58B-node mesh (fig. 9) exceeds
/// the 32-bit range, so every gid-carrying surface — local_to_global,
/// halo/partition exchange payloads, deterministic-reduction records —
/// uses this type (DESIGN.md §13).
using gindex_t = std::int64_t;

/// Largest global size a *monolithic* (replicated-declaration) set may
/// have: every global id must narrow losslessly to a local index, because
/// monolithic declarations materialize identity numberings and full tables.
/// Sharded declarations (decl_set_sharded) are exempt — only the per-rank
/// window must fit index_t there.
inline constexpr gindex_t kMaxMonolithicSetSize =
    static_cast<gindex_t>(2147483647);  // INT32_MAX

/// A set declaration (or a mesh builder feeding one) was asked for more
/// elements than the declaration mode supports: monolithic sets cap at
/// index_t range; sharded sets cap the per-rank window. Structured (not
/// UB, not a silent narrowing) so billion-element requests fail loudly.
class SetSizeError : public std::invalid_argument {
 public:
  SetSizeError(std::string what, std::string set, gindex_t requested)
      : std::invalid_argument(std::move(what)), set(std::move(set)),
        requested(requested) {}
  std::string set;     ///< set (or mesh) being declared
  gindex_t requested;  ///< element count that overflowed
};

/// Owner of global id `g` under block partitioning of `n` elements over
/// `nranks` ranks. The single source of truth shared by the monolithic
/// Block partitioner and the sharded setup path: both must assign bit-
/// identical ownership for the shard-vs-monolithic equivalence contract
/// (DESIGN.md §13). 64-bit intermediate: g*nranks stays < 2^63 for any
/// realistic (n, nranks).
[[nodiscard]] constexpr int block_owner(gindex_t g, gindex_t n, int nranks) {
  return static_cast<int>((static_cast<std::uint64_t>(g) *
                           static_cast<std::uint64_t>(nranks)) /
                          static_cast<std::uint64_t>(n));
}

/// How a parallel-loop argument accesses its data. Mirrors OP2's
/// OP_READ / OP_WRITE / OP_RW / OP_INC (+ OP_MIN/OP_MAX for globals).
enum class Access : std::uint8_t {
  Read,   ///< read only; halo copies must be current before the loop
  Write,  ///< overwritten without reading; no halo refresh needed
  ReadWrite,
  Inc,    ///< accumulated (+=); resolved via coloring / redundant compute
  Min,    ///< global reduction: minimum
  Max,    ///< global reduction: maximum
};

[[nodiscard]] constexpr bool access_reads(Access a) {
  return a == Access::Read || a == Access::ReadWrite;
}
[[nodiscard]] constexpr bool access_writes(Access a) {
  return a == Access::Write || a == Access::ReadWrite || a == Access::Inc;
}

const char* access_name(Access a);

/// Runtime configuration. The three optimization toggles correspond to the
/// paper's §IV-A5 (Table III) ablation:
///  - partial_halos (PH): exchange only the halo elements a loop actually
///    references through its maps, not the full halo of each dirty dat;
///  - grouped_halos (GH): pack all dats' halo payloads for the same
///    neighbor rank into one message per neighbor.
/// The third, staged gather (GG), is a coupler setting:
/// jm76::CoupledConfig::staged_gather.
struct Config {
  bool partial_halos = false;
  bool grouped_halos = false;
  /// Shared-memory workers per rank for colored execution (1 = sequential
  /// within a rank; distributed parallelism is independent of this).
  int nthreads = 1;
  /// Force colored execution even with nthreads == 1 (used by tests to
  /// validate coloring correctness on a single worker).
  bool force_coloring = false;
  /// Enable communication/computation overlap (latency hiding): execute
  /// halo-independent "core" elements while halo messages are in flight.
  bool latency_hiding = true;
  /// Execute loops carrying a global reduction single-threaded over the
  /// flat ascending element list: no coloring reorder, no per-thread
  /// partials. On a single rank the floating-point reduction order then
  /// exactly matches the serial reference executor, making reduction
  /// results bit-comparable across shared-memory backends (vcgt::verify's
  /// oracle policy; see DESIGN.md §9). Loops without a reduction are
  /// unaffected.
  bool deterministic_reductions = false;
  /// Tile width (seed-member elements per cross-loop tile) for fused
  /// LoopChain execution. Also settable via VCGT_OP2_CHAIN_TILE (> 0).
  /// 0 is the eager reference: every chain member runs as its own
  /// par_loop, in declaration order, exactly as if issued one by one.
  int chain_tile = 4096;
};

/// Partitioning strategy for distributing the primary set across ranks.
enum class Partitioner {
  Block,  ///< contiguous index blocks (baseline, poor edge-cut)
  Rcb,    ///< recursive coordinate bisection on node coordinates
  Kway,   ///< greedy k-way graph growing on the node adjacency (Metis-like)
};

const char* partitioner_name(Partitioner p);

}  // namespace vcgt::op2
