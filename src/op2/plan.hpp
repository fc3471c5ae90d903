#pragma once
// Loop execution plans. OP2's code generator emits a "plan" per parallel
// loop: which elements can run concurrently (coloring), which elements can
// run while halo messages are in flight (core/tail split for latency
// hiding), and which halo subsets the loop needs (partial halo exchange).
// Here the plan is built at first invocation and cached by loop name.
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/op2/types.hpp"

namespace vcgt::op2 {

class Set;
class Map;
class DatBase;

/// ArgInfo::idx sentinel: the argument reaches *every* component of its map
/// row, not a single slot. Produced by the gather-free access builders
/// (op2::read_span — kernel indexes the whole dat through the row — and
/// op2::row, which has no dat at all); every planner scan that dereferences
/// `(*map)(e, idx)` expands it to the full 0..map.dim()-1 range.
constexpr int kIdxAll = -1;

/// Per-argument metadata extracted from the typed par_loop arguments.
struct ArgInfo {
  DatBase* dat = nullptr;   ///< null for globals and op2::row
  const Map* map = nullptr; ///< null for direct access
  int idx = 0;              ///< map component (0..map.dim-1), or kIdxAll
  Access acc = Access::Read;
  bool is_global = false;
};

/// Communication schedule for one set whose halo this loop may read.
/// When `full` is set the set-wide halo lists are used; otherwise the
/// loop-specific partial sublists (PH optimization) built collectively at
/// plan-construction time.
struct PlanSetComm {
  const Set* set = nullptr;
  bool full = true;
  bool covers_exec_direct = false;  ///< includes iteration set's exec slots
  /// Partial lists that happen to cover the entire halo: the exchange then
  /// counts as a full refresh for dat-level dirtiness (avoids re-exchanging
  /// the same data for every plan touching the dat).
  bool covers_full = false;
  std::vector<int> nbr_send;
  std::vector<std::vector<index_t>> send_idx;   ///< per neighbor: owned local indices
  std::vector<int> nbr_recv;
  std::vector<std::vector<index_t>> recv_slots; ///< per neighbor: local halo slots
  /// Per-neighbor payload high-water marks: Context::halo_buffer_allocs()
  /// counts growth events against these rather than pool freelist misses —
  /// whether a lease hits the shared pool's freelist depends on cross-rank
  /// timing (a receiver may still hold last epoch's slab), so freelist
  /// misses are not deterministic; payload sizes per site are.
  std::vector<std::size_t> send_watermark;
};

struct LoopPlan {
  std::string name;
  const Set* set = nullptr;
  std::uint64_t signature = 0;      ///< hash of arg metadata, validated per call
  bool exec_halo_iterated = false;  ///< loop runs owned + exec (indirect writes)
  index_t n_executed = 0;           ///< owned (+ exec when iterated)

  // Latency hiding: `core` elements touch no halo slot through any of the
  // loop's maps and can run while messages are in flight; `tail` must wait.
  std::vector<index_t> core;
  std::vector<index_t> tail;
  // Shared-memory coloring (built when the context executes with threads or
  // force_coloring): elements grouped by conflict-free color, core and tail
  // colored independently since they never run concurrently.
  bool colored = false;
  std::vector<std::vector<index_t>> core_colors;
  std::vector<std::vector<index_t>> tail_colors;

  std::vector<PlanSetComm> comms;

  /// Partial-halo cleanliness per dat for this plan (write-epoch compared).
  std::unordered_map<const DatBase*, std::uint64_t> clean_epoch;

  // Metering.
  std::uint64_t invocations = 0;
  double seconds = 0.0;        ///< total loop wall time (incl. exchange wait)
  double halo_seconds = 0.0;   ///< time blocked in halo receive/pack
  std::uint64_t halo_bytes = 0;
  std::uint64_t halo_msgs = 0;
  std::uint64_t elements = 0;  ///< elements executed across invocations
};

// --- loop chains (DESIGN.md §10) --------------------------------------------
// A LoopChain declares a sequence of par_loops up front so the planner can
// analyse them *together*: classify the cross-loop data dependences, carve
// the chain into fusible segments, build aligned cross-loop tiles inside
// each segment (executed loop-interleaved for locality, preserving each
// loop's ascending element order so results stay bit-identical to the
// eager reference, Config::chain_tile = 0, whenever it folds in flat
// ascending order — serial, or latency hiding off; see chain.cpp's
// execution-order contract), color the tiles for conflict-free parallel execution, and
// hoist every member's halo exchange to one grouped epoch at segment
// entry.

/// Cross-loop dependence kind between two chain members on a shared dat.
enum class ChainDepKind : std::uint8_t {
  Raw,  ///< earlier member writes, later member reads
  War,  ///< earlier member reads, later member writes
  Waw,  ///< both members write
};

const char* chain_dep_name(ChainDepKind k);

struct ChainDep {
  int src = 0;  ///< earlier member index
  int dst = 0;  ///< later member index
  const DatBase* dat = nullptr;
  ChainDepKind kind = ChainDepKind::Raw;
};

/// How much of a dat's local window holds correct values at a point in the
/// chain: owned elements only, owned + exec halo (redundantly recomputed),
/// or the full window including the non-exec halo (freshly exchanged).
enum class ChainRegion : std::uint8_t { Owned = 0, OwnedExec = 1, Full = 2 };

/// One declared member loop (name, iteration set, access descriptors) —
/// the planner's view of a LoopChain::add() call.
struct ChainLoopDecl {
  std::string name;
  const Set* set = nullptr;
  std::vector<ArgInfo> args;
};

struct ChainMemberPlan {
  std::string name;
  const Set* set = nullptr;
  std::uint64_t signature = 0;  ///< arg-metadata hash, validated per call
  std::vector<ArgInfo> args;
  /// Redundant exec-halo iteration forced by an indirect write (the same
  /// rule a solo par_loop applies).
  bool exec_halo_iterated = false;
  /// Chain-forced redundant exec iteration of a *direct* member: writing
  /// its outputs over the exec halo too lets a later member read them
  /// there without a mid-chain exchange.
  bool exec_extended = false;
  /// Member executes through its own full par_loop (global reductions
  /// need the deterministic-reduction / merge machinery; chain_tile 0
  /// makes every member standalone).
  bool standalone = false;
  index_t n_executed = 0;  ///< owned (+ exec when iterated/extended)
  int segment = 0;
};

/// A maximal fusible run of members (or a single standalone member).
struct ChainSegment {
  int first = 0;  ///< member index range, inclusive
  int last = 0;
  bool fused = false;  ///< tiled loop-interleaved execution
  /// Aligned cross-loop tiles: tile_end[m][t] is the end (exclusive) of
  /// tile t's contiguous element range for member `first + m`. Boundaries
  /// are dependence-aligned: every element a tile's later loops consume is
  /// produced by the same or an earlier tile, and ranges stay ascending so
  /// per-loop floating-point order is untouched.
  std::vector<std::vector<index_t>> tile_end;
  /// Dependence-aware tile colors: conflicting tiles (sharing a written
  /// element of any member's dat) get strictly increasing colors in tile
  /// order, so colors ascending respects every dependence and same-color
  /// tiles are conflict-free (parallel-safe).
  std::vector<int> tile_colors;
  int n_colors = 0;
  /// Fused halo epoch: dats some member reads through halos (with the
  /// region it needs), exchanged in one grouped epoch at segment entry
  /// when dirty. Intra-segment producers cover everything else.
  std::vector<std::pair<DatBase*, ChainRegion>> epoch_needs;
};

struct ChainPlan {
  std::string name;
  std::uint64_t signature = 0;  ///< fold of member signatures
  std::vector<ChainMemberPlan> members;
  std::vector<ChainDep> deps;
  std::vector<ChainSegment> segments;
  /// Per-set comm state for the fused epochs (full halo lists; owns the
  /// persistent send buffers).
  std::vector<PlanSetComm> comms;

  // Metering. Standalone members book their time in their own LoopPlan,
  // so each loop's time is counted once.
  std::uint64_t invocations = 0;
  double seconds = 0.0;        ///< fused-segment wall time (incl. epochs)
  double halo_seconds = 0.0;   ///< fused-epoch time (part of `seconds`)
  std::uint64_t halo_bytes = 0;
  std::uint64_t halo_msgs = 0;
  std::uint64_t halo_epochs = 0;  ///< fused epochs that exchanged anything
  std::uint64_t elements = 0;
};

/// Structural fingerprint of a plan on this rank: iteration size, redundant
/// exec-halo flag, core/tail element lists, color shapes and the full halo
/// communication schedule (neighbors, send indices, receive slots). Two
/// equivalent executions — e.g. the same mesh run with and without
/// transport chaos — must produce equal fingerprints on every rank; a
/// divergence localizes a planning bug (wrong partition, wrong halo list)
/// structurally, before any floating-point value is compared
/// (vcgt::verify). Excludes everything value- or cache-like: metering and
/// send high-water marks.
[[nodiscard]] std::uint64_t plan_fingerprint(const LoopPlan& plan);

/// Chained-plan overload: folds member structure (set, iteration sizes,
/// exec flags, access descriptors by dat/map id), the dependence edges,
/// segment boundaries, tile frontiers, tile colors and the fused-epoch
/// needs. Pointer-free: equivalent executions in different contexts
/// produce equal fingerprints on every rank, which is what makes chained
/// plans cacheable and lets vcgt::verify compare chained runs structurally
/// across variants.
[[nodiscard]] std::uint64_t plan_fingerprint(const ChainPlan& plan);

}  // namespace vcgt::op2
