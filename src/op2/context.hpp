#pragma once
// op2::Context — the per-rank runtime owning sets, maps, dats and loop plans.
//
// Usage (SPMD, one Context per rank; or a single serial Context):
//
//   op2::Context ctx(comm, config);
//   auto& nodes = ctx.decl_set("nodes", nnode);
//   auto& edges = ctx.decl_set("edges", nedge);
//   auto& e2n   = ctx.decl_map("e2n", edges, nodes, 2, global_table);
//   auto& x     = ctx.decl_dat<double>(nodes, 3, "x", coords);
//   ctx.partition(op2::Partitioner::Rcb, x);     // collective
//   op2::par_loop("res", edges, kernel, op2::read(x, e2n, 0), ...);
//
// Declarations take *global* data replicated on every rank (the meshes at
// this repository's scale fit comfortably; the paper's HDF5-parallel load is
// out of scope — see DESIGN.md). partition() computes element owners, the
// exec/non-exec halos, localizes every map and dat, and builds the halo
// exchange schedules. After partition() all par_loops execute distributed
// with OP2's owner-compute + redundant-computation semantics.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/minimpi/minimpi.hpp"
#include "src/util/threadpool.hpp"
#include "src/op2/dat.hpp"
#include "src/op2/map.hpp"
#include "src/op2/plan.hpp"
#include "src/op2/set.hpp"
#include "src/op2/types.hpp"

namespace vcgt::op2 {

class PlanCache;  // plancache.hpp

/// Halo exchange schedule for one set (built by partition()).
struct SetHalo {
  std::vector<int> nbr_send;                    ///< ranks importing my elements
  std::vector<std::vector<index_t>> send_idx;   ///< per neighbor: my owned indices
  std::vector<int> nbr_recv;                    ///< ranks owning my halo
  std::vector<std::vector<index_t>> recv_slots; ///< per neighbor: my halo slots
  std::vector<int> slot_src;                    ///< halo slot -> source rank
};

class Context {
 public:
  /// Serial context: single rank, no communication.
  Context() : Context(minimpi::Comm{}, Config{}) {}
  explicit Context(Config cfg) : Context(minimpi::Comm{}, cfg) {}
  /// Distributed context over a (sub-)communicator.
  explicit Context(minimpi::Comm comm, Config cfg = {});
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- declaration (pre-partition) ----------------------------------------
  /// Monolithic set declaration: every rank declares the full global set.
  /// Throws SetSizeError when `global_size` exceeds index_t range —
  /// monolithic declarations materialize identity numberings and full
  /// tables, so every gid must narrow losslessly; billion-element sets go
  /// through decl_set_sharded instead.
  Set& decl_set(std::string name, gindex_t global_size);
  /// Sharded set declaration (DESIGN.md §13): this rank declares only its
  /// shard rows — the owned block plus a ghost rind — identified by
  /// strictly ascending global ids. `global_size` may exceed 32 bits; only
  /// shard_gids.size() must fit index_t. Map tables and dats on a sharded
  /// set are indexed by *shard row*, not global id. Partition with
  /// partition_sharded().
  Set& decl_set_sharded(std::string name, gindex_t global_size,
                        std::vector<gindex_t> shard_gids);
  /// Declares a map. Monolithic from/to: `table` holds global target ids,
  /// one row per global from-element. Sharded from/to (modes must match):
  /// `table` holds shard-local target row indices, one row per shard row
  /// of `from` — every target must be present in the to-set's shard.
  Map& decl_map(std::string name, Set& from, Set& to, int dim,
                std::vector<index_t> global_table);
  template <class T>
  Dat<T>& decl_dat(Set& s, int dim, std::string name, std::vector<T> global_data = {}) {
    require_not_partitioned("decl_dat");
    auto dat = std::unique_ptr<Dat<T>>(
        new Dat<T>(&s, next_dat_id(), std::move(name), dim, std::move(global_data)));
    auto* ptr = dat.get();
    register_dat(std::move(dat));
    return *ptr;
  }
  template <class T>
  Global<T> decl_global(std::string name, int dim, std::vector<T> init = {}) {
    return Global<T>(std::move(name), dim, std::move(init));
  }

  // --- mesh renumbering (pre-partition) -------------------------------------
  // OP2 renumbers meshes (e.g. reverse Cuthill-McKee) to improve locality of
  // the indirect accesses; the same facility is provided here.

  /// Renumbers the set's global ids: new_id = perm[old_id]. Every dat on
  /// the set is permuted and every map table touching the set rewritten.
  /// Must precede partition(); callers holding old global ids (e.g. coupler
  /// interface registrations) must renumber consistently or avoid the set.
  void renumber_set(Set& s, std::span<const index_t> perm);

  /// Reverse Cuthill-McKee ordering of `s` over the adjacency induced by
  /// the declared maps targeting it. Returns the new_of_old permutation.
  [[nodiscard]] std::vector<index_t> reverse_cuthill_mckee(const Set& s) const;

  /// Adjacency bandwidth of the set's current numbering (locality metric:
  /// mean and max |i - j| over adjacent pairs).
  struct BandwidthStats {
    double mean = 0.0;
    index_t max = 0;
  };
  [[nodiscard]] BandwidthStats numbering_bandwidth(const Set& s) const;

  /// Collective: partitions the primary set (the set `coords` lives on) with
  /// the chosen strategy, derives ownership of every other set through the
  /// declared maps, builds halos and localizes all maps and dats.
  void partition(Partitioner p, const Dat<double>& coords);
  /// Monolithic variant: several independent primary sets (e.g. one cell set
  /// per blade row in a single context), each partitioned over all ranks.
  void partition(Partitioner p, const std::vector<const Dat<double>*>& primaries);

  /// Collective: partitions sharded declarations (decl_set_sharded).
  /// Ownership is deterministic from global ids alone — primary sets use
  /// block_owner(gid, global_size, nranks), exactly the monolithic Block
  /// partitioner's formula, and every other set inherits ownership through
  /// its maps (owner of the first map target, declaration order, to a
  /// fixpoint) exactly as compute_owners() propagates. The resulting local
  /// numbering, halo schedules and plan fingerprints are bit-identical to a
  /// monolithic partition(Partitioner::Block, ...) of the same declaration
  /// — the shard-vs-monolithic equivalence contract (DESIGN.md §13).
  /// Throws std::logic_error when the shard ghost rind is insufficient to
  /// reproduce the monolithic halos.
  void partition_sharded(const std::vector<const Set*>& primaries);

  [[nodiscard]] bool partitioned() const { return partitioned_; }
  /// True when any set was declared via decl_set_sharded.
  [[nodiscard]] bool sharded() const { return any_sharded_; }
  [[nodiscard]] bool distributed() const { return comm_.valid() && comm_.size() > 1; }
  [[nodiscard]] int rank() const { return comm_.valid() ? comm_.rank() : 0; }
  [[nodiscard]] int nranks() const { return comm_.valid() ? comm_.size() : 1; }
  [[nodiscard]] minimpi::Comm& comm() { return comm_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] Config& config() { return cfg_; }

  [[nodiscard]] const SetHalo& halo(const Set& s) const {
    return halos_[static_cast<std::size_t>(s.id())];
  }

  /// Halo send-site payload growth events; flat after warm-up (tested).
  [[nodiscard]] std::uint64_t halo_buffer_allocs() const { return halo_buf_allocs_; }

  // --- plan cache (serve front end; DESIGN.md §12) --------------------------
  /// Attaches a shared PlanCache. `spec_key` must cover *everything* that
  /// shapes this context's setup artifacts — mesh/declaration structure,
  /// renumbering, the op2 Config — typically vcgt::SessionSpec::hash()
  /// folded with a per-row discriminator. SPMD rule: set the same cache and
  /// key on every rank of the communicator, or on none (the import paths
  /// agree hit/miss collectively). Call before partition().
  void set_plan_cache(PlanCache* cache, std::uint64_t spec_key);
  [[nodiscard]] PlanCache* plan_cache() const { return plan_cache_; }
  /// True when the last partition() consumed cached element owners instead
  /// of running the partitioner.
  [[nodiscard]] bool partition_was_cached() const { return partition_cached_; }
  /// True when import_plans_from_cache() adopted cached plans.
  [[nodiscard]] bool plans_were_imported() const { return plans_imported_; }
  /// Collective when distributed: adopts every loop/chain plan snapshot a
  /// previous context of the same spec exported, iff *all* ranks hit (a
  /// mixed hit/miss would send some ranks down the cached path while their
  /// peers enter the collective plan build — deadlock). Call after
  /// partition() and before the first par_loop. Returns true on import.
  bool import_plans_from_cache();
  /// Snapshots every built plan into the cache under this rank's key. Call
  /// only after a *successful* run — failure paths must never export, so a
  /// killed or faulted job cannot poison the cache. Local, never blocks.
  bool export_plans_to_cache();

  /// Shared-memory worker pool (created from config().nthreads).
  [[nodiscard]] util::ThreadPool& pool() { return *pool_; }

  /// Gathers a dat back to a full global array on every rank (tests, I/O,
  /// the coupler's interface registration). Collective when distributed.
  template <class T>
  std::vector<T> fetch_global(const Dat<T>& d) {
    const Set& s = d.set();
    if (s.global_size() > kMaxMonolithicSetSize) {
      throw SetSizeError("op2: fetch_global on set '" + s.name() + "' of " +
                             std::to_string(s.global_size()) +
                             " elements exceeds the replicated-array range",
                         s.name(), s.global_size());
    }
    const auto dim = static_cast<std::size_t>(d.dim());
    std::vector<T> out(static_cast<std::size_t>(s.global_size()) * dim);
    if (!distributed() && !s.sharded()) {
      for (index_t e = 0; e < static_cast<index_t>(s.global_size()); ++e) {
        for (std::size_t c = 0; c < dim; ++c) {
          out[static_cast<std::size_t>(e) * dim + c] = d.at(e, static_cast<int>(c));
        }
      }
      return out;
    }
    // Pack (gid, values) for owned elements; allgather; scatter into place.
    std::vector<T> packed;
    packed.reserve(static_cast<std::size_t>(s.n_owned()) * dim);
    for (index_t e = 0; e < s.n_owned(); ++e) {
      for (std::size_t c = 0; c < dim; ++c) packed.push_back(d.at(e, static_cast<int>(c)));
    }
    std::vector<gindex_t> gids(s.local_to_global().begin(),
                               s.local_to_global().begin() + s.n_owned());
    if (!distributed()) {
      for (std::size_t i = 0; i < gids.size(); ++i) {
        const auto g = static_cast<std::size_t>(gids[i]);
        for (std::size_t c = 0; c < dim; ++c) out[g * dim + c] = packed[i * dim + c];
      }
      return out;
    }
    const auto all_vals = comm_.allgatherv(std::span<const T>(packed));
    const auto all_gids = comm_.allgatherv(std::span<const gindex_t>(gids));
    for (std::size_t i = 0; i < all_gids.size(); ++i) {
      const auto g = static_cast<std::size_t>(all_gids[i]);
      for (std::size_t c = 0; c < dim; ++c) out[g * dim + c] = all_vals[i * dim + c];
    }
    return out;
  }

  // --- par_loop machinery (used by parloop.hpp; stable API for tests) ------
  /// Handle for an in-flight halo exchange round (latency hiding).
  struct PendingExchange {
    struct Recv {
      std::vector<DatBase*> dats;                 ///< >1 when grouped
      int from = -1;
      int tag = 0;
      const std::vector<index_t>* slots = nullptr;
    };
    std::vector<Recv> recvs;
  };

  LoopPlan& get_plan(const std::string& name, const Set& set,
                     const std::vector<ArgInfo>& args);
  /// Builds (first call) or revalidates the cached plan for a declared loop
  /// chain: dependence analysis, segmentation, aligned cross-loop tiles,
  /// tile coloring and the fused-epoch needs. Collective when distributed
  /// (halo-coverage decisions are agreed by allreduce).
  ChainPlan& get_chain_plan(const std::string& name,
                            const std::vector<ChainLoopDecl>& decls);
  /// Fused halo epoch for one chain segment: exchanges every dirty dat the
  /// segment reads through halos in one grouped round (one message per
  /// set and neighbor covering all such dats), completing before return.
  void chain_exchange(ChainPlan& plan, const ChainSegment& seg);
  /// Cached chain plan by chain name (tests / benchmarks), else null.
  [[nodiscard]] const ChainPlan* find_chain(const std::string& name) const;
  /// Posts sends for every dirty dat the loop reads through halos.
  PendingExchange exchange_begin(LoopPlan& plan, const std::vector<ArgInfo>& args);
  /// Completes receives, scattering payloads into halo slots.
  void exchange_end(LoopPlan& plan, PendingExchange& pending);
  /// Marks written dats dirty; bumps plan metering.
  void post_loop(LoopPlan& plan, const std::vector<ArgInfo>& args, double seconds);

  // --- reduction helpers for par_loop's typed layer -------------------------
  template <class T>
  void finalize_global(Global<T>& g, Access acc, std::span<const T> initial) {
    if (!distributed()) return;
    if constexpr (std::is_same_v<T, double>) {
      if (acc == Access::Inc) {
        // Batched: every component of the global rides one vector
        // allreduce instead of one collective per component — a dim-2d
        // Global carrying CG's fused dot pair pays a single round.
        std::vector<double> local_inc(static_cast<std::size_t>(g.dim()));
        for (int c = 0; c < g.dim(); ++c) {
          local_inc[static_cast<std::size_t>(c)] =
              g.data()[c] - initial[static_cast<std::size_t>(c)];
        }
        const auto sums = comm_.allreduce_sum(std::span<const double>(local_inc));
        for (int c = 0; c < g.dim(); ++c) {
          g.data()[c] =
              initial[static_cast<std::size_t>(c)] + sums[static_cast<std::size_t>(c)];
        }
        return;
      }
    }
    for (int c = 0; c < g.dim(); ++c) {
      T& v = g.data()[c];
      switch (acc) {
        case Access::Inc: {
          const T local_inc = v - initial[static_cast<std::size_t>(c)];
          v = initial[static_cast<std::size_t>(c)] +
              comm_.allreduce(local_inc, [](T a, T b) { return a + b; });
          break;
        }
        case Access::Min:
          v = comm_.allreduce(v, [](T a, T b) { return a < b ? a : b; });
          break;
        case Access::Max:
          v = comm_.allreduce(v, [](T a, T b) { return a > b ? a : b; });
          break;
        default:
          break;
      }
    }
  }

  /// Deterministic distributed Inc finalization (delta capture, DESIGN.md
  /// §11): every rank contributes its owned elements' per-element reduction
  /// deltas keyed by global id; all records are gathered, sorted by gid and
  /// folded ascending from zero, and the pre-loop value is added once —
  /// exactly the serial executor's fold, so the result is bit-identical
  /// across rank counts for kernels folding one value per component per
  /// element. `deltas` is strided: `stride` doubles per record, this
  /// global's dim() values at `offset`.
  template <class T>
  void finalize_global_det(Global<T>& g, std::span<const T> initial,
                           std::span<const gindex_t> gids, std::span<const double> deltas,
                           std::size_t stride, std::size_t offset) {
    const auto d = static_cast<std::size_t>(g.dim());
    std::vector<double> mine(gids.size() * d);
    for (std::size_t i = 0; i < gids.size(); ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        mine[i * d + c] = deltas[i * stride + offset + c];
      }
    }
    const auto all_gids = comm_.allgatherv(gids);
    const auto all_vals = comm_.allgatherv(std::span<const double>(mine));
    std::vector<std::size_t> order(all_gids.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return all_gids[a] < all_gids[b]; });
    for (std::size_t c = 0; c < d; ++c) {
      T s{};
      for (const std::size_t i : order) s += static_cast<T>(all_vals[i * d + c]);
      g.data()[c] = initial[c] + s;
    }
  }

  // --- metering -------------------------------------------------------------
  struct LoopStatsView {
    std::string name;
    std::uint64_t invocations = 0;
    double seconds = 0.0;
    double halo_seconds = 0.0;
    std::uint64_t halo_bytes = 0;
    std::uint64_t halo_msgs = 0;
    std::uint64_t elements = 0;
  };
  [[nodiscard]] std::vector<LoopStatsView> loop_stats() const;
  [[nodiscard]] LoopStatsView total_stats() const;
  void reset_stats();

  /// Human-readable dump of every cached execution plan (OP2's diagnostic
  /// output): iteration sizes, core/tail split, color counts, halo sets.
  [[nodiscard]] std::string describe_plans() const;

  /// Structural fingerprint of every cached plan on this rank, keyed by
  /// loop name (plans_ is name-sorted, so iteration order is stable). Used
  /// by vcgt::verify to compare execution structure — partition, core/tail
  /// split, halo schedules — across equivalent runs before comparing
  /// values; see plan_fingerprint() in plan.hpp.
  [[nodiscard]] std::map<std::string, std::uint64_t> plan_fingerprints() const;

  [[nodiscard]] const std::vector<std::unique_ptr<Set>>& sets() const { return sets_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Map>>& maps() const { return maps_; }
  [[nodiscard]] const std::vector<std::unique_ptr<DatBase>>& dats() const { return dats_; }

 private:
  friend class Set;

  void require_not_partitioned(const char* what) const;
  int next_dat_id() { return static_cast<int>(dats_.size()); }
  void register_dat(std::unique_ptr<DatBase> dat);

  // partition internals (partition.cpp / halo.cpp)
  std::vector<std::vector<int>> compute_owners(
      Partitioner p, const std::vector<const Dat<double>*>& primaries) const;
  void build_halos_and_localize(const std::vector<std::vector<int>>& owners);

  // exchange internals (halo.cpp)
  void build_partial_lists(LoopPlan& plan, const std::vector<ArgInfo>& args);
  std::vector<index_t> needed_halo_slots(const LoopPlan& plan, const Set& target,
                                         const std::vector<ArgInfo>& args,
                                         bool include_exec_direct) const;
  /// The single pack+send and receive+unpack sites of every halo message
  /// (grouped, ungrouped, fused chain epochs); both return payload bytes.
  /// halo_pack_send gathers `dats` over `idx` (AoS order) into a pooled
  /// buffer, moves it to `peer` and meters growth at neighbor `i` into
  /// halo_buf_allocs_. halo_recv_unpack checks the full length before it
  /// scatters; a receive timeout becomes a HaloError naming `s`.
  std::size_t halo_pack_send(PlanSetComm& sc, std::size_t i, const std::vector<index_t>& idx,
                             const std::vector<DatBase*>& dats, int peer, int tag, const Set& s);
  std::size_t halo_recv_unpack(int from, int tag, const std::vector<DatBase*>& dats,
                               const std::vector<index_t>& slots, const Set& s);

  minimpi::Comm comm_;
  Config cfg_;
  std::unique_ptr<util::ThreadPool> pool_;
  bool partitioned_ = false;
  bool any_sharded_ = false;

  std::vector<std::unique_ptr<Set>> sets_;
  std::vector<std::unique_ptr<Map>> maps_;
  std::vector<std::unique_ptr<DatBase>> dats_;
  // chain internals (chain.cpp)
  void build_chain_plan(ChainPlan& plan, const std::vector<ChainLoopDecl>& decls);

  std::vector<SetHalo> halos_;  // indexed by set id
  std::map<std::string, std::unique_ptr<LoopPlan>> plans_;
  std::map<std::string, std::unique_ptr<ChainPlan>> chains_;
  std::uint64_t halo_buf_allocs_ = 0;

  // Plan cache wiring (plansnap.cpp); not owned.
  std::string cache_key(const char* kind) const;
  PlanCache* plan_cache_ = nullptr;
  std::uint64_t spec_key_ = 0;
  bool partition_cached_ = false;
  bool plans_imported_ = false;

  // Kept from partitioning for plan construction: per set, global->owner and
  // per-rank global exec/nonexec import lists are discarded; only the local
  // views (l2g, halos) are retained. g2l maps survive for coupler lookups.
  std::vector<std::map<gindex_t, index_t>> g2l_;  // per set: global -> local

 public:
  /// Global-to-local lookup (post-partition); returns -1 when the element is
  /// not present on this rank. Used by the coupler to address interface
  /// nodes. 64-bit gids: round-trips exactly for ids above 2^31.
  [[nodiscard]] index_t global_to_local(const Set& s, gindex_t gid) const {
    const auto& m = g2l_[static_cast<std::size_t>(s.id())];
    const auto it = m.find(gid);
    return it == m.end() ? index_t{-1} : it->second;
  }
};

}  // namespace vcgt::op2
