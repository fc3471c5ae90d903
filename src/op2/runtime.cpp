#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "src/op2/context.hpp"
#include "src/op2/internal.hpp"
#include "src/op2/plancache.hpp"
#include "src/util/env_config.hpp"
#include "src/util/log.hpp"

namespace vcgt::op2 {

namespace {

/// FNV-1a accumulation helpers for plan_fingerprint.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}
std::uint64_t fnv1a(std::uint64_t h, const std::vector<index_t>& v) {
  h = fnv1a(h, v.size());
  for (const index_t e : v) h = fnv1a(h, static_cast<std::uint64_t>(e));
  return h;
}

}  // namespace

std::uint64_t plan_fingerprint(const LoopPlan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, static_cast<std::uint64_t>(plan.n_executed));
  h = fnv1a(h, plan.exec_halo_iterated ? 1u : 0u);
  h = fnv1a(h, plan.core);
  h = fnv1a(h, plan.tail);
  h = fnv1a(h, plan.colored ? 1u : 0u);
  h = fnv1a(h, plan.core_colors.size());
  for (const auto& c : plan.core_colors) h = fnv1a(h, c);
  h = fnv1a(h, plan.tail_colors.size());
  for (const auto& c : plan.tail_colors) h = fnv1a(h, c);
  h = fnv1a(h, plan.comms.size());
  for (const auto& sc : plan.comms) {
    h = fnv1a(h, static_cast<std::uint64_t>(sc.set->id()));
    h = fnv1a(h, sc.full ? 1u : 0u);
    h = fnv1a(h, sc.covers_exec_direct ? 1u : 0u);
    h = fnv1a(h, sc.nbr_send.size());
    for (std::size_t i = 0; i < sc.nbr_send.size(); ++i) {
      h = fnv1a(h, static_cast<std::uint64_t>(sc.nbr_send[i]));
      h = fnv1a(h, sc.send_idx[i]);
    }
    h = fnv1a(h, sc.nbr_recv.size());
    for (std::size_t i = 0; i < sc.nbr_recv.size(); ++i) {
      h = fnv1a(h, static_cast<std::uint64_t>(sc.nbr_recv[i]));
      h = fnv1a(h, sc.recv_slots[i]);
    }
  }
  return h;
}

std::uint64_t plan_fingerprint(const ChainPlan& plan) {
  // Pointer-free on purpose: dats and maps enter by declaration id so the
  // fingerprint is stable across processes and identical for equivalent
  // runs in different contexts.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold_args = [&](const std::vector<ArgInfo>& args) {
    h = fnv1a(h, args.size());
    for (const auto& a : args) {
      h = fnv1a(h, a.dat ? static_cast<std::uint64_t>(a.dat->id()) + 1 : 0u);
      h = fnv1a(h, a.map ? static_cast<std::uint64_t>(a.map->id()) + 1 : 0u);
      h = fnv1a(h, static_cast<std::uint64_t>(a.idx));
      h = fnv1a(h, static_cast<std::uint64_t>(a.acc));
      h = fnv1a(h, a.is_global ? 1u : 0u);
    }
  };
  h = fnv1a(h, plan.members.size());
  for (const auto& m : plan.members) {
    h = fnv1a(h, static_cast<std::uint64_t>(m.set->id()));
    h = fnv1a(h, static_cast<std::uint64_t>(m.n_executed));
    h = fnv1a(h, (m.exec_halo_iterated ? 1u : 0u) | (m.exec_extended ? 2u : 0u) |
                     (m.standalone ? 4u : 0u));
    h = fnv1a(h, static_cast<std::uint64_t>(m.segment));
    fold_args(m.args);
  }
  h = fnv1a(h, plan.deps.size());
  for (const auto& d : plan.deps) {
    h = fnv1a(h, static_cast<std::uint64_t>(d.src));
    h = fnv1a(h, static_cast<std::uint64_t>(d.dst));
    h = fnv1a(h, static_cast<std::uint64_t>(d.dat->id()));
    h = fnv1a(h, static_cast<std::uint64_t>(d.kind));
  }
  h = fnv1a(h, plan.segments.size());
  for (const auto& seg : plan.segments) {
    h = fnv1a(h, static_cast<std::uint64_t>(seg.first));
    h = fnv1a(h, static_cast<std::uint64_t>(seg.last));
    h = fnv1a(h, seg.fused ? 1u : 0u);
    h = fnv1a(h, seg.tile_end.size());
    for (const auto& te : seg.tile_end) h = fnv1a(h, te);
    h = fnv1a(h, seg.tile_colors.size());
    for (const int c : seg.tile_colors) h = fnv1a(h, static_cast<std::uint64_t>(c));
    h = fnv1a(h, static_cast<std::uint64_t>(seg.n_colors));
    h = fnv1a(h, seg.epoch_needs.size());
    for (const auto& [dat, region] : seg.epoch_needs) {
      h = fnv1a(h, static_cast<std::uint64_t>(dat->id()));
      h = fnv1a(h, static_cast<std::uint64_t>(region));
    }
  }
  return h;
}

std::map<std::string, std::uint64_t> Context::plan_fingerprints() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, plan] : plans_) out[name] = plan_fingerprint(*plan);
  for (const auto& [name, plan] : chains_) {
    out["chain:" + name] = plan_fingerprint(*plan);
  }
  return out;
}

Context::Context(minimpi::Comm comm, Config cfg)
    : comm_(std::move(comm)), cfg_(cfg),
      pool_(std::make_unique<util::ThreadPool>(cfg.nthreads)) {
  const util::EnvConfig env = util::env_config();
  if (env.op2_chain_tile) {
    if (*env.op2_chain_tile > 0) {
      cfg_.chain_tile = *env.op2_chain_tile;
    } else {
      util::warn("op2: ignoring non-positive VCGT_OP2_CHAIN_TILE '{}'", *env.op2_chain_tile);
    }
  }
  if (cfg_.chain_tile < 0) {
    throw std::invalid_argument("op2: Config::chain_tile must not be negative");
  }
}

Context::~Context() = default;

void Context::require_not_partitioned(const char* what) const {
  if (partitioned_) {
    throw std::logic_error(vcgt::util::fmt("op2: {} after partition() is not supported", what));
  }
}

Set& Context::decl_set(std::string name, gindex_t global_size) {
  require_not_partitioned("decl_set");
  if (global_size < 0) throw std::invalid_argument("op2: negative set size");
  if (global_size > kMaxMonolithicSetSize) {
    throw SetSizeError(
        vcgt::util::fmt("op2: monolithic set '{}' of {} elements exceeds the "
                        "index_t range ({}); declare billion-element sets with "
                        "decl_set_sharded",
                        name, global_size, kMaxMonolithicSetSize),
        name, global_size);
  }
  sets_.push_back(std::unique_ptr<Set>(
      new Set(this, static_cast<int>(sets_.size()), std::move(name), global_size)));
  return *sets_.back();
}

Set& Context::decl_set_sharded(std::string name, gindex_t global_size,
                               std::vector<gindex_t> shard_gids) {
  require_not_partitioned("decl_set_sharded");
  if (global_size < 0) throw std::invalid_argument("op2: negative set size");
  if (static_cast<gindex_t>(shard_gids.size()) > kMaxMonolithicSetSize) {
    throw SetSizeError(
        vcgt::util::fmt("op2: shard of set '{}' has {} rows, exceeding the "
                        "index_t range ({})",
                        name, shard_gids.size(), kMaxMonolithicSetSize),
        name, static_cast<gindex_t>(shard_gids.size()));
  }
  for (std::size_t i = 0; i < shard_gids.size(); ++i) {
    const gindex_t g = shard_gids[i];
    if (g < 0 || g >= global_size) {
      throw std::out_of_range(vcgt::util::fmt(
          "op2: shard gid {} of set '{}' outside [0, {})", g, name, global_size));
    }
    if (i > 0 && shard_gids[i - 1] >= g) {
      throw std::invalid_argument(vcgt::util::fmt(
          "op2: shard gids of set '{}' must be strictly ascending", name));
    }
  }
  any_sharded_ = true;
  sets_.push_back(std::unique_ptr<Set>(new Set(this, static_cast<int>(sets_.size()),
                                               std::move(name), global_size,
                                               std::move(shard_gids))));
  return *sets_.back();
}

Map& Context::decl_map(std::string name, Set& from, Set& to, int dim,
                       std::vector<index_t> global_table) {
  require_not_partitioned("decl_map");
  if (dim <= 0) throw std::invalid_argument("op2: map dim must be positive");
  if (from.sharded() != to.sharded()) {
    throw std::logic_error(vcgt::util::fmt(
        "op2: map '{}' mixes declaration modes: from-set '{}' is {}, to-set '{}' is {}",
        name, from.name(), from.sharded() ? "sharded" : "monolithic", to.name(),
        to.sharded() ? "sharded" : "monolithic"));
  }
  if (global_table.size() !=
      static_cast<std::size_t>(from.decl_rows()) * static_cast<std::size_t>(dim)) {
    throw std::invalid_argument(
        vcgt::util::fmt("op2: map '{}' table size {} != from.rows {} * dim {}", name,
                    global_table.size(), from.decl_rows(), dim));
  }
  for (const index_t t : global_table) {
    if (t < 0 || t >= to.decl_rows()) {
      throw std::out_of_range(vcgt::util::fmt("op2: map '{}' entry {} out of range", name, t));
    }
  }
  maps_.push_back(std::unique_ptr<Map>(new Map(static_cast<int>(maps_.size()),
                                               std::move(name), &from, &to, dim,
                                               std::move(global_table))));
  return *maps_.back();
}

void Context::register_dat(std::unique_ptr<DatBase> dat) {
  dats_.push_back(std::move(dat));
}

void Context::partition(Partitioner p, const Dat<double>& coords) {
  partition(p, std::vector<const Dat<double>*>{&coords});
}

void Context::partition(Partitioner p, const std::vector<const Dat<double>*>& primaries) {
  if (partitioned_) throw std::logic_error("op2: partition() called twice");
  if (primaries.empty()) throw std::invalid_argument("op2: partition() needs a primary set");
  if (any_sharded_) {
    throw std::logic_error(
        "op2: partition() on a context with sharded declarations; use partition_sharded()");
  }
  // Fingerprint-keyed owner reuse: owners are computed from replicated
  // global data and are identical on every rank, so one cached copy (keyed
  // by spec + partitioner + world size + primary sets) serves the whole
  // world. A mixed hit/miss would send some ranks down the cached path
  // while their peers run the collective partitioner, so all ranks agree
  // (allreduce-min of the local hit bit) before anyone consumes the hit.
  std::shared_ptr<const std::vector<std::vector<int>>> cached;
  std::string key;
  if (plan_cache_) {
    std::uint64_t prim = 0xcbf29ce484222325ull;
    for (const auto* d : primaries) {
      prim = (prim ^ static_cast<std::uint64_t>(d->set().id() + 1)) * 0x100000001b3ull;
    }
    key = cache_key("owners") + vcgt::util::fmt(":p{}:d{}", static_cast<int>(p), prim);
    cached = plan_cache_->lookup_as<std::vector<std::vector<int>>>(key);
    int hit = cached ? 1 : 0;
    if (distributed()) {
      hit = comm_.allreduce(hit, [](int a, int b) { return a < b ? a : b; });
    }
    if (hit == 0) cached.reset();
  }
  if (cached) {
    partition_cached_ = true;
    build_halos_and_localize(*cached);
  } else {
    partition_cached_ = false;
    auto owners =
        std::make_shared<const std::vector<std::vector<int>>>(compute_owners(p, primaries));
    build_halos_and_localize(*owners);
    if (plan_cache_) {
      std::size_t bytes = 64;
      for (const auto& v : *owners) bytes += v.size() * sizeof(int) + 32;
      plan_cache_->insert_value(key, owners, bytes);
    }
  }
  partitioned_ = true;
}

LoopPlan& Context::get_plan(const std::string& name, const Set& set,
                            const std::vector<ArgInfo>& args) {
  if (const auto it = plans_.find(name); it != plans_.end()) {
    LoopPlan& plan = *it->second;
    if (plan.signature != detail::arg_signature(args) || plan.set != &set) {
      throw std::logic_error(
          vcgt::util::fmt("op2: loop name '{}' reused with different arguments", name));
    }
    return plan;
  }

  if (distributed() && !partitioned_) {
    throw std::logic_error(
        vcgt::util::fmt("op2: loop '{}' executed before partition() on a distributed context",
                    name));
  }

  auto plan_ptr = std::make_unique<LoopPlan>();
  LoopPlan& plan = *plan_ptr;
  plan.name = name;
  plan.set = &set;
  plan.signature = detail::arg_signature(args);

  for (const auto& a : args) {
    if (a.dat && a.map && access_writes(a.acc)) plan.exec_halo_iterated = true;
    if (a.map && &a.map->from() != &set) {
      throw std::logic_error(vcgt::util::fmt(
          "op2: loop '{}' uses map '{}' whose from-set is not the iteration set", name,
          a.map->name()));
    }
  }
  plan.n_executed = set.n_owned() + (plan.exec_halo_iterated ? set.n_exec() : 0);

  // Core/tail split for latency hiding: core elements reference no halo slot
  // through any of the loop's maps.
  const bool overlap = cfg_.latency_hiding && distributed();
  for (index_t e = 0; e < plan.n_executed; ++e) {
    bool core = overlap && e < set.n_owned();
    if (core) {
      for (const auto& a : args) {
        if (!a.dat || !a.map) continue;
        const int i0 = a.idx == kIdxAll ? 0 : a.idx;
        const int i1 = a.idx == kIdxAll ? a.map->dim() : a.idx + 1;
        for (int i = i0; i < i1 && core; ++i) {
          if ((*a.map)(e, i) >= a.map->to().n_owned()) core = false;
        }
        if (!core) break;
      }
    }
    (core ? plan.core : plan.tail).push_back(e);
  }

  // Communication schedule: one entry per set whose halo the loop reads.
  if (distributed()) {
    std::vector<const Set*> comm_sets;
    bool direct_exec_reads = false;
    for (const auto& a : args) {
      if (!a.dat) continue;
      if (a.map && access_reads(a.acc)) {
        const Set* t = &a.map->to();
        if (std::find(comm_sets.begin(), comm_sets.end(), t) == comm_sets.end()) {
          comm_sets.push_back(t);
        }
      }
      if (!a.map && access_reads(a.acc) && plan.exec_halo_iterated) {
        direct_exec_reads = true;
      }
    }
    if (direct_exec_reads &&
        std::find(comm_sets.begin(), comm_sets.end(), &set) == comm_sets.end()) {
      comm_sets.push_back(&set);
    }
    for (const Set* s : comm_sets) {
      PlanSetComm sc;
      sc.set = s;
      sc.covers_exec_direct = (s == &set) && plan.exec_halo_iterated;
      sc.full = !cfg_.partial_halos;
      plan.comms.push_back(std::move(sc));
    }
    if (cfg_.partial_halos) build_partial_lists(plan, args);
  }

  if ((cfg_.nthreads > 1 || cfg_.force_coloring)) {
    detail::build_coloring(plan, args);
  }

  auto [it, inserted] = plans_.emplace(name, std::move(plan_ptr));
  (void)inserted;
  return *it->second;
}

void Context::post_loop(LoopPlan& plan, const std::vector<ArgInfo>& args, double seconds) {
  ++plan.invocations;
  plan.seconds += seconds;
  plan.elements += static_cast<std::uint64_t>(plan.n_executed);
  for (const auto& a : args) {
    if (a.dat && access_writes(a.acc)) a.dat->mark_written();
  }
}

std::vector<Context::LoopStatsView> Context::loop_stats() const {
  std::vector<LoopStatsView> out;
  out.reserve(plans_.size());
  for (const auto& [name, plan] : plans_) {
    out.push_back({name, plan->invocations, plan->seconds, plan->halo_seconds,
                   plan->halo_bytes, plan->halo_msgs, plan->elements});
  }
  return out;
}

Context::LoopStatsView Context::total_stats() const {
  LoopStatsView total;
  total.name = "(all loops)";
  for (const auto& [name, plan] : plans_) {
    total.invocations += plan->invocations;
    total.seconds += plan->seconds;
    total.halo_seconds += plan->halo_seconds;
    total.halo_bytes += plan->halo_bytes;
    total.halo_msgs += plan->halo_msgs;
    total.elements += plan->elements;
  }
  // Chain executions meter outside plans_ (fused epochs, interleaved tiles);
  // fold them in so the context-wide totals stay accurate under chaining.
  // Each fused member execution is one loop call, the same count the
  // member would add as a standalone par_loop.
  for (const auto& [name, plan] : chains_) {
    std::uint64_t fused = 0;
    for (const auto& seg : plan->segments) {
      if (seg.fused) fused += static_cast<std::uint64_t>(seg.last - seg.first + 1);
    }
    total.invocations += plan->invocations * fused;
    total.seconds += plan->seconds;
    total.halo_seconds += plan->halo_seconds;
    total.halo_bytes += plan->halo_bytes;
    total.halo_msgs += plan->halo_msgs;
    total.elements += plan->elements;
  }
  return total;
}

std::string Context::describe_plans() const {
  std::string out;
  for (const auto& [name, plan] : plans_) {
    out += vcgt::util::fmt(
        "loop '{}' over '{}': exec {} (core {}, tail {}){}{}", name, plan->set->name(),
        plan->n_executed, plan->core.size(), plan->tail.size(),
        plan->exec_halo_iterated ? ", redundant exec halo" : "",
        plan->colored
            ? vcgt::util::fmt(", colors {}+{}", plan->core_colors.size(),
                              plan->tail_colors.size())
            : "");
    if (!plan->comms.empty()) {
      out += ", halo reads:";
      for (const auto& sc : plan->comms) {
        out += vcgt::util::fmt(" {}({})", sc.set->name(), sc.full ? "full" : "partial");
      }
    }
    out += vcgt::util::fmt(" [{} calls, {} B exchanged]\n", plan->invocations,
                           plan->halo_bytes);
  }
  for (const auto& [name, cp] : chains_) {
    out += vcgt::util::fmt("chain '{}': {} members, {} deps, {} segments (", name,
                           cp->members.size(), cp->deps.size(), cp->segments.size());
    for (std::size_t i = 0; i < cp->segments.size(); ++i) {
      const auto& seg = cp->segments[i];
      out += vcgt::util::fmt(
          "{}{}[{}..{}]", i ? " " : "", seg.fused ? "fused" : "solo", seg.first, seg.last);
      if (seg.fused && !seg.tile_end.empty()) {
        out += vcgt::util::fmt(" tiles {} colors {}", seg.tile_end.front().size(),
                               seg.n_colors);
      }
    }
    out += vcgt::util::fmt(") [{} calls, {} epochs, {} B exchanged]\n", cp->invocations,
                           cp->halo_epochs, cp->halo_bytes);
    for (const auto& mp : cp->members) {
      out += vcgt::util::fmt("  member '{}' over '{}': exec {}{}{}{}\n", mp.name,
                             mp.set->name(), mp.n_executed,
                             mp.exec_halo_iterated ? ", redundant exec halo" : "",
                             mp.exec_extended ? " (extended)" : "",
                             mp.standalone ? ", standalone" : "");
    }
  }
  return out;
}

void Context::reset_stats() {
  for (auto& [name, plan] : plans_) {
    plan->invocations = 0;
    plan->seconds = 0.0;
    plan->halo_seconds = 0.0;
    plan->halo_bytes = 0;
    plan->halo_msgs = 0;
    plan->elements = 0;
  }
  for (auto& [name, plan] : chains_) {
    plan->invocations = 0;
    plan->seconds = 0.0;
    plan->halo_seconds = 0.0;
    plan->halo_bytes = 0;
    plan->halo_msgs = 0;
    plan->halo_epochs = 0;
    plan->elements = 0;
  }
  // Send-site growth is a warm-up artifact: steady-state metrics taken
  // after a reset must report zero further allocations, not the warm-up's.
  halo_buf_allocs_ = 0;
}

}  // namespace vcgt::op2
