// Plan snapshots — the tentpole of the fingerprint-keyed plan cache
// (DESIGN.md §12). A Context that finished setup exports its loop and chain
// plans as *pointer-free* snapshots (sets, maps and dats enter by
// declaration id); a later Context built from the same SessionSpec imports
// them, remapping ids onto its own declarations, and skips plan
// construction entirely — core/tail splits, coloring, partial halo lists,
// chain segmentation and tiling all come back for the cost of a few
// memcpys.
//
// Safety rails:
//  - keys embed the spec hash, a config-mode word, the world size and the
//    rank, so a snapshot can only ever be offered to a structurally
//    identical context;
//  - every snapshot stores its plan_fingerprint(); the import re-computes
//    the fingerprint of the reconstructed plan and throws on mismatch
//    (a mismatch is a reconstruction bug, never a recoverable condition);
//  - the import is collective: all ranks agree (allreduce-min) that every
//    rank hit *and validated* before any rank adopts a plan, because a
//    mixed hit/miss would dodge the collective plan build on some ranks
//    only and deadlock the world;
//  - send high-water marks (PlanSetComm::send_watermark) and partial-halo
//    cleanliness (clean_epoch) are never snapshotted: marks re-grow on
//    first exchange (metered as warm-up), cleanliness falls back to the
//    dat-level epoch exactly like a freshly built plan.
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/op2/context.hpp"
#include "src/op2/plancache.hpp"
#include "src/util/fmt.hpp"
#include "src/util/log.hpp"

namespace vcgt::op2 {

namespace {

struct CommSnap {
  int set = -1;
  bool full = true;
  bool covers_exec_direct = false;
  bool covers_full = false;
  std::vector<int> nbr_send;
  std::vector<std::vector<index_t>> send_idx;
  std::vector<int> nbr_recv;
  std::vector<std::vector<index_t>> recv_slots;
};

struct ArgSnap {
  int dat = -1;  ///< declaration id, -1 for none
  int map = -1;
  int idx = 0;
  Access acc = Access::Read;
  bool is_global = false;
};

struct LoopSnap {
  std::string name;
  int set = -1;
  std::uint64_t signature = 0;
  bool exec_halo_iterated = false;
  index_t n_executed = 0;
  std::vector<index_t> core;
  std::vector<index_t> tail;
  bool colored = false;
  std::vector<std::vector<index_t>> core_colors;
  std::vector<std::vector<index_t>> tail_colors;
  std::vector<CommSnap> comms;
  std::uint64_t fingerprint = 0;
};

struct MemberSnap {
  std::string name;
  int set = -1;
  std::uint64_t signature = 0;
  std::vector<ArgSnap> args;
  bool exec_halo_iterated = false;
  bool exec_extended = false;
  bool standalone = false;
  index_t n_executed = 0;
  int segment = 0;
};

struct DepSnap {
  int src = 0;
  int dst = 0;
  int dat = -1;
  ChainDepKind kind = ChainDepKind::Raw;
};

struct SegSnap {
  int first = 0;
  int last = 0;
  bool fused = false;
  std::vector<std::vector<index_t>> tile_end;
  std::vector<int> tile_colors;
  int n_colors = 0;
  std::vector<std::pair<int, ChainRegion>> epoch_needs;  ///< dat id, region
};

struct ChainSnap {
  std::string name;
  std::uint64_t signature = 0;
  std::vector<MemberSnap> members;
  std::vector<DepSnap> deps;
  std::vector<SegSnap> segments;
  std::vector<CommSnap> comms;
  std::uint64_t fingerprint = 0;
};

/// The cached value: every plan this rank had built, in name order.
struct PlanSnapshot {
  std::vector<LoopSnap> loops;
  std::vector<ChainSnap> chains;
};

// --- size estimation (LRU accounting) ---------------------------------------

template <class T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.size() * sizeof(T) + 32;
}

template <class T>
std::size_t vec2_bytes(const std::vector<std::vector<T>>& v) {
  std::size_t b = 32;
  for (const auto& inner : v) b += vec_bytes(inner);
  return b;
}

std::size_t comm_bytes(const CommSnap& c) {
  return vec_bytes(c.nbr_send) + vec2_bytes(c.send_idx) + vec_bytes(c.nbr_recv) +
         vec2_bytes(c.recv_slots) + 64;
}

std::size_t snapshot_bytes(const PlanSnapshot& s) {
  std::size_t b = 128;
  for (const auto& l : s.loops) {
    b += 128 + l.name.size() + vec_bytes(l.core) + vec_bytes(l.tail) +
         vec2_bytes(l.core_colors) + vec2_bytes(l.tail_colors);
    for (const auto& c : l.comms) b += comm_bytes(c);
  }
  for (const auto& ch : s.chains) {
    b += 128 + ch.name.size() + vec_bytes(ch.deps);
    for (const auto& m : ch.members) b += 96 + m.name.size() + vec_bytes(m.args);
    for (const auto& seg : ch.segments) {
      b += 64 + vec2_bytes(seg.tile_end) + vec_bytes(seg.tile_colors) +
           vec_bytes(seg.epoch_needs);
    }
    for (const auto& c : ch.comms) b += comm_bytes(c);
  }
  return b;
}

// --- capture -----------------------------------------------------------------

CommSnap snap_comm(const PlanSetComm& c) {
  CommSnap s;
  s.set = c.set->id();
  s.full = c.full;
  s.covers_exec_direct = c.covers_exec_direct;
  s.covers_full = c.covers_full;
  s.nbr_send = c.nbr_send;
  s.send_idx = c.send_idx;
  s.nbr_recv = c.nbr_recv;
  s.recv_slots = c.recv_slots;
  return s;
}

ArgSnap snap_arg(const ArgInfo& a) {
  ArgSnap s;
  s.dat = a.dat ? a.dat->id() : -1;
  s.map = a.map ? a.map->id() : -1;
  s.idx = a.idx;
  s.acc = a.acc;
  s.is_global = a.is_global;
  return s;
}

LoopSnap snap_loop(const LoopPlan& p) {
  LoopSnap s;
  s.name = p.name;
  s.set = p.set->id();
  s.signature = p.signature;
  s.exec_halo_iterated = p.exec_halo_iterated;
  s.n_executed = p.n_executed;
  s.core = p.core;
  s.tail = p.tail;
  s.colored = p.colored;
  s.core_colors = p.core_colors;
  s.tail_colors = p.tail_colors;
  for (const auto& c : p.comms) s.comms.push_back(snap_comm(c));
  s.fingerprint = plan_fingerprint(p);
  return s;
}

ChainSnap snap_chain(const ChainPlan& p) {
  ChainSnap s;
  s.name = p.name;
  s.signature = p.signature;
  for (const auto& m : p.members) {
    MemberSnap ms;
    ms.name = m.name;
    ms.set = m.set->id();
    ms.signature = m.signature;
    for (const auto& a : m.args) ms.args.push_back(snap_arg(a));
    ms.exec_halo_iterated = m.exec_halo_iterated;
    ms.exec_extended = m.exec_extended;
    ms.standalone = m.standalone;
    ms.n_executed = m.n_executed;
    ms.segment = m.segment;
    s.members.push_back(std::move(ms));
  }
  for (const auto& d : p.deps) {
    s.deps.push_back({d.src, d.dst, d.dat ? d.dat->id() : -1, d.kind});
  }
  for (const auto& seg : p.segments) {
    SegSnap gs;
    gs.first = seg.first;
    gs.last = seg.last;
    gs.fused = seg.fused;
    gs.tile_end = seg.tile_end;
    gs.tile_colors = seg.tile_colors;
    gs.n_colors = seg.n_colors;
    for (const auto& [dat, region] : seg.epoch_needs) {
      gs.epoch_needs.emplace_back(dat->id(), region);
    }
    s.segments.push_back(std::move(gs));
  }
  for (const auto& c : p.comms) s.comms.push_back(snap_comm(c));
  s.fingerprint = plan_fingerprint(p);
  return s;
}

// --- reconstruction ----------------------------------------------------------

struct Registry {
  const std::vector<std::unique_ptr<Set>>* sets = nullptr;
  const std::vector<std::unique_ptr<Map>>* maps = nullptr;
  const std::vector<std::unique_ptr<DatBase>>* dats = nullptr;

  [[nodiscard]] bool set_ok(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < sets->size();
  }
  [[nodiscard]] bool map_ok(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < maps->size();
  }
  [[nodiscard]] bool dat_ok(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < dats->size();
  }
  [[nodiscard]] const Set* set(int id) const { return (*sets)[static_cast<std::size_t>(id)].get(); }
  [[nodiscard]] const Map* map(int id) const { return (*maps)[static_cast<std::size_t>(id)].get(); }
  [[nodiscard]] DatBase* dat(int id) const { return (*dats)[static_cast<std::size_t>(id)].get(); }
};

bool comm_valid(const CommSnap& c, const Registry& reg) { return reg.set_ok(c.set); }

bool arg_valid(const ArgSnap& a, const Registry& reg) {
  if (a.dat >= 0 && !reg.dat_ok(a.dat)) return false;
  if (a.map >= 0 && !reg.map_ok(a.map)) return false;
  return true;
}

bool loop_valid(const LoopSnap& l, const Registry& reg) {
  if (!reg.set_ok(l.set)) return false;
  for (const auto& c : l.comms) {
    if (!comm_valid(c, reg)) return false;
  }
  return true;
}

bool chain_valid(const ChainSnap& ch, const Registry& reg) {
  for (const auto& m : ch.members) {
    if (!reg.set_ok(m.set)) return false;
    for (const auto& a : m.args) {
      if (!arg_valid(a, reg)) return false;
    }
  }
  for (const auto& d : ch.deps) {
    if (d.dat >= 0 && !reg.dat_ok(d.dat)) return false;
  }
  for (const auto& seg : ch.segments) {
    for (const auto& [dat, region] : seg.epoch_needs) {
      (void)region;
      if (!reg.dat_ok(dat)) return false;
    }
  }
  for (const auto& c : ch.comms) {
    if (!comm_valid(c, reg)) return false;
  }
  return true;
}

PlanSetComm make_comm(const CommSnap& s, const Registry& reg) {
  PlanSetComm c;
  c.set = reg.set(s.set);
  c.full = s.full;
  c.covers_exec_direct = s.covers_exec_direct;
  c.covers_full = s.covers_full;
  c.nbr_send = s.nbr_send;
  c.send_idx = s.send_idx;
  c.nbr_recv = s.nbr_recv;
  c.recv_slots = s.recv_slots;
  // send_watermark stays empty: it re-grows as metered warm-up, like a cold plan.
  return c;
}

ArgInfo make_arg(const ArgSnap& s, const Registry& reg) {
  ArgInfo a;
  a.dat = s.dat >= 0 ? reg.dat(s.dat) : nullptr;
  a.map = s.map >= 0 ? reg.map(s.map) : nullptr;
  a.idx = s.idx;
  a.acc = s.acc;
  a.is_global = s.is_global;
  return a;
}

std::unique_ptr<LoopPlan> make_loop(const LoopSnap& s, const Registry& reg) {
  auto p = std::make_unique<LoopPlan>();
  p->name = s.name;
  p->set = reg.set(s.set);
  p->signature = s.signature;
  p->exec_halo_iterated = s.exec_halo_iterated;
  p->n_executed = s.n_executed;
  p->core = s.core;
  p->tail = s.tail;
  p->colored = s.colored;
  p->core_colors = s.core_colors;
  p->tail_colors = s.tail_colors;
  for (const auto& c : s.comms) p->comms.push_back(make_comm(c, reg));
  if (plan_fingerprint(*p) != s.fingerprint) {
    throw std::runtime_error(vcgt::util::fmt(
        "op2: plan cache snapshot for loop '{}' failed fingerprint revalidation", s.name));
  }
  return p;
}

std::unique_ptr<ChainPlan> make_chain(const ChainSnap& s, const Registry& reg) {
  auto p = std::make_unique<ChainPlan>();
  p->name = s.name;
  p->signature = s.signature;
  for (const auto& ms : s.members) {
    ChainMemberPlan m;
    m.name = ms.name;
    m.set = reg.set(ms.set);
    m.signature = ms.signature;
    for (const auto& a : ms.args) m.args.push_back(make_arg(a, reg));
    m.exec_halo_iterated = ms.exec_halo_iterated;
    m.exec_extended = ms.exec_extended;
    m.standalone = ms.standalone;
    m.n_executed = ms.n_executed;
    m.segment = ms.segment;
    p->members.push_back(std::move(m));
  }
  for (const auto& d : s.deps) {
    p->deps.push_back({d.src, d.dst, d.dat >= 0 ? reg.dat(d.dat) : nullptr, d.kind});
  }
  for (const auto& gs : s.segments) {
    ChainSegment seg;
    seg.first = gs.first;
    seg.last = gs.last;
    seg.fused = gs.fused;
    seg.tile_end = gs.tile_end;
    seg.tile_colors = gs.tile_colors;
    seg.n_colors = gs.n_colors;
    for (const auto& [dat, region] : gs.epoch_needs) {
      seg.epoch_needs.emplace_back(reg.dat(dat), region);
    }
    p->segments.push_back(std::move(seg));
  }
  for (const auto& c : s.comms) p->comms.push_back(make_comm(c, reg));
  if (plan_fingerprint(*p) != s.fingerprint) {
    throw std::runtime_error(vcgt::util::fmt(
        "op2: plan cache snapshot for chain '{}' failed fingerprint revalidation", s.name));
  }
  return p;
}

}  // namespace

// --- Context hooks -----------------------------------------------------------

void Context::set_plan_cache(PlanCache* cache, std::uint64_t spec_key) {
  if (partitioned_ && cache != nullptr) {
    throw std::logic_error("op2: set_plan_cache must precede partition()");
  }
  plan_cache_ = cache;
  spec_key_ = spec_key;
}

std::string Context::cache_key(const char* kind) const {
  // The spec key covers the declared structure; the mode word additionally
  // pins the Config toggles that reshape plans, so two contexts sharing a
  // spec_key but configured differently (tests do this) never collide.
  const std::uint64_t mode = (cfg_.latency_hiding ? 1u : 0u) |
                             ((cfg_.force_coloring || cfg_.nthreads > 1) ? 2u : 0u) |
                             (cfg_.partial_halos ? 4u : 0u) | (cfg_.grouped_halos ? 8u : 0u) |
                             (static_cast<std::uint64_t>(cfg_.chain_tile) << 5);
  // Sharded and monolithic declarations of the same spec produce identical
  // plans by the equivalence contract, but their setup paths differ (e.g.
  // owner snapshots are monolithic-only), so the keyspace separates them.
  return vcgt::util::fmt("{}:{}:m{}:s{}:n{}", kind, spec_key_, mode,
                         any_sharded_ ? 1 : 0, nranks());
}

bool Context::export_plans_to_cache() {
  if (plan_cache_ == nullptr) return false;
  if (plans_.empty() && chains_.empty()) return false;
  const std::string key = cache_key("plans") + vcgt::util::fmt(":r{}", rank());
  if (plan_cache_->contains(key)) return false;  // identical producer already exported
  auto snap = std::make_shared<PlanSnapshot>();
  for (const auto& [name, plan] : plans_) snap->loops.push_back(snap_loop(*plan));
  for (const auto& [name, chain] : chains_) snap->chains.push_back(snap_chain(*chain));
  const std::size_t bytes = snapshot_bytes(*snap);
  plan_cache_->insert_value<PlanSnapshot>(key, std::move(snap), bytes);
  return true;
}

bool Context::import_plans_from_cache() {
  if (plan_cache_ == nullptr) return false;  // SPMD: cache set on all ranks or none
  const std::string key = cache_key("plans") + vcgt::util::fmt(":r{}", rank());
  auto snap = plan_cache_->lookup_as<PlanSnapshot>(key);
  Registry reg{&sets_, &maps_, &dats_};
  int hit = snap != nullptr ? 1 : 0;
  if (hit == 1) {
    // Id-range validation is rank-invariant (declarations are SPMD-
    // replicated), so every rank reaches the same verdict on its own copy.
    for (const auto& l : snap->loops) hit &= loop_valid(l, reg) ? 1 : 0;
    for (const auto& ch : snap->chains) hit &= chain_valid(ch, reg) ? 1 : 0;
  }
  if (distributed()) {
    hit = comm_.allreduce(hit, [](int a, int b) { return a < b ? a : b; });
  }
  if (hit == 0) return false;
  for (const auto& l : snap->loops) {
    if (plans_.count(l.name) != 0) continue;
    plans_[l.name] = make_loop(l, reg);
  }
  for (const auto& ch : snap->chains) {
    if (chains_.count(ch.name) != 0) continue;
    chains_[ch.name] = make_chain(ch, reg);
  }
  plans_imported_ = true;
  vcgt::util::debug("op2: rank {} imported {} loop / {} chain plan(s) from cache", rank(),
                    snap->loops.size(), snap->chains.size());
  return true;
}

}  // namespace vcgt::op2
