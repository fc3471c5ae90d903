// Halo construction and exchange — the distributed-memory heart of op2.
//
// Build (at partition time, from globally replicated topology):
//   exec halo of set T on rank p    = foreign elements of T that increment a
//                                     p-owned element through some map
//                                     (redundantly executed by p);
//   nonexec halo of set S on rank p = foreign elements of S read through maps
//                                     from p-executed elements and not
//                                     already in the exec halo.
// Every rank runs the identical deterministic computation over the global
// maps, so import/export orderings agree without negotiation.
//
// Exchange (per loop, via minimpi): exchange_begin packs each message into a
// pooled slab and moves it into the receiver's mailbox (halo_pack_send),
// halo-independent "core" elements execute while messages are in flight,
// exchange_end completes the receives (halo_recv_unpack; latency hiding).
// Optimizations from the paper's §IV-A5:
//   PH — partial halos: only slots the loop references are exchanged;
//   GH — grouped halos: all dats for the same neighbor share one message.
#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "src/op2/context.hpp"
#include "src/util/log.hpp"
#include "src/util/timer.hpp"
#include "src/util/trace.hpp"

namespace vcgt::op2 {

namespace {

constexpr int kTagHaloBase = 1 << 20;   // + dat id
constexpr int kTagGroupBase = 1 << 21;  // + set id
constexpr int kTagPlanBase = 1 << 22;   // partial-list setup
constexpr int kTagChainBase = 1 << 23;  // + set id (fused chain epochs)

/// Per-set, per-rank global import lists (identical on every rank).
/// Monolithic-only (replicated tables), so gids fit index_t by the
/// decl_set size guard; the sharded path computes imports shard-locally
/// in partition_sharded() instead.
struct ImportTables {
  // [set][rank] -> sorted-unique global ids
  std::vector<std::vector<std::vector<index_t>>> exec;
  std::vector<std::vector<std::vector<index_t>>> nonexec;
};

ImportTables compute_imports(const std::vector<std::unique_ptr<Set>>& sets,
                             const std::vector<std::unique_ptr<Map>>& maps,
                             const std::vector<std::vector<int>>& owners, int nranks) {
  ImportTables t;
  const auto nsets = sets.size();
  std::vector<std::vector<std::unordered_set<index_t>>> exec(nsets),
      nonexec(nsets);
  for (std::size_t s = 0; s < nsets; ++s) {
    exec[s].resize(static_cast<std::size_t>(nranks));
    nonexec[s].resize(static_cast<std::size_t>(nranks));
  }

  // Pass 1: exec halos.
  for (const auto& map : maps) {
    const auto from_id = static_cast<std::size_t>(map->from().id());
    const auto to_id = static_cast<std::size_t>(map->to().id());
    const int dim = map->dim();
    const auto nfrom = static_cast<index_t>(map->from().global_size());
    for (index_t e = 0; e < nfrom; ++e) {
      const int oe = owners[from_id][static_cast<std::size_t>(e)];
      for (int i = 0; i < dim; ++i) {
        const int ot = owners[to_id][static_cast<std::size_t>((*map)(e, i))];
        if (ot != oe) exec[from_id][static_cast<std::size_t>(ot)].insert(e);
      }
    }
  }

  // Pass 2: nonexec halos — targets read by each element's executor set
  // (owner + every rank redundantly executing it) that are neither owned by
  // nor exec-imported to the executor.
  for (const auto& map : maps) {
    const auto from_id = static_cast<std::size_t>(map->from().id());
    const auto to_id = static_cast<std::size_t>(map->to().id());
    const int dim = map->dim();
    std::vector<int> executors;
    const auto nfrom = static_cast<index_t>(map->from().global_size());
    for (index_t e = 0; e < nfrom; ++e) {
      executors.clear();
      executors.push_back(owners[from_id][static_cast<std::size_t>(e)]);
      for (int q = 0; q < nranks; ++q) {
        if (exec[from_id][static_cast<std::size_t>(q)].count(e)) executors.push_back(q);
      }
      for (int i = 0; i < dim; ++i) {
        const index_t g = (*map)(e, i);
        const int og = owners[to_id][static_cast<std::size_t>(g)];
        for (const int q : executors) {
          if (q == og) continue;
          if (exec[to_id][static_cast<std::size_t>(q)].count(g)) continue;
          nonexec[to_id][static_cast<std::size_t>(q)].insert(g);
        }
      }
    }
  }

  auto to_sorted = [](std::vector<std::vector<std::unordered_set<index_t>>>& in) {
    std::vector<std::vector<std::vector<index_t>>> out(in.size());
    for (std::size_t s = 0; s < in.size(); ++s) {
      out[s].resize(in[s].size());
      for (std::size_t q = 0; q < in[s].size(); ++q) {
        out[s][q].assign(in[s][q].begin(), in[s][q].end());
        std::sort(out[s][q].begin(), out[s][q].end());
      }
    }
    return out;
  };
  t.exec = to_sorted(exec);
  t.nonexec = to_sorted(nonexec);
  return t;
}

}  // namespace

void Context::build_halos_and_localize(const std::vector<std::vector<int>>& owners) {
  const int me = rank();
  const int nr = nranks();
  halos_.resize(sets_.size());
  g2l_.resize(sets_.size());

  if (!distributed()) {
    // Serial: every declared row is owned (identity numbering monolithic,
    // the shard's gid list sharded); nothing to localize but the g2l
    // lookup (used by the coupler) must still exist.
    for (auto& set : sets_) {
      set->n_owned_ = set->decl_rows();
      set->n_exec_ = 0;
      set->n_nonexec_ = 0;
      auto& g2l = g2l_[static_cast<std::size_t>(set->id())];
      for (index_t l = 0; l < set->decl_rows(); ++l) g2l.emplace(set->global_id(l), l);
    }
    return;
  }

  const ImportTables imports = compute_imports(sets_, maps_, owners, nr);

  // Local numbering per set: owned (ascending gid) | exec grouped by source
  // rank (ascending gid within) | nonexec likewise.
  for (auto& set : sets_) {
    const auto sid = static_cast<std::size_t>(set->id());
    const auto& own = owners[sid];
    const auto nglobal = static_cast<index_t>(set->global_size());
    std::vector<gindex_t> l2g;
    for (index_t g = 0; g < nglobal; ++g) {
      if (own[static_cast<std::size_t>(g)] == me) l2g.push_back(g);
    }
    set->n_owned_ = static_cast<index_t>(l2g.size());

    SetHalo& halo = halos_[sid];
    auto append_halo = [&](const std::vector<index_t>& gids_for_me) {
      // gids grouped by owner rank ascending, sorted by gid within.
      std::vector<index_t> sorted = gids_for_me;
      std::stable_sort(sorted.begin(), sorted.end(), [&](index_t a, index_t b) {
        const int oa = own[static_cast<std::size_t>(a)];
        const int ob = own[static_cast<std::size_t>(b)];
        return std::tie(oa, a) < std::tie(ob, b);
      });
      for (const index_t g : sorted) {
        l2g.push_back(g);
        halo.slot_src.push_back(own[static_cast<std::size_t>(g)]);
      }
      return sorted.size();
    };
    set->n_exec_ =
        static_cast<index_t>(append_halo(imports.exec[sid][static_cast<std::size_t>(me)]));
    set->n_nonexec_ = static_cast<index_t>(
        append_halo(imports.nonexec[sid][static_cast<std::size_t>(me)]));

    // Receive lists: slots grouped per source rank. Ascending slot order
    // within a source gives (exec slots asc-gid, then nonexec slots asc-gid),
    // matching the send-side packing order below.
    std::map<int, std::vector<index_t>> recv_by_src;
    for (index_t h = 0; h < set->n_exec_ + set->n_nonexec_; ++h) {
      const index_t slot = set->n_owned_ + h;
      recv_by_src[halo.slot_src[static_cast<std::size_t>(h)]].push_back(slot);
    }
    for (auto& [src, slots] : recv_by_src) {
      halo.nbr_recv.push_back(src);
      halo.recv_slots.push_back(std::move(slots));
    }

    // g2l for this set.
    auto& g2l = g2l_[sid];
    for (std::size_t l = 0; l < l2g.size(); ++l) {
      g2l.emplace(l2g[l], static_cast<index_t>(l));
    }
    set->l2g_ = std::move(l2g);
  }

  // Send lists: for each peer q, the gids q imports (exec then nonexec) that
  // I own, ascending gid — mirroring q's per-source slot ordering.
  for (auto& set : sets_) {
    const auto sid = static_cast<std::size_t>(set->id());
    const auto& own = owners[sid];
    SetHalo& halo = halos_[sid];
    const auto& g2l = g2l_[sid];
    for (int q = 0; q < nr; ++q) {
      if (q == me) continue;
      std::vector<index_t> send;
      for (const index_t g : imports.exec[sid][static_cast<std::size_t>(q)]) {
        if (own[static_cast<std::size_t>(g)] == me) send.push_back(g2l.at(g));
      }
      for (const index_t g : imports.nonexec[sid][static_cast<std::size_t>(q)]) {
        if (own[static_cast<std::size_t>(g)] == me) send.push_back(g2l.at(g));
      }
      if (!send.empty()) {
        halo.nbr_send.push_back(q);
        halo.send_idx.push_back(std::move(send));
      }
    }
  }

  // Sanity: my recv count from p must equal p's send count to me. Checked
  // here collectively since a mismatch is a silent-corruption bug otherwise.
  for (auto& set : sets_) {
    const auto sid = static_cast<std::size_t>(set->id());
    SetHalo& halo = halos_[sid];
    std::vector<std::vector<std::uint64_t>> sendcounts(
        static_cast<std::size_t>(nr));
    for (auto& v : sendcounts) v.assign(1, 0);
    for (std::size_t i = 0; i < halo.nbr_send.size(); ++i) {
      sendcounts[static_cast<std::size_t>(halo.nbr_send[i])][0] = halo.send_idx[i].size();
    }
    const auto got = comm_.alltoallv(sendcounts);
    for (std::size_t i = 0; i < halo.nbr_recv.size(); ++i) {
      const auto expect = halo.recv_slots[i].size();
      const auto actual = got[static_cast<std::size_t>(halo.nbr_recv[i])][0];
      if (expect != actual) {
        throw std::logic_error(vcgt::util::fmt(
            "op2: halo count mismatch on set '{}': rank {} expects {} from {} but {} sends {}",
            set->name(), me, expect, halo.nbr_recv[i], halo.nbr_recv[i], actual));
      }
    }
  }

  // Localize map tables for all executed (owned + exec) from-set elements.
  for (auto& map : maps_) {
    const Set& from = map->from();
    const Set& to = map->to();
    const auto& g2l_to = g2l_[static_cast<std::size_t>(to.id())];
    const int dim = map->dim();
    const index_t n_executed = from.n_owned() + from.n_exec();
    std::vector<index_t> local(static_cast<std::size_t>(n_executed) *
                               static_cast<std::size_t>(dim));
    for (index_t e = 0; e < n_executed; ++e) {
      const gindex_t ge = from.global_id(e);
      for (int i = 0; i < dim; ++i) {
        const index_t gt =
            map->table_[static_cast<std::size_t>(ge) * static_cast<std::size_t>(dim) +
                        static_cast<std::size_t>(i)];
        const auto it = g2l_to.find(gt);
        if (it == g2l_to.end()) {
          throw std::logic_error(vcgt::util::fmt(
              "op2: map '{}' references global {} of set '{}' missing from rank {}'s halo",
              map->name(), gt, to.name(), me));
        }
        local[static_cast<std::size_t>(e) * static_cast<std::size_t>(dim) +
              static_cast<std::size_t>(i)] = it->second;
      }
    }
    map->table_ = std::move(local);
  }

  // Localize dats (copies owned + initial halo values — halos start clean).
  // Monolithic: the pre-partition source row of local l IS its gid, which
  // narrows losslessly (decl_set guard).
  for (auto& dat : dats_) {
    const auto l2g = dat->set().local_to_global();
    std::vector<index_t> src(l2g.size());
    for (std::size_t i = 0; i < l2g.size(); ++i) src[i] = static_cast<index_t>(l2g[i]);
    dat->localize(src);
  }
}

std::vector<index_t> Context::needed_halo_slots(const LoopPlan& plan, const Set& target,
                                                const std::vector<ArgInfo>& args,
                                                bool include_exec_direct) const {
  std::unordered_set<index_t> slots;
  for (const auto& a : args) {
    if (!a.dat || !a.map || &a.map->to() != &target || !access_reads(a.acc)) continue;
    const int i0 = a.idx == kIdxAll ? 0 : a.idx;
    const int i1 = a.idx == kIdxAll ? a.map->dim() : a.idx + 1;
    for (index_t e = 0; e < plan.n_executed; ++e) {
      for (int i = i0; i < i1; ++i) {
        const index_t t = (*a.map)(e, i);
        if (t >= target.n_owned()) slots.insert(t);
      }
    }
  }
  if (include_exec_direct) {
    for (index_t h = 0; h < target.n_exec(); ++h) slots.insert(target.n_owned() + h);
  }
  std::vector<index_t> out(slots.begin(), slots.end());
  std::sort(out.begin(), out.end());
  return out;
}

void Context::build_partial_lists(LoopPlan& plan, const std::vector<ArgInfo>& args) {
  // Collective: each rank tells each owner which global ids this loop needs;
  // owners store matching send sublists. Orderings agree because both sides
  // sort by global id.
  const int nr = nranks();
  for (auto& sc : plan.comms) {
    const Set& s = *sc.set;
    const SetHalo& halo = halos_[static_cast<std::size_t>(s.id())];
    const auto needed = needed_halo_slots(plan, s, args, sc.covers_exec_direct);

    // Group needed slots by source rank; sort by gid within a source.
    std::vector<std::vector<gindex_t>> want_gids(static_cast<std::size_t>(nr));
    std::vector<std::vector<index_t>> want_slots(static_cast<std::size_t>(nr));
    for (const index_t slot : needed) {
      const int src = halo.slot_src[static_cast<std::size_t>(slot - s.n_owned())];
      want_gids[static_cast<std::size_t>(src)].push_back(s.global_id(slot));
      want_slots[static_cast<std::size_t>(src)].push_back(slot);
    }
    for (int q = 0; q < nr; ++q) {
      auto& g = want_gids[static_cast<std::size_t>(q)];
      auto& sl = want_slots[static_cast<std::size_t>(q)];
      std::vector<std::size_t> order(g.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return g[a] < g[b]; });
      std::vector<gindex_t> gs(g.size());
      std::vector<index_t> ss(sl.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        gs[i] = g[order[i]];
        ss[i] = sl[order[i]];
      }
      g = std::move(gs);
      sl = std::move(ss);
    }

    const auto requests = comm_.alltoallv(want_gids);

    sc.full = false;
    // Whether this exchange refreshes the *entire* halo (and may therefore
    // bump halo_clean_epoch) must be agreed collectively: epochs feed the
    // per-loop dirty decision, and if one rank marks a dat clean while its
    // peer does not, the next loop has one side skipping the exchange the
    // other still expects — the orphaned message is then consumed by a
    // later plan sharing the tag (stale or short payloads).
    const bool covers_local =
        static_cast<index_t>(needed.size()) == s.n_exec() + s.n_nonexec();
    sc.covers_full =
        comm_.allreduce(std::uint64_t{covers_local ? 1u : 0u},
                        [](std::uint64_t a, std::uint64_t b) { return a & b; }) != 0;
    sc.nbr_recv.clear();
    sc.recv_slots.clear();
    for (int q = 0; q < nr; ++q) {
      if (q == rank()) continue;
      if (!want_slots[static_cast<std::size_t>(q)].empty()) {
        sc.nbr_recv.push_back(q);
        sc.recv_slots.push_back(std::move(want_slots[static_cast<std::size_t>(q)]));
      }
    }
    sc.nbr_send.clear();
    sc.send_idx.clear();
    const auto& g2l = g2l_[static_cast<std::size_t>(s.id())];
    for (int q = 0; q < nr; ++q) {
      if (q == rank()) continue;
      const auto& req = requests[static_cast<std::size_t>(q)];
      if (req.empty()) continue;
      std::vector<index_t> idx;
      idx.reserve(req.size());
      for (const gindex_t g : req) {
        const auto it = g2l.find(g);
        if (it == g2l.end() || it->second >= s.n_owned()) {
          throw std::logic_error(vcgt::util::fmt(
              "op2: partial-halo request from rank {} for non-owned global {} (set '{}')",
              q, g, s.name()));
        }
        idx.push_back(it->second);
      }
      sc.nbr_send.push_back(q);
      sc.send_idx.push_back(std::move(idx));
    }
  }
  (void)kTagPlanBase;
}

namespace {

/// Pool counters onto the trace (halo epochs sample them after completing
/// receives, so counter tracks line up with the halo spans).
void trace_pool_counters(minimpi::Comm& comm) {
  if (!trace::enabled() || !comm.valid()) return;
  const minimpi::PoolStats ps = comm.pool_stats();
  trace::counter("pool:leases", static_cast<double>(ps.leases));
  trace::counter("pool:recycles", static_cast<double>(ps.recycles));
  trace::counter("pool:copies_avoided", static_cast<double>(ps.copies_avoided));
  trace::counter("pool:bytes_zero_copied", static_cast<double>(ps.bytes_zero_copied));
}

}  // namespace

std::size_t Context::halo_pack_send(PlanSetComm& sc, std::size_t i,
                                    const std::vector<index_t>& idx,
                                    const std::vector<DatBase*>& dats, int peer, int tag,
                                    const Set& s) {
  std::size_t need = 0;
  for (const DatBase* d : dats) need += idx.size() * d->elem_bytes();
  // The alloc meter counts per-site payload growth; pool-level slab
  // allocations are exposed separately via Comm::pool_stats().
  if (sc.send_watermark.size() <= i) sc.send_watermark.resize(i + 1, 0);
  if (need > sc.send_watermark[i]) {
    ++halo_buf_allocs_;
    sc.send_watermark[i] = need;
  }
  minimpi::Buffer buf = comm_.lease(need);
  std::size_t off = 0;
  for (DatBase* d : dats) {
    d->gather_elems(idx, buf.data() + off);
    off += idx.size() * d->elem_bytes();
  }
  try {
    comm_.send_owned(std::move(buf), peer, tag);
  } catch (const minimpi::TransientSendError& e) {
    throw HaloError(util::fmt("op2: halo send for set '{}' to rank {} failed: {}", s.name(),
                              peer, e.what()),
                    s.name(), peer, /*sending=*/true);
  }
  return need;
}

std::size_t Context::halo_recv_unpack(int from, int tag, const std::vector<DatBase*>& dats,
                                      const std::vector<index_t>& slots, const Set& s) {
  minimpi::Buffer buf;
  try {
    buf = comm_.recv_owned(from, tag);
  } catch (const minimpi::RecvTimeout& e) {
    throw HaloError(util::fmt("op2: halo receive for set '{}' from rank {} timed out: {}",
                              s.name(), from, e.what()),
                    s.name(), from, /*sending=*/false);
  }
  std::size_t need = 0;
  for (const DatBase* d : dats) need += slots.size() * d->elem_bytes();
  if (buf.size() != need) {
    throw std::logic_error(util::fmt(
        "op2: halo message for set '{}' from rank {} holds {} bytes, expected {}", s.name(),
        from, buf.size(), need));
  }
  // scatter_elems unpacks straight from the sender's slab, which returns to
  // the pool when `buf` drops.
  std::size_t off = 0;
  for (DatBase* d : dats) {
    d->scatter_elems(slots, buf.data() + off);
    off += slots.size() * d->elem_bytes();
  }
  return buf.size();
}

Context::PendingExchange Context::exchange_begin(LoopPlan& plan,
                                                 const std::vector<ArgInfo>& args) {
  PendingExchange pending;
  if (!distributed()) return pending;

  std::optional<trace::Span> tspan;
  if (!plan.comms.empty()) tspan.emplace("halo:pack_send");
  const std::uint64_t bytes0 = plan.halo_bytes;
  const std::uint64_t msgs0 = plan.halo_msgs;

  for (auto& sc : plan.comms) {
    const Set& s = *sc.set;
    const SetHalo& halo = halos_[static_cast<std::size_t>(s.id())];
    const auto& nbr_send = sc.full ? halo.nbr_send : sc.nbr_send;
    const auto& send_idx = sc.full ? halo.send_idx : sc.send_idx;
    const auto& nbr_recv = sc.full ? halo.nbr_recv : sc.nbr_recv;
    const auto& recv_slots = sc.full ? halo.recv_slots : sc.recv_slots;

    // Which dats on this set are stale for this loop?
    std::vector<DatBase*> dirty;
    for (const auto& a : args) {
      if (!a.dat || &a.dat->set() != &s) continue;
      const bool reads_halo =
          (a.map && access_reads(a.acc)) ||
          (!a.map && access_reads(a.acc) && plan.exec_halo_iterated && sc.covers_exec_direct);
      if (!reads_halo) continue;
      // With partial halos a dat is fresh for this plan if either this
      // plan's subset or the full halo was synchronized since the last
      // write (full refreshes by other plans count).
      const bool stale =
          cfg_.partial_halos
              ? std::max(plan.clean_epoch[a.dat], a.dat->halo_clean_epoch()) <
                    a.dat->write_epoch()
              : a.dat->halo_dirty();
      if (stale && std::find(dirty.begin(), dirty.end(), a.dat) == dirty.end()) {
        dirty.push_back(a.dat);
      }
    }
    if (dirty.empty()) continue;

    if (cfg_.grouped_halos) {
      // One message per neighbor packing every dirty dat (gather_elems).
      for (std::size_t i = 0; i < nbr_send.size(); ++i) {
        plan.halo_bytes += halo_pack_send(sc, i, send_idx[i], dirty, nbr_send[i],
                                          kTagGroupBase + s.id(), s);
        ++plan.halo_msgs;
      }
      for (std::size_t i = 0; i < nbr_recv.size(); ++i) {
        pending.recvs.push_back({dirty, nbr_recv[i], kTagGroupBase + s.id(), &recv_slots[i]});
      }
    } else {
      for (DatBase* d : dirty) {
        const std::vector<DatBase*> one{d};
        for (std::size_t i = 0; i < nbr_send.size(); ++i) {
          plan.halo_bytes += halo_pack_send(sc, i, send_idx[i], one, nbr_send[i],
                                            kTagHaloBase + d->id(), s);
          ++plan.halo_msgs;
        }
        for (std::size_t i = 0; i < nbr_recv.size(); ++i) {
          pending.recvs.push_back(
              {{d}, nbr_recv[i], kTagHaloBase + d->id(), &recv_slots[i]});
        }
      }
    }

    // Record cleanliness now: the epochs exchanged are those as of this
    // point; the loop's own writes (post_loop) bump epochs afterwards.
    for (DatBase* d : dirty) {
      plan.clean_epoch[d] = d->write_epoch();
      if (sc.full || sc.covers_full) d->mark_halo_clean();
    }
  }
  if (tspan && tspan->active()) {
    tspan->arg("bytes", static_cast<double>(plan.halo_bytes - bytes0));
    tspan->arg("msgs", static_cast<double>(plan.halo_msgs - msgs0));
    tspan->arg("grouped", cfg_.grouped_halos ? 1.0 : 0.0);
    tspan->arg("partial", cfg_.partial_halos ? 1.0 : 0.0);
  }
  return pending;
}

void Context::exchange_end(LoopPlan& plan, PendingExchange& pending) {
  if (pending.recvs.empty()) return;
  util::Timer t;
  trace::Span tspan("halo:wait");
  std::uint64_t bytes_in = 0;
  for (const auto& recv : pending.recvs) {
    bytes_in += halo_recv_unpack(recv.from, recv.tag, recv.dats, *recv.slots,
                                 recv.dats.front()->set());
  }
  if (tspan.active()) {
    tspan.arg("bytes", static_cast<double>(bytes_in));
    tspan.arg("msgs", static_cast<double>(pending.recvs.size()));
  }
  trace_pool_counters(comm_);
  plan.halo_seconds += t.elapsed();
  pending.recvs.clear();
}

void Context::chain_exchange(ChainPlan& plan, const ChainSegment& seg) {
  // One fused halo epoch at segment entry: every dirty dat the segment
  // reads through halos travels in one grouped round — one message per
  // (set, neighbor) packing all such dats, always over the full halo lists
  // (the segment's members collectively touch whole halos; partial
  // sublists are a solo-loop optimization). Completed blocking before the
  // first tile runs: within a fused segment there is no per-loop core/tail
  // split to hide the latency behind — fewer epochs is the chain's lever.
  if (!distributed() || seg.epoch_needs.empty()) return;

  // Dirty dats grouped per set, in set-id order (rank-symmetric: epoch
  // needs and cleanliness epochs are identical on every rank).
  std::map<int, std::vector<DatBase*>> dirty_by_set;
  for (const auto& [d, region] : seg.epoch_needs) {
    (void)region;  // full-halo refresh regardless of the required region
    if (d->halo_dirty()) dirty_by_set[d->set().id()].push_back(d);
  }
  if (dirty_by_set.empty()) return;

  trace::Span tspan("chain:epoch");
  util::Timer t;
  const std::uint64_t bytes0 = plan.halo_bytes;
  const std::uint64_t msgs0 = plan.halo_msgs;

  for (auto& [sid, dirty] : dirty_by_set) {
    const Set& s = dirty.front()->set();
    const SetHalo& halo = halos_[static_cast<std::size_t>(sid)];
    PlanSetComm* sc = nullptr;
    for (auto& c : plan.comms) {
      if (c.set == &s) sc = &c;
    }
    if (sc == nullptr) {
      throw std::logic_error(vcgt::util::fmt(
          "op2: chain '{}' epoch for set '{}' has no comm state", plan.name, s.name()));
    }

    for (std::size_t i = 0; i < halo.nbr_send.size(); ++i) {
      plan.halo_bytes += halo_pack_send(*sc, i, halo.send_idx[i], dirty, halo.nbr_send[i],
                                        kTagChainBase + sid, s);
      ++plan.halo_msgs;
    }
    for (std::size_t i = 0; i < halo.nbr_recv.size(); ++i) {
      halo_recv_unpack(halo.nbr_recv[i], kTagChainBase + sid, dirty, halo.recv_slots[i], s);
    }
    for (DatBase* d : dirty) d->mark_halo_clean();
  }

  ++plan.halo_epochs;
  plan.halo_seconds += t.elapsed();
  if (tspan.active()) {
    tspan.arg("bytes", static_cast<double>(plan.halo_bytes - bytes0));
    tspan.arg("msgs", static_cast<double>(plan.halo_msgs - msgs0));
    tspan.arg("dats", static_cast<double>(seg.epoch_needs.size()));
  }
  trace_pool_counters(comm_);
}

}  // namespace vcgt::op2
