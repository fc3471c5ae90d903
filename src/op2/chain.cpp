// Loop-chain planning (DESIGN.md §10): dependence analysis over the
// declared members, coherence-driven segmentation, aligned cross-loop
// tiles and dependence-aware tile coloring, plus the fused-epoch needs.
//
// The plan is built once per chain name and cached; construction is
// collective when distributed because two decisions must be agreed across
// ranks (a divergent decision would desynchronize the fused epochs):
//   * the halo region an indirect read actually touches (scanned locally,
//     allreduce-max'd), and
//   * nothing else — everything downstream is a pure function of the
//     replicated chain structure and those regions.
//
// Execution-order contract (what makes fused == eager bit-exact): inside a
// fused segment every member's elements run as contiguous ascending
// ranges, tile by tile; the frontier alignment below guarantees all
// producers of a tile's reads ran in the same or an earlier tile, and
// WAR/WAW constraints keep not-yet-run readers/writers ahead of later
// writers. Per-loop floating-point order is therefore exactly the flat
// ascending order of the eager reference (Config::chain_tile = 0, every
// member a standalone par_loop) *without latency-hiding overlap* — i.e.
// serial runs always, and distributed runs with
// Config::latency_hiding=false. With latency hiding on, par_loop splits
// owned elements into core/tail lists and runs core before the exchange
// completes; that split folds indirect increments into a shared target in
// core-then-tail order rather than ascending index order, so eager results
// can differ from flat order at rounding level (the fuzz matrix compares
// them to the oracle at ULP tolerance, same as any fold-order-changing
// option). Fused execution never splits — fused epochs complete before the
// segment's tiles run — so fused-vs-eager bit-identity is only guaranteed
// when the eager side folds in flat order too.
#include <algorithm>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "src/op2/context.hpp"
#include "src/op2/internal.hpp"
#include "src/util/log.hpp"

namespace vcgt::op2 {

const char* chain_dep_name(ChainDepKind k) {
  switch (k) {
    case ChainDepKind::Raw: return "RAW";
    case ChainDepKind::War: return "WAR";
    case ChainDepKind::Waw: return "WAW";
  }
  return "?";
}

namespace {

ChainRegion region_min(ChainRegion a, ChainRegion b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}
ChainRegion region_max(ChainRegion a, ChainRegion b) {
  return static_cast<int>(a) < static_cast<int>(b) ? b : a;
}

/// Coherent-region state of every dat inside one segment. Dats not written
/// since segment entry default to Full: the fused epoch refreshes any such
/// dat the segment reads through halos before the first tile runs.
struct CohState {
  std::unordered_map<const DatBase*, ChainRegion> m;
  [[nodiscard]] ChainRegion get(const DatBase* d) const {
    const auto it = m.find(d);
    return it == m.end() ? ChainRegion::Full : it->second;
  }
  [[nodiscard]] bool written(const DatBase* d) const { return m.count(d) != 0; }
};

}  // namespace

ChainPlan& Context::get_chain_plan(const std::string& name,
                                   const std::vector<ChainLoopDecl>& decls) {
  if (const auto it = chains_.find(name); it != chains_.end()) {
    ChainPlan& plan = *it->second;
    if (plan.members.size() != decls.size()) {
      throw std::logic_error(vcgt::util::fmt(
          "op2: chain name '{}' redeclared with {} members (was {})", name, decls.size(),
          plan.members.size()));
    }
    for (std::size_t i = 0; i < decls.size(); ++i) {
      const auto& m = plan.members[i];
      if (m.signature != detail::arg_signature(decls[i].args) || m.set != decls[i].set) {
        throw std::logic_error(vcgt::util::fmt(
            "op2: chain '{}' member '{}' redeclared with different arguments", name,
            decls[i].name));
      }
    }
    return plan;
  }
  if (distributed() && !partitioned_) {
    throw std::logic_error(vcgt::util::fmt(
        "op2: chain '{}' executed before partition() on a distributed context", name));
  }
  auto plan_ptr = std::make_unique<ChainPlan>();
  plan_ptr->name = name;
  build_chain_plan(*plan_ptr, decls);
  auto [it, inserted] = chains_.emplace(name, std::move(plan_ptr));
  (void)inserted;
  return *it->second;
}

const ChainPlan* Context::find_chain(const std::string& name) const {
  const auto it = chains_.find(name);
  return it == chains_.end() ? nullptr : it->second.get();
}

void Context::build_chain_plan(ChainPlan& plan, const std::vector<ChainLoopDecl>& decls) {
  const int nm = static_cast<int>(decls.size());
  plan.signature = 0xcbf29ce484222325ull;

  // --- members -------------------------------------------------------------
  for (int m = 0; m < nm; ++m) {
    const ChainLoopDecl& d = decls[m];
    ChainMemberPlan mp;
    mp.name = d.name;
    mp.set = d.set;
    mp.args = d.args;
    mp.signature = detail::arg_signature(d.args);
    plan.signature ^= mp.signature + 0x9e3779b97f4a7c15ull + (plan.signature << 6) +
                      (plan.signature >> 2);
    for (const auto& a : d.args) {
      if (a.dat && a.map && access_writes(a.acc)) mp.exec_halo_iterated = true;
      if (a.map && &a.map->from() != d.set) {
        throw std::logic_error(vcgt::util::fmt(
            "op2: chain member '{}' uses map '{}' whose from-set is not the iteration set",
            d.name, a.map->name()));
      }
      if (a.is_global && a.acc != Access::Read) mp.standalone = true;
    }
    // chain_tile 0: the eager reference, every member a plain par_loop.
    if (cfg_.chain_tile == 0) mp.standalone = true;
    plan.members.push_back(std::move(mp));
  }

  // --- cross-member dependence edges --------------------------------------
  // Per member: which dats it reads / writes (Inc counts as a write whose
  // result depends on the prior value, so Inc-vs-Inc across members is a
  // WAW ordering constraint as well).
  std::vector<std::unordered_map<const DatBase*, std::pair<bool, bool>>> use(
      static_cast<std::size_t>(nm));  // dat -> (reads, writes)
  for (int m = 0; m < nm; ++m) {
    for (const auto& a : plan.members[static_cast<std::size_t>(m)].args) {
      if (!a.dat) continue;
      auto& rw = use[static_cast<std::size_t>(m)][a.dat];
      rw.first = rw.first || access_reads(a.acc);
      rw.second = rw.second || access_writes(a.acc);
    }
  }
  for (int i = 0; i < nm; ++i) {
    for (int j = i + 1; j < nm; ++j) {
      for (const auto& [dat, rwi] : use[static_cast<std::size_t>(i)]) {
        const auto it = use[static_cast<std::size_t>(j)].find(dat);
        if (it == use[static_cast<std::size_t>(j)].end()) continue;
        const auto& rwj = it->second;
        if (rwi.second && rwj.first) plan.deps.push_back({i, j, dat, ChainDepKind::Raw});
        if (rwi.first && rwj.second) plan.deps.push_back({i, j, dat, ChainDepKind::War});
        if (rwi.second && rwj.second) plan.deps.push_back({i, j, dat, ChainDepKind::Waw});
      }
    }
  }
  // The per-member use maps iterate in pointer order, so the emission order
  // of same-(src,dst) edges is allocation-dependent. Sort into declaration
  // order: downstream passes are order-insensitive, but plan_fingerprint
  // folds the list as-is and must be reproducible across processes (the
  // plan cache revalidates imports against it).
  std::sort(plan.deps.begin(), plan.deps.end(),
            [](const ChainDep& a, const ChainDep& b) {
              return std::tie(a.src, a.dst) < std::tie(b.src, b.dst) ||
                     (a.src == b.src && a.dst == b.dst &&
                      (a.dat->id() < b.dat->id() ||
                       (a.dat->id() == b.dat->id() && a.kind < b.kind)));
            });

  // --- halo regions each indirect read actually touches --------------------
  // Scanned over the member's natural executed range; agreed collectively
  // (one rank seeing only owned+exec targets while another reaches nonexec
  // must not disagree about whether an intra-chain producer covers the
  // read).
  std::vector<std::unordered_map<const DatBase*, ChainRegion>> indirect_req(
      static_cast<std::size_t>(nm));
  for (int m = 0; m < nm; ++m) {
    ChainMemberPlan& mp = plan.members[static_cast<std::size_t>(m)];
    const index_t natural =
        mp.set->n_owned() + (mp.exec_halo_iterated ? mp.set->n_exec() : 0);
    for (const auto& a : mp.args) {
      if (!a.dat || !a.map || !access_reads(a.acc)) continue;
      const Set& tset = a.map->to();
      const index_t lim_oe = tset.n_owned() + tset.n_exec();
      const int i0 = a.idx == kIdxAll ? 0 : a.idx;
      const int i1 = a.idx == kIdxAll ? a.map->dim() : a.idx + 1;
      int local = 0;
      for (index_t e = 0; e < natural && local < 2; ++e) {
        for (int i = i0; i < i1 && local < 2; ++i) {
          const index_t t = (*a.map)(e, i);
          if (t >= lim_oe) local = 2;
          else if (t >= tset.n_owned()) local = local < 1 ? 1 : local;
        }
      }
      if (distributed()) {
        local = static_cast<int>(comm_.allreduce(
            static_cast<std::uint64_t>(local),
            [](std::uint64_t a2, std::uint64_t b2) { return a2 > b2 ? a2 : b2; }));
      }
      auto& req = indirect_req[static_cast<std::size_t>(m)][a.dat];
      req = region_max(req, static_cast<ChainRegion>(local));
    }
  }

  // --- segmentation + exec extension (coherence walk) ----------------------
  std::vector<std::pair<int, int>> seg_ranges;  // inclusive member ranges
  std::vector<std::vector<std::pair<DatBase*, ChainRegion>>> seg_needs;
  CohState coh;
  int seg_first = 0;
  auto close_segment = [&](int last) {  // members [seg_first, last]
    if (last >= seg_first) {
      seg_ranges.emplace_back(seg_first, last);
      if (seg_needs.size() < seg_ranges.size()) seg_needs.emplace_back();
    }
    seg_first = last + 1;
    coh.m.clear();
  };
  auto add_need = [&](std::vector<std::pair<DatBase*, ChainRegion>>& needs, DatBase* d,
                      ChainRegion r) {
    for (auto& [nd, nr] : needs) {
      if (nd == d) {
        nr = region_max(nr, r);
        return;
      }
    }
    needs.emplace_back(d, r);
  };

  for (int m = 0; m < nm; ++m) {
    ChainMemberPlan& mp = plan.members[static_cast<std::size_t>(m)];
    if (mp.standalone) {
      close_segment(m - 1);
      close_segment(m);  // the standalone member alone
      mp.n_executed = mp.set->n_owned() + (mp.exec_halo_iterated ? mp.set->n_exec() : 0);
      continue;
    }

    bool direct_only = true;
    for (const auto& a : mp.args) {
      if (a.dat && a.map) direct_only = false;
    }

    // Extend a direct member over the exec halo when a later member wants
    // to read its output there (RAW consumer whose targets stay within
    // owned+exec) and the member's own inputs are exec-coherent here.
    if (distributed() && direct_only && mp.set->n_exec() > 0) {
      bool want = false;
      for (const auto& dep : plan.deps) {
        if (dep.src != m || dep.kind != ChainDepKind::Raw) continue;
        const auto& reqs = indirect_req[static_cast<std::size_t>(dep.dst)];
        const auto it = reqs.find(dep.dat);
        if (it != reqs.end() && it->second == ChainRegion::OwnedExec) want = true;
      }
      bool can = true;
      for (const auto& a : mp.args) {
        if (!a.dat || !access_reads(a.acc)) continue;
        if (coh.written(a.dat) &&
            static_cast<int>(coh.get(a.dat)) < static_cast<int>(ChainRegion::OwnedExec)) {
          can = false;
        }
      }
      mp.exec_extended = want && can;
    }
    const bool exec_iter = mp.exec_halo_iterated || mp.exec_extended;
    mp.n_executed = mp.set->n_owned() + (exec_iter ? mp.set->n_exec() : 0);

    // Read requirements vs the current coherent state.
    std::vector<std::pair<DatBase*, ChainRegion>> reads;
    for (const auto& a : mp.args) {
      if (!a.dat || !access_reads(a.acc)) continue;
      ChainRegion r;
      if (!a.map) {
        r = exec_iter ? ChainRegion::OwnedExec : ChainRegion::Owned;
      } else {
        r = indirect_req[static_cast<std::size_t>(m)].at(a.dat);
      }
      add_need(reads, a.dat, r);
    }
    bool split = false;
    for (const auto& [d, r] : reads) {
      if (coh.written(d) && static_cast<int>(coh.get(d)) < static_cast<int>(r)) {
        split = true;
      }
    }
    if (split) close_segment(m - 1);

    // Entry reads through halos become fused-epoch needs of the (possibly
    // new) current segment.
    if (seg_needs.size() < seg_ranges.size() + 1) seg_needs.emplace_back();
    for (const auto& [d, r] : reads) {
      if (static_cast<int>(r) > static_cast<int>(ChainRegion::Owned) && !coh.written(d)) {
        add_need(seg_needs[seg_ranges.size()], d, r);
      }
    }

    // Apply the member's writes to the coherent state.
    for (const auto& a : mp.args) {
      if (!a.dat || !access_writes(a.acc)) continue;
      const ChainRegion produced =
          a.map ? ChainRegion::Owned
                : (exec_iter ? ChainRegion::OwnedExec : ChainRegion::Owned);
      if (a.acc == Access::Write && !a.map) {
        coh.m[a.dat] = produced;  // pure overwrite: history irrelevant
      } else {
        coh.m[a.dat] = region_min(coh.get(a.dat), produced);
      }
    }
  }
  close_segment(nm - 1);

  // --- segments: tiles, frontiers, colors ----------------------------------
  const int tile = cfg_.chain_tile;  // > 0: an eager chain has no fused segment
  for (std::size_t si = 0; si < seg_ranges.size(); ++si) {
    ChainSegment seg;
    seg.first = seg_ranges[si].first;
    seg.last = seg_ranges[si].second;
    seg.fused = !plan.members[static_cast<std::size_t>(seg.first)].standalone;
    if (si < seg_needs.size() && seg.fused) seg.epoch_needs = seg_needs[si];
    for (int m = seg.first; m <= seg.last; ++m) {
      plan.members[static_cast<std::size_t>(m)].segment = static_cast<int>(si);
    }
    if (!seg.fused) {
      plan.segments.push_back(std::move(seg));
      continue;
    }

    const int count = seg.last - seg.first + 1;
    index_t max_exec = 0;
    for (int m = 0; m < count; ++m) {
      max_exec = std::max(max_exec,
                          plan.members[static_cast<std::size_t>(seg.first + m)].n_executed);
    }
    const int ntiles =
        std::max<index_t>(1, (max_exec + static_cast<index_t>(tile) - 1) /
                                 static_cast<index_t>(tile));
    seg.tile_end.assign(static_cast<std::size_t>(count),
                        std::vector<index_t>(static_cast<std::size_t>(ntiles)));
    for (int m = 0; m < count; ++m) {
      const index_t n = plan.members[static_cast<std::size_t>(seg.first + m)].n_executed;
      for (int t = 0; t < ntiles; ++t) {
        seg.tile_end[static_cast<std::size_t>(m)][static_cast<std::size_t>(t)] =
            static_cast<index_t>((static_cast<std::int64_t>(n) * (t + 1)) / ntiles);
      }
    }

    // Frontier alignment: walk members back-to-front; every dependence
    // (i -> j, i earlier) raises i's boundaries so that whatever j's tile-t
    // prefix touches was already handled by i's tile-t prefix.
    for (int mi = count - 2; mi >= 0; --mi) {
      const int gi = seg.first + mi;
      const ChainMemberPlan& pi = plan.members[static_cast<std::size_t>(gi)];
      auto& bi = seg.tile_end[static_cast<std::size_t>(mi)];
      for (const auto& dep : plan.deps) {
        if (dep.src != gi || dep.dst > seg.last) continue;
        const int mj = dep.dst - seg.first;
        const ChainMemberPlan& pj = plan.members[static_cast<std::size_t>(dep.dst)];
        const auto& bj = seg.tile_end[static_cast<std::size_t>(mj)];
        // A[n] = last i-element whose relevant access touches target n.
        const bool i_writes = dep.kind != ChainDepKind::War;
        const index_t tot = dep.dat->set().total();
        std::vector<index_t> A(static_cast<std::size_t>(tot), index_t{-1});
        for (const auto& a : pi.args) {
          if (a.dat != dep.dat) continue;
          if (i_writes ? !access_writes(a.acc)
                       : !(access_reads(a.acc) || a.acc == Access::Inc)) {
            continue;
          }
          const int i0 = !a.map || a.idx != kIdxAll ? a.idx : 0;
          const int i1 = !a.map ? a.idx + 1 : a.idx == kIdxAll ? a.map->dim() : a.idx + 1;
          for (index_t e = 0; e < pi.n_executed; ++e) {
            for (int i = i0; i < i1; ++i) {
              const index_t n = a.map ? (*a.map)(e, i) : e;
              auto& slot = A[static_cast<std::size_t>(n)];
              slot = std::max(slot, e);
            }
          }
        }
        // need[e] = last i-element member j's element e depends on;
        // prefix-max turns it into a per-boundary constraint.
        const bool j_reads = dep.kind == ChainDepKind::Raw;
        std::vector<index_t> need(static_cast<std::size_t>(pj.n_executed), index_t{-1});
        for (const auto& a : pj.args) {
          if (a.dat != dep.dat) continue;
          if (j_reads ? !(access_reads(a.acc) || a.acc == Access::Inc)
                      : !access_writes(a.acc)) {
            continue;
          }
          const int i0 = !a.map || a.idx != kIdxAll ? a.idx : 0;
          const int i1 = !a.map ? a.idx + 1 : a.idx == kIdxAll ? a.map->dim() : a.idx + 1;
          for (index_t e = 0; e < pj.n_executed; ++e) {
            for (int i = i0; i < i1; ++i) {
              const index_t n = a.map ? (*a.map)(e, i) : e;
              auto& slot = need[static_cast<std::size_t>(e)];
              slot = std::max(slot, A[static_cast<std::size_t>(n)]);
            }
          }
        }
        for (std::size_t e = 1; e < need.size(); ++e) {
          need[e] = std::max(need[e], need[e - 1]);
        }
        for (int t = 0; t < ntiles; ++t) {
          const index_t bjt = bj[static_cast<std::size_t>(t)];
          if (bjt > 0 && !need.empty()) {
            const index_t lim = std::min<index_t>(bjt, static_cast<index_t>(need.size()));
            bi[static_cast<std::size_t>(t)] =
                std::max(bi[static_cast<std::size_t>(t)],
                         need[static_cast<std::size_t>(lim - 1)] + 1);
          }
        }
      }
      for (int t = 1; t < ntiles; ++t) {
        bi[static_cast<std::size_t>(t)] =
            std::max(bi[static_cast<std::size_t>(t)], bi[static_cast<std::size_t>(t - 1)]);
      }
      bi[static_cast<std::size_t>(ntiles - 1)] = pi.n_executed;
    }

    // Dependence-aware tile coloring: a tile conflicting with an earlier
    // tile (shared element of a written dat, read-write or write-write)
    // gets a strictly larger color, so executing colors in ascending order
    // respects every dependence while same-color tiles share nothing
    // written and can run in parallel.
    std::unordered_set<const DatBase*> written;
    for (int m = seg.first; m <= seg.last; ++m) {
      for (const auto& a : plan.members[static_cast<std::size_t>(m)].args) {
        if (a.dat && access_writes(a.acc)) written.insert(a.dat);
      }
    }
    struct Marks {
      std::vector<int> w_tile, w_color, a_tile, a_color;
    };
    std::unordered_map<const DatBase*, Marks> marks;
    for (const DatBase* d : written) {
      Marks mk;
      const auto tot = static_cast<std::size_t>(d->set().total());
      mk.w_tile.assign(tot, -1);
      mk.w_color.assign(tot, -1);
      mk.a_tile.assign(tot, -1);
      mk.a_color.assign(tot, -1);
      marks.emplace(d, std::move(mk));
    }
    seg.tile_colors.assign(static_cast<std::size_t>(ntiles), 0);
    auto for_each_access = [&](int t, auto&& fn) {
      for (int m = 0; m < count; ++m) {
        const ChainMemberPlan& pm = plan.members[static_cast<std::size_t>(seg.first + m)];
        const auto& be = seg.tile_end[static_cast<std::size_t>(m)];
        const index_t lo = t == 0 ? 0 : be[static_cast<std::size_t>(t - 1)];
        const index_t hi = be[static_cast<std::size_t>(t)];
        for (const auto& a : pm.args) {
          if (!a.dat || !written.count(a.dat)) continue;
          const bool w = access_writes(a.acc);
          const bool r = access_reads(a.acc) || a.acc == Access::Inc;
          auto& mk = marks.at(a.dat);
          const int i0 = !a.map || a.idx != kIdxAll ? a.idx : 0;
          const int i1 = !a.map ? a.idx + 1 : a.idx == kIdxAll ? a.map->dim() : a.idx + 1;
          for (index_t e = lo; e < hi; ++e) {
            for (int i = i0; i < i1; ++i) fn(mk, a.map ? (*a.map)(e, i) : e, r, w);
          }
        }
      }
    };
    for (int t = 0; t < ntiles; ++t) {
      int needed = 0;
      for_each_access(t, [&](Marks& mk, index_t n, bool r, bool w) {
        const auto nu = static_cast<std::size_t>(n);
        if (w && mk.a_tile[nu] != -1 && mk.a_tile[nu] != t) {
          needed = std::max(needed, mk.a_color[nu] + 1);
        }
        if (r && mk.w_tile[nu] != -1 && mk.w_tile[nu] != t) {
          needed = std::max(needed, mk.w_color[nu] + 1);
        }
      });
      seg.tile_colors[static_cast<std::size_t>(t)] = needed;
      for_each_access(t, [&](Marks& mk, index_t n, bool r, bool w) {
        const auto nu = static_cast<std::size_t>(n);
        if (w) {
          mk.w_tile[nu] = t;
          mk.w_color[nu] = needed;
        }
        if (r || w) {
          mk.a_tile[nu] = t;
          mk.a_color[nu] = needed;
        }
      });
    }
    seg.n_colors = 1 + *std::max_element(seg.tile_colors.begin(), seg.tile_colors.end());

    plan.segments.push_back(std::move(seg));
  }

  // --- comm state for the fused epochs -------------------------------------
  for (const auto& seg : plan.segments) {
    for (const auto& [d, r] : seg.epoch_needs) {
      const Set* s = &d->set();
      bool have = false;
      for (const auto& sc : plan.comms) have = have || sc.set == s;
      if (!have) {
        PlanSetComm sc;
        sc.set = s;
        sc.full = true;
        plan.comms.push_back(std::move(sc));
      }
      (void)r;
    }
  }
}

}  // namespace vcgt::op2
