// Case executor: realizes a CaseSpec universe in an op2::Context and runs
// the generated loop program through the production typed par_loop
// builders, once per ExecConfig matrix cell. The same function body serves
// the serial oracle and every distributed backend (inside World::run).
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/minimpi/fault.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/op2/op2.hpp"
#include "src/util/log.hpp"
#include "src/verify/verify.hpp"

namespace vcgt::verify {

namespace {

std::uint64_t fp_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

op2::Config to_op2_config(const ExecConfig& cfg) {
  op2::Config c;
  c.nthreads = cfg.nthreads;
  c.force_coloring = cfg.force_coloring;
  c.partial_halos = cfg.partial_halos;
  c.grouped_halos = cfg.grouped_halos;
  c.latency_hiding = cfg.latency_hiding;
  c.deterministic_reductions = cfg.deterministic_reductions;
  c.chain_tile = cfg.chain_tile;
  return c;
}

struct Reduction {
  std::unique_ptr<op2::Global<double>> g0, g1;  ///< sum, or min+max
};

/// Loop sinks: the same generated kernel either runs immediately as a
/// par_loop or is declared as a chain member.
struct ParLoopEmit {
  template <class K, class... As>
  void operator()(const char* name, op2::Set& set, K kernel, As... as) const {
    op2::par_loop(name, set, std::move(kernel), as...);
  }
};

struct ChainEmit {
  op2::LoopChain* chain;
  template <class K, class... As>
  void operator()(const char* name, op2::Set& set, K kernel, As... as) const {
    chain->add(name, set, std::move(kernel), as...);
  }
};

/// Emits one LoopOp of the algebra through `emit` — the single place the
/// generated kernels are written, shared by the unchained and chained paths.
template <class Emit>
void emit_op(const Emit& emit, const LoopOp& op, const char* name, op2::Set& set,
             const MeshTables& tables, int dps,
             const std::vector<op2::Dat<double>*>& dats,
             const std::vector<op2::Map*>& maps, Reduction& red) {
  const auto entry = [&](int s, int slot) {
    return static_cast<std::size_t>(s * dps + slot);
  };
  const double k1 = op.k1, k2 = op.k2;
  switch (op.kind) {
    case OpKind::StampDirect: {
      auto& a = *dats[entry(op.set, op.a)];
      const int ad = a.dim();
      emit(name, set,
           [=](double* av, const op2::gindex_t* gid) {
             const auto g = static_cast<double>(*gid);
             for (int c = 0; c < ad; ++c) {
               av[c] = k1 * (std::fmod(g, 19.0) + 1.0) +
                       k2 * static_cast<double>(c + 1) * (std::fmod(g, 7.0) + 1.0);
             }
           },
           op2::write(a), op2::arg_idx());
      break;
    }
    case OpKind::ScaleDirect: {
      auto& a = *dats[entry(op.set, op.a)];
      const int ad = a.dim();
      emit(name, set,
           [=](double* av) {
             for (int c = 0; c < ad; ++c) av[c] = k1 * av[c] + k2;
           },
           op2::rw(a));
      break;
    }
    case OpKind::AxpyDirect: {
      auto& a = *dats[entry(op.set, op.a)];
      auto& b = *dats[entry(op.set, op.b)];
      const int ad = a.dim(), bd = b.dim();
      emit(name, set,
           [=](double* av, const double* bv) {
             for (int c = 0; c < ad; ++c) av[c] += k1 * bv[c % bd];
           },
           op2::rw(a), op2::read(b));
      break;
    }
    case OpKind::GatherRead: {
      const op2::Map& m = *maps[static_cast<std::size_t>(op.map)];
      auto& a = *dats[entry(op.set, op.a)];
      auto& b = *dats[entry(tables.map_to[static_cast<std::size_t>(op.map)], op.b)];
      const int ad = a.dim(), bd = b.dim();
      emit(name, set,
           [=](double* av, const double* bv) {
             for (int c = 0; c < ad; ++c) av[c] += k1 * bv[c % bd];
           },
           op2::rw(a), op2::read(b, m, op.idx));
      break;
    }
    case OpKind::ScatterInc: {
      const op2::Map& m = *maps[static_cast<std::size_t>(op.map)];
      auto& a = *dats[entry(op.set, op.a)];
      auto& b = *dats[entry(tables.map_to[static_cast<std::size_t>(op.map)], op.b)];
      const int ad = a.dim(), bd = b.dim();
      if (op.idx2 >= 0) {
        emit(name, set,
             [=](const double* av, double* b1, double* b2) {
               for (int c = 0; c < bd; ++c) {
                 const double v = k1 * av[c % ad];
                 b1[c] += v;
                 b2[c] -= v;
               }
             },
             op2::read(a), op2::inc(b, m, op.idx), op2::inc(b, m, op.idx2));
      } else {
        emit(name, set,
             [=](const double* av, double* bv) {
               for (int c = 0; c < bd; ++c) bv[c] += k1 * av[c % ad];
             },
             op2::read(a), op2::inc(b, m, op.idx));
      }
      break;
    }
    case OpKind::ScatterWrite: {
      const op2::Map& m = *maps[static_cast<std::size_t>(op.map)];
      auto& b = *dats[entry(tables.map_to[static_cast<std::size_t>(op.map)], op.b)];
      const int bd = b.dim();
      emit(name, set,
           [=](double* bv) {
             for (int c = 0; c < bd; ++c) {
               bv[c] = k1 + static_cast<double>(c);
             }
           },
           op2::write(b, m, op.idx));
      break;
    }
    case OpKind::ReduceSum: {
      auto& a = *dats[entry(op.set, op.a)];
      const int ad = a.dim();
      emit(name, set,
           [=](const double* av, double* g) {
             for (int c = 0; c < ad; ++c) *g += k1 * av[c];
           },
           op2::read(a), op2::reduce_sum(*red.g0));
      break;
    }
    case OpKind::ReduceMinMax: {
      auto& a = *dats[entry(op.set, op.a)];
      const int ad = a.dim();
      emit(name, set,
           [=](const double* av, double* gmin, double* gmax) {
             for (int c = 0; c < ad; ++c) {
               if (av[c] < *gmin) *gmin = av[c];
               if (av[c] > *gmax) *gmax = av[c];
             }
           },
           op2::read(a), op2::reduce_min(*red.g0), op2::reduce_max(*red.g1));
      break;
    }
    case OpKind::SpmvRow: {
      // The krylov SpMV access shape: whole-row column ids (op2::row) plus
      // a gather-free view of the target dat (op2::read_span),
      // folding the row in fixed ascending slot order.
      const op2::Map& m = *maps[static_cast<std::size_t>(op.map)];
      auto& a = *dats[entry(op.set, op.a)];
      auto& b = *dats[entry(tables.map_to[static_cast<std::size_t>(op.map)], op.b)];
      const int ad = a.dim(), bd = b.dim(), md = m.dim();
      emit(name, set,
           [=](double* av, const index_t* cols, op2::DatSpan<double> x) {
             for (int c = 0; c < ad; ++c) {
               double s = 0.0;
               for (int k = 0; k < md; ++k) s += x.elem(cols[k])[c % bd];
               av[c] = k1 * s + k2;
             }
           },
           op2::write(a), op2::row(m), op2::read_span(b, m));
      break;
    }
    case OpKind::GlobalAxpy: {
      // Read-mode global coefficient (krylov's alpha/beta shape): red.g0
      // holds a constant initialized to k2 and is never finalized as a
      // reduction (the runner skips it at collection).
      auto& a = *dats[entry(op.set, op.a)];
      auto& b = *dats[entry(op.set, op.b)];
      const int ad = a.dim(), bd = b.dim();
      emit(name, set,
           [=](double* av, const double* bv, const double* g) {
             for (int c = 0; c < ad; ++c) av[c] += k1 * *g * bv[c % bd];
           },
           op2::rw(a), op2::read(b), op2::read(*red.g0));
      break;
    }
  }
}

/// Per-rank shard rows for the sharded-setup path (DESIGN.md §13): each
/// set's block-owned rows plus a ghost rind wide enough for
/// partition_sharded() to reproduce the monolithic halos. Ownership mirrors
/// partition_sharded's rule exactly — nodes (the primary) by block_owner,
/// every other set through the owner of its first map target, declaration
/// order to a fixpoint — and the rind is the map closure of the owned rows:
/// first every foreign from-row seeing a locally owned target (the exec
/// candidates), then all targets of every kept from-row so the shard-local
/// map tables are closed. Extra rind rows beyond the true halo are dropped
/// by partition_sharded; a *missing* row trips its exec cross-check, which
/// is precisely the defect class this group hunts.
std::vector<std::vector<op2::gindex_t>> build_shards(const MeshTables& tables, int me,
                                                     int nranks) {
  const auto nsets = tables.set_sizes.size();
  std::vector<std::vector<int>> owners(nsets);
  std::vector<bool> resolved(nsets, false);
  owners[0].resize(static_cast<std::size_t>(tables.set_sizes[0]));
  for (index_t g = 0; g < tables.set_sizes[0]; ++g) {
    owners[0][static_cast<std::size_t>(g)] =
        op2::block_owner(g, tables.set_sizes[0], nranks);
  }
  resolved[0] = true;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t m = 0; m < tables.map_tables.size(); ++m) {
      const auto f = static_cast<std::size_t>(tables.map_from[m]);
      const auto t = static_cast<std::size_t>(tables.map_to[m]);
      if (resolved[f] || !resolved[t]) continue;
      const auto dim = static_cast<std::size_t>(tables.map_dims[m]);
      owners[f].resize(static_cast<std::size_t>(tables.set_sizes[f]));
      for (std::size_t e = 0; e < owners[f].size(); ++e) {
        owners[f][e] =
            owners[t][static_cast<std::size_t>(tables.map_tables[m][e * dim])];
      }
      resolved[f] = true;
      progressed = true;
    }
  }
  // Every universe map targets nodes, so everything resolves above; a set
  // that somehow didn't falls back to block ownership like partition_sharded.
  for (std::size_t s = 0; s < nsets; ++s) {
    if (resolved[s]) continue;
    owners[s].resize(static_cast<std::size_t>(tables.set_sizes[s]));
    for (index_t g = 0; g < tables.set_sizes[s]; ++g) {
      owners[s][static_cast<std::size_t>(g)] =
          op2::block_owner(g, tables.set_sizes[s], nranks);
    }
  }

  std::vector<std::vector<char>> keep(nsets);
  for (std::size_t s = 0; s < nsets; ++s) {
    keep[s].assign(owners[s].size(), 0);
    for (std::size_t e = 0; e < owners[s].size(); ++e) {
      if (owners[s][e] == me) keep[s][e] = 1;
    }
  }
  for (std::size_t m = 0; m < tables.map_tables.size(); ++m) {
    const auto f = static_cast<std::size_t>(tables.map_from[m]);
    const auto t = static_cast<std::size_t>(tables.map_to[m]);
    const auto dim = static_cast<std::size_t>(tables.map_dims[m]);
    for (std::size_t e = 0; e < owners[f].size(); ++e) {
      if (owners[f][e] == me) continue;
      for (std::size_t i = 0; i < dim; ++i) {
        if (owners[t][static_cast<std::size_t>(tables.map_tables[m][e * dim + i])] ==
            me) {
          keep[f][e] = 1;
          break;
        }
      }
    }
  }
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::size_t m = 0; m < tables.map_tables.size(); ++m) {
      const auto f = static_cast<std::size_t>(tables.map_from[m]);
      const auto t = static_cast<std::size_t>(tables.map_to[m]);
      const auto dim = static_cast<std::size_t>(tables.map_dims[m]);
      for (std::size_t e = 0; e < keep[f].size(); ++e) {
        if (!keep[f][e]) continue;
        for (std::size_t i = 0; i < dim; ++i) {
          const auto tgt = static_cast<std::size_t>(tables.map_tables[m][e * dim + i]);
          if (!keep[t][tgt]) {
            keep[t][tgt] = 1;
            grew = true;
          }
        }
      }
    }
  }

  std::vector<std::vector<op2::gindex_t>> shard(nsets);
  for (std::size_t s = 0; s < nsets; ++s) {
    for (std::size_t e = 0; e < keep[s].size(); ++e) {
      if (keep[s][e]) shard[s].push_back(static_cast<op2::gindex_t>(e));
    }
  }
  return shard;
}

/// Shard row index of global id `g` (gids ascending; must be present).
index_t shard_row(const std::vector<op2::gindex_t>& gids, op2::gindex_t g) {
  const auto it = std::lower_bound(gids.begin(), gids.end(), g);
  return static_cast<index_t>(it - gids.begin());
}

/// Builds the universe, runs the program, and (on rank 0 / serial) fills
/// `out`. Collective: every rank executes identically.
void exec_program(op2::Context& ctx, const CaseSpec& spec, const MeshTables& tables,
                  const ExecConfig& cfg, RunResult* out) {
  const int dps = spec.mesh.dats_per_set;
  std::vector<std::vector<op2::gindex_t>> shard;
  if (cfg.sharded) shard = build_shards(tables, ctx.rank(), ctx.nranks());

  const char* set_names[kNumSets] = {"nodes", "edges", "cells", "bnd"};
  std::vector<op2::Set*> sets;
  for (int s = 0; s < kNumSets; ++s) {
    const auto sz = tables.set_sizes[static_cast<std::size_t>(s)];
    sets.push_back(cfg.sharded
                       ? &ctx.decl_set_sharded(set_names[s], sz,
                                               shard[static_cast<std::size_t>(s)])
                       : &ctx.decl_set(set_names[s], sz));
  }

  std::vector<op2::Map*> maps;
  for (std::size_t m = 0; m < tables.map_tables.size(); ++m) {
    std::vector<index_t> table;
    if (cfg.sharded) {
      // Shard-local target rows: the global rows of this rank's from-shard,
      // each target translated to its row in the to-set's shard (present by
      // the closure in build_shards).
      const auto& sf = shard[static_cast<std::size_t>(tables.map_from[m])];
      const auto& st = shard[static_cast<std::size_t>(tables.map_to[m])];
      const auto dim = static_cast<std::size_t>(tables.map_dims[m]);
      table.reserve(sf.size() * dim);
      for (const op2::gindex_t e : sf) {
        for (std::size_t i = 0; i < dim; ++i) {
          table.push_back(shard_row(
              st, tables.map_tables[m][static_cast<std::size_t>(e) * dim + i]));
        }
      }
    } else {
      table = tables.map_tables[m];
    }
    maps.push_back(&ctx.decl_map(util::fmt("map{}", m),
                                 *sets[static_cast<std::size_t>(tables.map_from[m])],
                                 *sets[static_cast<std::size_t>(tables.map_to[m])],
                                 tables.map_dims[m], std::move(table)));
  }

  // Sharded dats hold only the shard's rows (AoS source order either way).
  const auto slice_rows = [&](const std::vector<double>& global, int dim, int set) {
    if (!cfg.sharded) return global;
    const auto& rows = shard[static_cast<std::size_t>(set)];
    std::vector<double> local;
    local.reserve(rows.size() * static_cast<std::size_t>(dim));
    for (const op2::gindex_t g : rows) {
      for (int c = 0; c < dim; ++c) {
        local.push_back(global[static_cast<std::size_t>(g) * static_cast<std::size_t>(dim) +
                               static_cast<std::size_t>(c)]);
      }
    }
    return local;
  };

  auto& coords = ctx.decl_dat<double>(*sets[0], 2, "coords",
                                      slice_rows(tables.coords, 2, 0));

  std::vector<op2::Dat<double>*> dats(static_cast<std::size_t>(kNumSets * dps));
  for (int s = 0; s < kNumSets; ++s) {
    for (int k = 0; k < dps; ++k) {
      const auto e = static_cast<std::size_t>(s * dps + k);
      dats[e] = &ctx.decl_dat<double>(*sets[static_cast<std::size_t>(s)],
                                      tables.dat_dims[e], util::fmt("d{}_{}", s, k),
                                      slice_rows(tables.dat_init[e], tables.dat_dims[e], s));
    }
  }

  if (cfg.sharded) {
    ctx.partition_sharded({sets[0]});
  } else if (ctx.distributed()) {
    ctx.partition(cfg.partitioner, coords);
  }

  std::vector<Reduction> reds(spec.loops.size());
  for (std::size_t l = 0; l < spec.loops.size(); ++l) {
    const LoopOp& op = spec.loops[l];
    if (op.kind == OpKind::ReduceSum) {
      reds[l].g0 = std::make_unique<op2::Global<double>>(
          ctx.decl_global<double>(util::fmt("red{}", l), 1, {op.k2}));
    } else if (op.kind == OpKind::ReduceMinMax) {
      reds[l].g0 = std::make_unique<op2::Global<double>>(
          ctx.decl_global<double>(util::fmt("rmin{}", l), 1, {1e300}));
      reds[l].g1 = std::make_unique<op2::Global<double>>(
          ctx.decl_global<double>(util::fmt("rmax{}", l), 1, {-1e300}));
    } else if (op.kind == OpKind::GlobalAxpy) {
      reds[l].g0 = std::make_unique<op2::Global<double>>(
          ctx.decl_global<double>(util::fmt("gco{}", l), 1, {op.k2}));
    }
  }

  std::vector<std::string> names;
  names.reserve(spec.loops.size());
  for (std::size_t l = 0; l < spec.loops.size(); ++l) {
    names.push_back(util::fmt("op{}_{}", l, op_kind_name(spec.loops[l].kind)));
  }

  for (int it = 0; it < spec.iters; ++it) {
    const std::size_t nloops = spec.loops.size();
    const std::size_t clen = 2 + static_cast<std::size_t>(spec.seed % 3);
    std::size_t l = 0;
    int ci = 0;
    while (l < nloops) {
      const std::size_t left = nloops - l;
      if (!cfg.chained || left < 2) {
        const LoopOp& op = spec.loops[l];
        emit_op(ParLoopEmit{}, op, names[l].c_str(),
                *sets[static_cast<std::size_t>(op.set)], tables, dps, dats, maps,
                reds[l]);
        ++l;
        continue;
      }
      // Consecutive runs of 2..4 loops (length seeded per case) become one
      // declared chain. Chain names repeat identically every iteration, so
      // the cached plan revalidates instead of rebuilding.
      const std::size_t n = std::min(clen, left);
      op2::LoopChain chain(ctx, util::fmt("chain{}", ci++));
      const ChainEmit ce{&chain};
      for (std::size_t j = 0; j < n; ++j, ++l) {
        const LoopOp& op = spec.loops[l];
        emit_op(ce, op, names[l].c_str(), *sets[static_cast<std::size_t>(op.set)],
                tables, dps, dats, maps, reds[l]);
      }
      chain.execute();
    }
  }

  // Collect results (collective: fetch_global allgathers on every rank).
  std::vector<std::vector<double>> fetched(dats.size());
  for (std::size_t e = 0; e < dats.size(); ++e) fetched[e] = ctx.fetch_global(*dats[e]);

  // Fingerprints: per-rank structural hashes folded in rank order (the plan
  // name set is identical on every rank — loops are collective).
  const auto local = ctx.plan_fingerprints();
  std::map<std::string, std::uint64_t> combined;
  if (!ctx.distributed()) {
    combined = local;
  } else {
    std::vector<std::uint64_t> vals;
    vals.reserve(local.size());
    for (const auto& [n, v] : local) vals.push_back(v);
    const auto all = ctx.comm().allgatherv(std::span<const std::uint64_t>(vals));
    const std::size_t n = vals.size();
    std::size_t i = 0;
    for (const auto& [name2, v] : local) {
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (int r = 0; r < ctx.nranks(); ++r) {
        h = fp_fold(h, all[static_cast<std::size_t>(r) * n + i]);
      }
      combined[name2] = h;
      ++i;
      (void)v;
    }
  }

  if (ctx.rank() == 0 && out) {
    out->dats = std::move(fetched);
    for (std::size_t l = 0; l < spec.loops.size(); ++l) {
      // GlobalAxpy's g0 is a Read-mode constant, not a reduction result —
      // compare_to_oracle's cursor walk only expects ReduceSum/ReduceMinMax.
      if (spec.loops[l].kind == OpKind::GlobalAxpy) continue;
      if (reds[l].g0) out->reductions.push_back(reds[l].g0->value());
      if (reds[l].g1) out->reductions.push_back(reds[l].g1->value());
    }
    out->fingerprints = std::move(combined);
    out->ok = true;
  }
}

}  // namespace

RunResult run_case(const CaseSpec& spec, const MeshTables& tables, const ExecConfig& cfg) {
  RunResult result;
  try {
    if (cfg.nranks <= 1) {
      op2::Context ctx(to_op2_config(cfg));
      exec_program(ctx, spec, tables, cfg, &result);
    } else {
      minimpi::WorldOptions opts;
      if (cfg.faults) {
        minimpi::FaultConfig fc;
        fc.seed = spec.seed ^ 0xFA417ull;
        fc.p_delay = 0.05;
        fc.delay_seconds = 2e-5;
        fc.p_duplicate = 0.08;
        fc.p_reorder = 0.08;
        fc.p_drop = 0.03;
        fc.drop_attempts = 1;
        opts.fault = std::make_shared<minimpi::FaultPlan>(fc);
      }
      minimpi::World::run(
          cfg.nranks,
          [&](minimpi::Comm& comm) {
            op2::Context ctx(comm, to_op2_config(cfg));
            exec_program(ctx, spec, tables, cfg, &result);
          },
          opts);
    }
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

}  // namespace vcgt::verify
