// Differential-testing harness: the backend × fault matrix, the per-case
// check, the ddmin-style shrinker and the campaign driver.
//
// Matrix structure: runs are organized into *structural groups* sharing an
// execution structure (rank count, threading, halo options, partitioner).
// Each group's no-fault base is compared against the serial oracle under
// the taint-aware tolerance policy; every other cell of the group (fault
// variants, and the serial chained group's re-run) runs in a fresh context
// and must match its group base bit-for-bit *and* produce identical plan
// fingerprints — fault plans and allocation histories are never allowed to
// change either results or execution structure.
#include <algorithm>
#include <fstream>

#include "src/util/log.hpp"
#include "src/util/timer.hpp"
#include "src/verify/verify.hpp"

namespace vcgt::verify {

namespace {

ExecConfig cell(std::string name, int nranks, int nthreads, bool faults = false) {
  ExecConfig c;
  c.name = std::move(name);
  c.nranks = nranks;
  c.nthreads = nthreads;
  c.faults = faults;
  return c;
}

}  // namespace

std::vector<MatrixGroup> default_matrix() {
  std::vector<MatrixGroup> m;

  {  // Serial reference executor (the oracle itself).
    MatrixGroup g;
    g.base = cell("serial-aos", 1, 1);
    m.push_back(std::move(g));
  }
  {  // Colored execution on one worker (validates coloring alone).
    MatrixGroup g;
    g.base = cell("colored-aos", 1, 1);
    g.base.force_coloring = true;
    m.push_back(std::move(g));
  }
  {  // Shared-memory threading (deterministic-reduction mode).
    MatrixGroup g;
    g.base = cell("threads2-aos", 1, 2);
    m.push_back(std::move(g));
  }
  {  // Threading with the production per-thread reduction partials: sum
    // reductions legitimately reassociate, so this group is its own base
    // (ULP policy vs oracle) with no bit-exact variants. This is the one
    // place the matrix deliberately overrides ExecConfig's
    // deterministic_reductions=true default (see the field's doc in
    // verify.hpp): it covers the op2::Config production default (false),
    // which every other group turns on to earn the bit-exact sum policy.
    MatrixGroup g;
    g.base = cell("threads2-nondet-aos", 1, 2);
    g.base.deterministic_reductions = false;
    m.push_back(std::move(g));
  }
  {  // Distributed, RCB, full halos, latency hiding.
    MatrixGroup g;
    g.base = cell("dist2-aos", 2, 1);
    g.variants = {cell("dist2-aos-chaos", 2, 1, /*faults=*/true)};
    m.push_back(std::move(g));
  }
  {  // Distributed without latency hiding (no core/tail overlap).
    MatrixGroup g;
    g.base = cell("dist2-nolh-aos", 2, 1);
    g.base.latency_hiding = false;
    m.push_back(std::move(g));
  }
  {  // Distributed with partial + grouped halos (the paper's PH/GH).
    MatrixGroup g;
    g.base = cell("dist3-phgh-aos", 3, 1);
    g.base.partial_halos = true;
    g.base.grouped_halos = true;
    g.variants = {cell("dist3-phgh-aos-chaos", 3, 1, /*faults=*/true)};
    for (auto& v : g.variants) {
      v.partial_halos = true;
      v.grouped_halos = true;
    }
    m.push_back(std::move(g));
  }
  {  // Hybrid: ranks × threads with partial halos.
    MatrixGroup g;
    g.base = cell("dist2-threads2-ph-aos", 2, 2);
    g.base.partial_halos = true;
    m.push_back(std::move(g));
  }
  {  // Sharded setup (DESIGN.md §13): the same universe declared through
    // decl_set_sharded — per-rank block-owned rows plus a map-closure ghost
    // rind, shard-local map tables, sliced dats — and partitioned with
    // partition_sharded. The base must match the serial oracle under the
    // standard policy; the fault variant must match the sharded base
    // bit-for-bit with identical fingerprints.
    MatrixGroup g;
    g.base = cell("shard-dist2-aos", 2, 1);
    g.base.sharded = true;
    g.base.partitioner = op2::Partitioner::Block;
    g.variants = {cell("shard-dist2-aos-chaos", 2, 1, /*faults=*/true)};
    for (auto& v : g.variants) {
      v.sharded = true;
      v.partitioner = op2::Partitioner::Block;
    }
    m.push_back(std::move(g));
  }
  {  // Sharded setup over 3 ranks with the PH/GH halo options.
    MatrixGroup g;
    g.base = cell("shard-dist3-phgh-aos", 3, 1);
    g.base.sharded = true;
    g.base.partitioner = op2::Partitioner::Block;
    g.base.partial_halos = true;
    g.base.grouped_halos = true;
    m.push_back(std::move(g));
  }
  {  // K-way graph-growing partitioner (exercises ownership propagation).
    MatrixGroup g;
    g.base = cell("dist2-kway-aos", 2, 1);
    g.base.partitioner = op2::Partitioner::Kway;
    m.push_back(std::move(g));
  }
  // Chained execution (DESIGN.md §10): the same program re-expressed as
  // declared LoopChains of 2–4 consecutive loops. Each chained base runs
  // under the oracle tolerance policy (untainted dats bit-exact). Each
  // group's variant builds the same chains in a fresh context (a fresh
  // World, and under faults for the distributed groups) and must match its
  // base bit-for-bit with equal chain fingerprints — which requires the
  // chain planner's dependence-edge emission order to be deterministic
  // across contexts with different allocation histories (the dep list is
  // folded into the fingerprint).
  {  // Serial chained; the variant is a plain re-run in a fresh context.
    MatrixGroup g;
    g.base = cell("chain-serial-aos", 1, 1);
    g.base.chained = true;
    g.variants = {cell("chain-serial-aos-rerun", 1, 1)};
    for (auto& v : g.variants) v.chained = true;
    m.push_back(std::move(g));
  }
  {  // Distributed chained: fused halo epochs across the chain.
    MatrixGroup g;
    g.base = cell("chain-dist2-aos", 2, 1);
    g.base.chained = true;
    g.variants = {cell("chain-dist2-aos-chaos", 2, 1, /*faults=*/true)};
    for (auto& v : g.variants) v.chained = true;
    m.push_back(std::move(g));
  }
  {  // Distributed chained over 3 ranks with the PH/GH halo options (the
    // fused epoch ignores them — it always sends full lists — but the solo
    // leftover loops and standalone members run under them).
    MatrixGroup g;
    g.base = cell("chain-dist3-phgh-aos", 3, 1);
    g.base.chained = true;
    g.base.partial_halos = true;
    g.base.grouped_halos = true;
    g.variants = {cell("chain-dist3-phgh-aos-chaos", 3, 1, /*faults=*/true)};
    for (auto& v : g.variants) {
      v.chained = true;
      v.partial_halos = true;
      v.grouped_halos = true;
    }
    m.push_back(std::move(g));
  }
  {  // Chained on sharded setup: chain planning over a context built through
    // decl_set_sharded/partition_sharded.
    MatrixGroup g;
    g.base = cell("shard-chain-dist2-aos", 2, 1);
    g.base.chained = true;
    g.base.sharded = true;
    g.base.partitioner = op2::Partitioner::Block;
    g.variants = {cell("shard-chain-dist2-aos-chaos", 2, 1, /*faults=*/true)};
    for (auto& v : g.variants) {
      v.chained = true;
      v.sharded = true;
      v.partitioner = op2::Partitioner::Block;
    }
    m.push_back(std::move(g));
  }
  {  // Threaded chained: dependence-aware tile coloring drives the workers.
    // Threaded tile interleaving reorders indirect-increment folds, so this
    // group is its own base (ULP policy vs oracle) like threads2-nondet.
    MatrixGroup g;
    g.base = cell("chain-threads2-aos", 1, 2);
    g.base.chained = true;
    m.push_back(std::move(g));
  }
  return m;
}

std::optional<Mismatch> check_case(const CaseSpec& spec) {
  const MeshTables tables = make_tables(spec.mesh);
  const TaintInfo taint = analyze_taint(spec, tables);
  const auto matrix = default_matrix();

  const RunResult oracle = run_case(spec, tables, matrix[0].base);
  if (!oracle.ok) {
    return Mismatch{matrix[0].base.name, util::fmt("oracle failed: {}", oracle.error)};
  }

  for (std::size_t g = 0; g < matrix.size(); ++g) {
    const MatrixGroup& group = matrix[g];
    const RunResult base = g == 0 ? oracle : run_case(spec, tables, group.base);
    if (g != 0) {
      if (auto m = compare_to_oracle(spec, taint, oracle, base, group.base)) return m;
    }
    for (const ExecConfig& v : group.variants) {
      const RunResult run = run_case(spec, tables, v);
      if (auto m = compare_exact(base, run, v)) return m;
    }
  }
  return std::nullopt;
}

CaseSpec shrink_case(const CaseSpec& spec, int* steps) {
  CaseSpec cur = spec;
  int n = 0;
  const auto fails = [](const CaseSpec& s) {
    try {
      return check_case(s).has_value();
    } catch (const std::exception&) {
      return true;  // a candidate that errors out still reproduces a defect
    }
  };
  const auto attempt = [&](CaseSpec cand) {
    if (!fails(cand)) return false;
    cur = std::move(cand);
    ++n;
    return true;
  };

  if (cur.iters > 1) {
    CaseSpec c = cur;
    c.iters = 1;
    attempt(std::move(c));
  }

  // Greedy ddmin over the loop list, to a fixpoint.
  const auto drop_loops = [&]() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < cur.loops.size(); ++i) {
        CaseSpec c = cur;
        c.loops.erase(c.loops.begin() + static_cast<std::ptrdiff_t>(i));
        if (attempt(std::move(c))) {
          changed = true;
          break;
        }
      }
    }
  };
  drop_loops();

  if (cur.mesh.cells) {
    CaseSpec c = cur;
    c.mesh.cells = false;
    std::erase_if(c.loops, [](const LoopOp& op) { return op.set == 2 || op.map == 1; });
    attempt(std::move(c));
  }
  if (cur.mesh.boundary) {
    CaseSpec c = cur;
    c.mesh.boundary = false;
    std::erase_if(c.loops, [](const LoopOp& op) { return op.set == 3 || op.map == 2; });
    attempt(std::move(c));
  }
  while (cur.mesh.extra_maps > 0) {
    CaseSpec c = cur;
    c.mesh.extra_maps -= 1;
    const int last = kGridMaps + c.mesh.extra_maps;
    std::erase_if(c.loops, [last](const LoopOp& op) { return op.map >= last; });
    if (!attempt(std::move(c))) break;
  }
  while (cur.mesh.dats_per_set > 1) {
    CaseSpec c = cur;
    c.mesh.dats_per_set -= 1;
    const int dps = c.mesh.dats_per_set;
    std::erase_if(c.loops, [dps](const LoopOp& op) { return op.a >= dps || op.b >= dps; });
    if (!attempt(std::move(c))) break;
  }
  while (cur.mesh.fan_in > 1 && cur.mesh.extra_maps > 0) {
    CaseSpec c = cur;
    c.mesh.fan_in -= 1;
    const int fi = c.mesh.fan_in;
    std::erase_if(c.loops, [fi](const LoopOp& op) {
      return op.map >= kGridMaps && (op.idx >= fi || op.idx2 >= fi);
    });
    if (!attempt(std::move(c))) break;
  }
  // Grid extent: halve toward 2, then single steps.
  for (int axis = 0; axis < 2; ++axis) {
    const auto dim = [&](CaseSpec& s) -> int& { return axis == 0 ? s.mesh.nx : s.mesh.ny; };
    while (dim(cur) > 2) {
      CaseSpec c = cur;
      dim(c) = std::max(2, dim(c) / 2);
      if (!attempt(std::move(c))) break;
    }
    while (dim(cur) > 2) {
      CaseSpec c = cur;
      dim(c) -= 1;
      if (!attempt(std::move(c))) break;
    }
  }
  drop_loops();  // extent changes may have made more loops droppable

  if (steps) *steps = n;
  return cur;
}

CampaignReport run_campaign(const CampaignOptions& opts) {
  CampaignReport rep;
  util::Timer timer;
  for (std::uint64_t i = 0; i < opts.cases; ++i) {
    const CaseSpec spec = gen_case(opts.seed, i);
    const auto m = check_case(spec);
    ++rep.cases_run;
    if (!m) continue;
    ++rep.mismatches;
    util::error("verify: case {} (seed {}) mismatch on {}: {}", i, spec.seed, m->config,
                m->what);
    if (static_cast<int>(rep.repro_paths.size()) < opts.max_repros) {
      int steps = 0;
      const CaseSpec small = shrink_case(spec, &steps);
      const auto sm = check_case(small);
      const std::string note =
          util::fmt("campaign seed {} case {} | shrunk in {} steps | {}: {}", opts.seed, i,
                    steps, sm ? sm->config : m->config, sm ? sm->what : m->what);
      const std::string path =
          (opts.out_dir.empty() ? std::string{} : opts.out_dir + "/") +
          util::fmt("repro_s{}_c{}.vcgt", opts.seed, i);
      std::ofstream f(path);
      f << format_repro(small, note);
      if (f.good()) {
        rep.repro_paths.push_back(path);
        util::error("verify: shrunk repro ({} loops) written to {}", small.loops.size(),
                    path);
      } else {
        util::error("verify: failed to write repro to {}", path);
      }
    }
    if (opts.stop_on_first) break;
  }
  rep.seconds = timer.elapsed();
  return rep;
}

}  // namespace vcgt::verify
