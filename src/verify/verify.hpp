#pragma once
// vcgt::verify — seeded property-based differential testing of the op2
// runtime (DESIGN.md §9).
//
// The paper's acceptance argument for the re-engineered solver is result
// equivalence with the reference execution; this subsystem checks that
// property generatively instead of example-by-example. A MeshGen draws a
// random but valid op2 universe (grid-connected sets, multi-dim maps with
// controllable fan-in, boundary subsets, optional random high-indirection
// maps); a ProgramGen composes a random loop program from a small algebra
// of direct/indirect reads, writes, increments and global reductions, all
// expressed through the production typed par_loop builders. Every case is
// executed on the serial oracle and re-executed across the backend ×
// fault-plan matrix; results are compared under an explicit
// per-access-mode tolerance policy (bit-exact by default, ULP-bounded only
// where a floating-point fold order legitimately differs). On mismatch the
// harness shrinks the case to a minimal failing spec and serializes it as
// a self-contained `.vcgt` repro that `vcgt_fuzz --replay` re-executes
// deterministically.
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/op2/types.hpp"

namespace vcgt::verify {

using index_t = op2::index_t;

// --- case specification -----------------------------------------------------

/// Loop algebra. Each kind is one concrete par_loop shape; runtime
/// coefficients (k1, k2) and dat/map choices come from the spec, so a
/// dynamic program is expressed through the static typed-builder API.
enum class OpKind : std::uint8_t {
  StampDirect,   ///< direct Write via arg_idx: a[c] = f(global id; k1, k2)
  ScaleDirect,   ///< direct ReadWrite: a[c] = k1*a[c] + k2
  AxpyDirect,    ///< direct ReadWrite a, direct Read b (same set): a += k1*b
  GatherRead,    ///< over map.from: a[c] += k1 * b[map(e, idx)][·]
  ScatterInc,    ///< over map.from: b[map(e, idx)] += k1*a; idx2 >= 0 adds
                 ///< the antisymmetric flux  b[map(e, idx2)] -= k1*a
  ScatterWrite,  ///< over map.from: b[map(e, idx)][c] = k1 + c (writer-free)
  ReduceSum,     ///< global += k1 * sum_c a[c]  over the set
  ReduceMinMax,  ///< global min/max fold of a over the set
  SpmvRow,       ///< over map.from: a[c] = k1 * sum_k b[map(e, k)][c%bd] + k2
                 ///< via op2::row + op2::read_span (the krylov SpMV shape:
                 ///< whole-row gather-free indirect read, full overwrite)
  GlobalAxpy,    ///< direct: a[c] += k1 * (*g) * b[c%bd] with g a Read
                 ///< global initialized to k2 (krylov's alpha/beta shape)
};

const char* op_kind_name(OpKind k);
/// Inverse of op_kind_name; false on unknown text.
bool parse_op_kind(const std::string& text, OpKind* out);

/// One loop of a generated program. Dats are addressed as (set, slot) so
/// indices survive shrinking; `map` is a universe map index (-1 = direct).
struct LoopOp {
  OpKind kind = OpKind::ScaleDirect;
  int set = 0;    ///< iteration set (universe index)
  int map = -1;   ///< universe map index for indirect kinds
  int idx = 0;    ///< map component
  int idx2 = -1;  ///< second map component (ScatterInc flux), -1 = none
  int a = 0;      ///< dat slot on the iteration set
  int b = 0;      ///< dat slot on the target set (indirect) / same set (Axpy)
  double k1 = 1.0;
  double k2 = 0.0;
};

/// Mesh universe parameters. The universe always declares the same sets
/// and maps in the same order (disabled sets are declared empty), so
/// set/map/dat indices are stable under shrinking:
///   sets: 0 nodes (nx*ny, primary, jittered-lattice coords)
///         1 edges (grid edges)   2 cells ((nx-1)*(ny-1))   3 bnd (perimeter)
///   maps: 0 e2n(2)  1 c2n(4)  2 b2n(1)  3.. extra(fan_in) edges->nodes
/// Extra maps draw uniformly random node targets (possibly repeated within
/// a row — high, uncontrolled indirection), so flux-style two-component
/// increments are only ever generated on the grid maps, whose components
/// are distinct by construction.
struct MeshSpec {
  int nx = 4;
  int ny = 4;
  std::uint64_t mesh_seed = 0;  ///< coordinate jitter, dat dims/init, extras
  bool cells = true;            ///< false: cells/c2n declared empty
  bool boundary = true;         ///< false: bnd/b2n declared empty
  int extra_maps = 0;           ///< random edges->nodes maps beyond the grid
  int fan_in = 2;               ///< arity of the extra maps (1..4)
  int dats_per_set = 2;         ///< data slots per set (1..3)
};

/// A complete generated case: everything needed to re-execute it
/// bit-identically (the .vcgt repro serializes exactly these fields).
struct CaseSpec {
  std::uint64_t seed = 0;  ///< campaign case seed (also keys fault plans)
  MeshSpec mesh;
  int iters = 1;  ///< program repetitions (halo dirtiness across rounds)
  std::vector<LoopOp> loops;
};

constexpr int kNumSets = 4;
constexpr int kGridMaps = 3;

/// Deterministic realization of a MeshSpec: pure function of the spec
/// fields (no hidden RNG state), so oracle and every backend re-derive the
/// identical universe.
struct MeshTables {
  std::vector<index_t> set_sizes;              ///< kNumSets entries
  std::vector<double> coords;                  ///< nodes*2, AoS order
  std::vector<std::vector<index_t>> map_tables;  ///< grid + extra maps
  std::vector<int> map_dims;
  std::vector<int> map_from;  ///< universe set index per map
  std::vector<int> map_to;
  std::vector<int> dat_dims;                    ///< per (set*dats_per_set+slot)
  std::vector<std::vector<double>> dat_init;    ///< AoS global initial values
};

[[nodiscard]] MeshTables make_tables(const MeshSpec& spec);

// --- generation -------------------------------------------------------------

/// MeshGen + ProgramGen: derives the full CaseSpec for one campaign case.
/// Identical (campaign_seed, case_index) always yields the identical spec.
[[nodiscard]] CaseSpec gen_case(std::uint64_t campaign_seed, std::uint64_t case_index);

// --- taint analysis (tolerance policy) --------------------------------------

/// Per-dat order-sensitivity after executing the program, plus per-reduce-op
/// input taint. A dat is "tainted" when its bits may legitimately depend on
/// the floating-point fold order (indirect increments, or data derived from
/// them); untainted dats must match the oracle bit-for-bit on every backend.
struct TaintInfo {
  std::vector<bool> dat;        ///< per (set*dats_per_set+slot), final state
  std::vector<bool> red_input;  ///< per loop index: reduce op saw tainted input
};

[[nodiscard]] TaintInfo analyze_taint(const CaseSpec& spec, const MeshTables& tables);

// --- execution --------------------------------------------------------------

/// One cell of the backend × fault matrix.
struct ExecConfig {
  std::string name;
  int nranks = 1;
  int nthreads = 1;
  bool force_coloring = false;
  bool partial_halos = false;
  bool grouped_halos = false;
  bool latency_hiding = true;
  op2::Partitioner partitioner = op2::Partitioner::Rcb;
  /// Single-threaded ascending-order reduction folds (Config field added for
  /// this subsystem): on one rank the fold order equals the oracle's.
  ///
  /// Intentional default mismatch vs op2::Config (which defaults false):
  /// production runs keep the fast per-thread/rank-grouped partials, while
  /// the verification matrix wants the strictest comparable policy — with
  /// this on, single-rank sum reductions are held bit-exact against the
  /// oracle (see compare_to_oracle). The production nondeterministic path
  /// is still covered: default_matrix() carries dedicated *-nondet groups
  /// that force this off and are compared under the ULP policy as their own
  /// base. Pinned by VerifyMatrixTest.DeterministicReductionPolicy.
  bool deterministic_reductions = true;
  /// Run under a seeded delay/duplicate/reorder/drop FaultPlan derived from
  /// the case seed (distributed configs only).
  bool faults = false;
  /// Execute the program through declared op2::LoopChains: consecutive runs
  /// of 2–4 loops (length = 2 + seed % 3) become one chain each, a trailing
  /// leftover of fewer than 2 loops stays unchained. Same results as the
  /// unchained program under the same tolerance policy (bit-exact for
  /// untainted dats); variants of a chained base must match it bit-exactly
  /// with equal chain fingerprints.
  bool chained = false;
  /// Declare the universe through the sharded-setup path (DESIGN.md §13):
  /// each rank declares only its block-owned rows plus a map-closure ghost
  /// rind via decl_set_sharded, with shard-local map tables and sliced dat
  /// rows, and partitions with partition_sharded (nodes primary; ownership
  /// of the other sets inherited through their first map target). The
  /// `partitioner` field is ignored — sharded ownership is always the
  /// monolithic Block formula. Results obey the same tolerance policy as
  /// any distributed backend; fault variants of a sharded base must match
  /// it bit-exactly with equal fingerprints.
  bool sharded = false;
  /// op2::Config::chain_tile for chained runs (small, so the tiny fuzz
  /// meshes actually produce multi-tile segments).
  int chain_tile = 16;
};

struct RunResult {
  bool ok = false;
  std::string error;  ///< exception text when !ok
  /// Per (set*dats_per_set+slot): the dat gathered to a full global AoS
  /// array (fetch_global), identical shape on every backend.
  std::vector<std::vector<double>> dats;
  /// Final reduction values in loop order (ReduceSum: 1 value;
  /// ReduceMinMax: min then max).
  std::vector<double> reductions;
  /// Combined structural plan fingerprint per loop name: per-rank
  /// fingerprints folded in rank order (see op2::plan_fingerprint).
  std::map<std::string, std::uint64_t> fingerprints;
};

[[nodiscard]] RunResult run_case(const CaseSpec& spec, const MeshTables& tables,
                                 const ExecConfig& cfg);

// --- comparison -------------------------------------------------------------

/// ULP distance between two doubles (monotone integer-lattice distance;
/// large sentinel for NaN/infinity disagreements).
[[nodiscard]] std::uint64_t ulp_diff(double a, double b);

struct Mismatch {
  std::string config;  ///< ExecConfig::name of the diverging run
  std::string what;    ///< human-readable localization
};

/// Tolerance policy (explicit per access mode, DESIGN.md §9):
///  - untainted dats: bit-exact (== with +0/-0 identified, NaN == NaN);
///  - tainted dats: ULP-bounded with an absolute fallback scaled by the
///    oracle's magnitude (indirect-increment fold order);
///  - min/max reductions over untainted input: bit-exact;
///  - sum reductions: bit-exact on single-rank deterministic-reduction
///    backends with untainted input, else ULP-bounded (rank-grouped fold);
///  - fault/re-run variants vs. their own group base: bit-exact on
///    everything, fingerprints equal (checked by check_case, not here).
[[nodiscard]] std::optional<Mismatch> compare_to_oracle(
    const CaseSpec& spec, const TaintInfo& taint, const RunResult& oracle,
    const RunResult& run, const ExecConfig& cfg);

/// Bit-exact comparison of two runs of the same structural group (fault or
/// re-run variants): all dats, all reductions, equal fingerprints.
[[nodiscard]] std::optional<Mismatch> compare_exact(const RunResult& base,
                                                    const RunResult& run,
                                                    const ExecConfig& cfg);

// --- harness ----------------------------------------------------------------

/// The default verification matrix: structural groups (serial, colored,
/// threaded, distributed Block/RCB/Kway with PH/GH combinations), the
/// distributed ones with fault variants and the chained ones with a
/// fresh-context variant.
struct MatrixGroup {
  ExecConfig base;                    ///< no faults; compared vs oracle
  std::vector<ExecConfig> variants;   ///< compared bit-exactly vs base
};
[[nodiscard]] std::vector<MatrixGroup> default_matrix();

/// Runs the full matrix for one case; first mismatch wins. nullopt = clean.
[[nodiscard]] std::optional<Mismatch> check_case(const CaseSpec& spec);

/// Greedy delta-debugging shrink: iterations, loop list (ddmin-style),
/// optional sets, extra maps, fan-in, dat slots, grid extent — each
/// reduction kept only while check_case still reports a mismatch. Returns
/// the minimal failing spec (== input when nothing could be removed).
[[nodiscard]] CaseSpec shrink_case(const CaseSpec& spec, int* steps = nullptr);

// --- repro files ------------------------------------------------------------

/// Serializes a spec as a self-contained `.vcgt` repro (versioned text;
/// doubles in C hexfloat so the round-trip is bit-exact).
[[nodiscard]] std::string format_repro(const CaseSpec& spec, const std::string& note = "");
/// Parses format_repro output; throws std::runtime_error with a line-
/// localized message on malformed input.
[[nodiscard]] CaseSpec parse_repro(const std::string& text);

// --- campaign ---------------------------------------------------------------

struct CampaignOptions {
  std::uint64_t seed = 1;
  std::uint64_t cases = 200;
  std::string out_dir;        ///< where shrunk repros are written ("" = cwd)
  int max_repros = 10;        ///< stop emitting (not checking) after this many
  bool stop_on_first = false;
};

struct CampaignReport {
  std::uint64_t cases_run = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> repro_paths;
  double seconds = 0.0;
};

/// Runs `cases` seeded cases; on mismatch shrinks and writes a repro file.
/// Returns the report (mismatches == 0 means a clean campaign).
[[nodiscard]] CampaignReport run_campaign(const CampaignOptions& opts);

}  // namespace vcgt::verify
