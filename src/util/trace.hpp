#pragma once
// vcgt::trace — low-overhead structured profiling for the whole stack.
//
// The paper's scaling analysis (Figs 7-9, Tables III/IV) attributes every
// second of a timestep to compute vs. halo exchange vs. coupler wait. This
// layer provides that attribution for the reproduction: per-thread event
// recorders (begin/end spans, counters, instants on steady-clock timestamps,
// bounded ring buffers), a writer that emits Chrome-trace/Perfetto JSON with
// one track per rank, and a per-run summary table (per-span-name count,
// total/mean seconds, byte and message sums).
//
// Tracing is OFF by default. Every instrumentation site first checks
// `trace::enabled()` — a single relaxed atomic load — so the disabled-path
// overhead is one predictable branch per site (< 2% on the coupled rig; see
// DESIGN.md §7 for the budget). Recording is per-thread: each thread owns a
// ring buffer registered in a global registry, appends under the buffer's own
// mutex (uncontended in steady state — the writer only locks it at dump
// time), and tags events with its *track*, which minimpi::World::run sets to
// the world rank so one Perfetto track per rank falls out naturally.
//
// Conventions used by the instrumentation in this repository:
//   par_loop spans   — the loop name as declared ("row0:rk_update"), args
//                      set_size / colors / nthreads;
//   halo exchange    — "halo:pack_send" (args bytes, msgs, grouped, partial)
//                      and "halo:wait" (blocked in receive/scatter);
//   minimpi waits    — "mpi:recv_wait" / "mpi:barrier_wait", fed from the
//                      mailbox wait metering (only emitted when time was
//                      actually spent blocked);
//   coupler          — "hs:step", "coupler:send_states", "coupler:recv_ghosts",
//                      "cu:recv_donors", "cu:search_interp";
//   hydra            — "hydra:inner_iter", "hydra:rk_stage".
// The summary classifier in vcgt::perf keys on these prefixes.
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace vcgt::trace {

/// One recorded event. `phase` follows the Chrome trace-event phases:
/// 'X' complete span, 'C' counter, 'i' instant.
struct Event {
  std::string name;
  int track = 0;            ///< rank / thread lane (Chrome "tid")
  std::int64_t ts_ns = 0;   ///< steady-clock begin timestamp
  std::int64_t dur_ns = 0;  ///< span duration ('X' only)
  char phase = 'X';
  int depth = 0;            ///< span nesting depth at begin (for tests)
  /// Numeric arguments (keys must be string literals / static storage).
  struct Arg {
    const char* key;
    double value;
  };
  static constexpr int kMaxArgs = 4;
  Arg args[kMaxArgs] = {};
  int nargs = 0;
};

/// Is tracing globally enabled? One relaxed atomic load — the only cost the
/// instrumentation pays when tracing is off.
[[nodiscard]] bool enabled();

/// Enables recording. Buffers from a previous session are cleared so a run's
/// trace starts empty. `per_thread_capacity` bounds each thread's ring
/// buffer (clamped to at least 16); when it overflows the oldest events are
/// dropped (and counted).
void enable(std::size_t per_thread_capacity = 1 << 16);

/// Stops recording. Already-recorded events stay readable (summary/write)
/// until the next enable() or clear().
void disable();

/// Drops every recorded event on every thread's buffer.
void clear();

/// Sets the calling thread's track id (world rank). minimpi::World::run calls
/// this in each rank thread; the main thread defaults to track 0.
void set_track(int track);
[[nodiscard]] int current_track();

/// Current span nesting depth of the calling thread (tests).
[[nodiscard]] int current_depth();

/// Total events dropped to ring-buffer overflow since enable().
[[nodiscard]] std::uint64_t dropped();

/// RAII span: records one complete ('X') event covering its lifetime.
/// Constructing with tracing disabled is a no-op (no timestamp taken); a span
/// begun while enabled records even if tracing is disabled before it ends, so
/// begin/end stay balanced. Exception-safe by construction (destructor runs
/// on unwind).
class Span {
 public:
  /// The name is copied only when tracing is enabled.
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric argument (up to Event::kMaxArgs; extras ignored).
  /// `key` must outlive the trace session (use string literals).
  void arg(const char* key, double value);

  [[nodiscard]] bool active() const { return active_; }

 private:
  std::string name_;
  std::int64_t begin_ns_ = 0;
  Event::Arg args_[Event::kMaxArgs] = {};
  int nargs_ = 0;
  bool active_ = false;
};

/// Records a complete span with explicit begin/duration — used where the
/// blocked interval is already measured (mailbox wait metering) and a span
/// object would bracket more than the wait itself.
void complete(const char* name, std::int64_t begin_ns, std::int64_t dur_ns,
              std::initializer_list<Event::Arg> args = {});

/// Counter sample ('C') and instant marker ('i').
void counter(const char* name, double value);
void instant(const char* name);

/// Steady-clock now in nanoseconds (the trace timebase).
[[nodiscard]] std::int64_t now_ns();

/// Snapshot of every thread's buffer, oldest-first per thread, ordered by
/// (track, ts). Safe to call while other threads record.
[[nodiscard]] std::vector<Event> snapshot();

/// Per-name aggregate over all recorded span events.
struct SummaryRow {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double mean_seconds = 0.0;
  std::uint64_t bytes = 0;  ///< sum of "bytes" args
  std::uint64_t msgs = 0;   ///< sum of "msgs" args
};

/// Aggregates every recorded 'X' event by name, sorted by total seconds
/// descending. "bytes"/"msgs" args accumulate into the byte/message columns.
[[nodiscard]] std::vector<SummaryRow> summary();

/// Prints the summary as an aligned table (count, total s, mean ms, MB,
/// msgs per name).
void write_summary(std::ostream& os);

/// Emits the recorded events as Chrome-trace JSON ({"traceEvents": [...]}):
/// one 'X'/'C'/'i' entry per event plus thread_name metadata naming each
/// track "rank N". Load in chrome://tracing or https://ui.perfetto.dev.
void write_chrome_trace(std::ostream& os);
/// File variant; returns false (and logs) when the file cannot be opened.
bool write_chrome_trace(const std::string& path);

}  // namespace vcgt::trace
