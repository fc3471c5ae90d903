#pragma once
// minimpi: an in-process message-passing substrate with MPI semantics.
//
// The paper's coupled solver is an SPMD MPI application: Hydra sessions and
// JM76 coupler units are groups of ranks carved out of MPI_COMM_WORLD with
// sub-communicators. This repository has no cluster, so ranks are threads
// inside one process, each with a selective-receive mailbox. The public API
// deliberately mirrors the MPI calls the paper's software stack uses
// (send/recv, isend/irecv, barrier, bcast, reduce, allreduce, gather,
// allgather(v), alltoallv, comm split), so all distributed code in this repo
// reads exactly like the MPI code it stands in for.
//
// Every communicator meters traffic (message count, payload bytes, per-rank
// receive-wait seconds). The vcgt::perf machine models consume these meters
// to project wall-clock times on ARCHER2/Cirrus-like clusters; see DESIGN.md.
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/minimpi/buffer.hpp"

namespace vcgt::minimpi {

/// Wildcard source for recv, like MPI_ANY_SOURCE.
inline constexpr int kAnySource = -1;

/// Thrown in surviving ranks when a peer rank exits with an exception, so a
/// failing test does not deadlock the whole world. Once a world is poisoned
/// every blocked or subsequently issued recv/barrier throws — even when a
/// matching message is already queued.
class WorldAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown on the dying rank when a FaultPlan schedules a KillRank fault
/// (fail-stop rank death). Peers observe the generic WorldAborted.
class RankKilled : public WorldAborted {
 public:
  using WorldAborted::WorldAborted;
};

/// Thrown by send when transient delivery failures exhaust the retry budget
/// (WorldOptions::max_send_attempts).
class TransientSendError : public std::runtime_error {
 public:
  TransientSendError(std::string what, int rank, int dst, int tag, int attempts)
      : std::runtime_error(std::move(what)), rank(rank), dst(dst), tag(tag),
        attempts(attempts) {}
  int rank, dst, tag, attempts;
};

/// Thrown by recv when WorldOptions::recv_timeout expires (all retry rounds
/// included) with no matching message: the structured alternative to hanging.
class RecvTimeout : public std::runtime_error {
 public:
  RecvTimeout(std::string what, int rank, int src, int tag, double waited_seconds)
      : std::runtime_error(std::move(what)), rank(rank), src(src), tag(tag),
        waited_seconds(waited_seconds) {}
  int rank, src, tag;
  double waited_seconds;
};

/// Aggregated communication counters for one communicator.
struct TrafficStats {
  std::uint64_t messages = 0;      ///< total point-to-point messages sent
  std::uint64_t bytes = 0;         ///< total payload bytes sent
  std::uint64_t send_retries = 0;  ///< delivery attempts repeated after transient faults
  double max_rank_wait = 0.0;      ///< max over ranks of blocked-receive time
  double total_rank_wait = 0.0;    ///< sum over ranks of blocked-receive time
  std::vector<std::uint64_t> rank_messages;  ///< messages sent per rank
  std::vector<std::uint64_t> rank_bytes;     ///< bytes sent per rank
  std::vector<std::uint64_t> rank_retries;   ///< transient-fault retries per rank
  std::vector<double> rank_wait;             ///< wait seconds per rank
};

/// Structured stall diagnosis produced by the World progress watchdog: which
/// ranks are blocked, on what, for how long, plus traffic counters at stall
/// time — the information a silent deadlock destroys.
struct StallReport {
  struct BlockedOp {
    int rank = -1;
    std::string op;        ///< "recv" or "barrier"
    int peer = kAnySource; ///< awaited source rank (recv)
    int tag = 0;
    double seconds = 0.0;  ///< how long the rank has been blocked
    std::uint64_t op_index = 0;  ///< completed comm ops on that rank
  };
  double stall_timeout = 0.0;
  std::vector<BlockedOp> blocked;
  TrafficStats traffic;  ///< world traffic counters at stall time

  [[nodiscard]] std::string to_string() const;
};

/// Thrown from World::run when the progress watchdog detects that no rank is
/// making communication progress while every rank that has not returned is
/// blocked beyond WorldOptions::stall_timeout.
class WorldStalled : public std::runtime_error {
 public:
  explicit WorldStalled(StallReport report);
  [[nodiscard]] const StallReport& report() const { return report_; }

 private:
  StallReport report_;
};

class FaultPlan;

/// Robustness knobs for a World (all off by default, matching the previous
/// happy-path behaviour). Also configurable from the environment — see
/// World::run.
struct WorldOptions {
  /// Deterministic chaos layer; null = no injection.
  std::shared_ptr<FaultPlan> fault;
  /// Bounded receive: a blocked recv gives up after this many seconds
  /// (per retry round). 0 = wait forever.
  double recv_timeout = 0.0;
  /// Extra timeout rounds before recv surfaces RecvTimeout (each round
  /// waits recv_timeout again and logs a warning).
  int recv_retries = 0;
  /// Progress watchdog: convert a silent deadlock into WorldStalled once a
  /// rank has been blocked this long with no world-wide progress. 0 = off.
  double stall_timeout = 0.0;
  /// Delivery attempts per send before TransientSendError (>= 1).
  int max_send_attempts = 5;
  /// Sleep between delivery attempts after a transient send fault.
  double send_backoff = 50e-6;
};

namespace detail {

struct Message {
  int src = 0;
  int tag = 0;
  /// Per-source sequence number (monotone over the sender's sends on this
  /// communicator). Restores FIFO-per-(src, tag) under reordering and makes
  /// retransmissions/duplicates idempotent: a retry reuses its seq.
  std::uint64_t seq = 0;
  /// Owned payload slab (move-only): pooled for send_owned traffic, adopted
  /// for the legacy byte-vector API. Messages therefore never copy their
  /// payload inside the transport — the Duplicate fault path clones
  /// explicitly (see Comm::send_owned).
  Buffer payload;
};

/// Selective-receive queue: pop matches on (src, tag) with kAnySource
/// wildcard, leaving non-matching messages queued (MPI tag-matching rules).
/// Delivery is sequence-ordered per (src, tag) and duplicate-suppressing, so
/// the mailbox is correct under FaultPlan reorder/duplicate injection.
class Mailbox {
 public:
  /// defer=true holds the message back until the next push or pop touches
  /// the mailbox (FaultPlan reorder injection).
  void push(Message msg, bool defer = false);
  /// Blocks until a matching message arrives; accumulates blocked time into
  /// *wait_seconds when non-null. Throws WorldAborted if poisoned (strict:
  /// also when a matching message is queued — an aborted world's data must
  /// not be consumed).
  Message pop(int src, int tag, double* wait_seconds);
  enum class PopStatus { Ok, Poisoned, Timeout };
  /// Bounded pop: like pop but gives up after timeout_seconds.
  PopStatus pop_for(int src, int tag, double timeout_seconds, Message* out,
                    double* wait_seconds);
  bool try_pop(int src, int tag, Message* out);
  void poison();
  [[nodiscard]] bool poisoned();

 private:
  bool match_locked(int src, int tag, Message* out);
  void flush_deferred_locked();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::deque<Message> deferred_;  ///< reorder-injected, not yet visible
  /// Highest delivered seq per (src, tag): the duplicate-suppression
  /// watermark (delivery is seq-ascending per (src, tag)).
  std::map<std::pair<int, int>, std::uint64_t> delivered_;
  bool poisoned_ = false;
};

struct CommState;

/// World rank of the current rank-thread (-1 outside World::run). Keys the
/// FaultPlan streams and the watchdog's blocked-op registry, including for
/// split sub-communicators whose local ranks differ.
int current_world_rank();

}  // namespace detail

class Comm;

/// One communicator endpoint, bound to a rank. Cheap to copy (shared state).
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  // --- point to point ------------------------------------------------------
  void send_bytes(std::span<const std::byte> data, int dst, int tag);
  /// Receives one message matching (src, tag); returns payload. When
  /// actual_src is non-null it receives the sender rank (for kAnySource).
  std::vector<std::byte> recv_bytes(int src, int tag, int* actual_src = nullptr);
  bool try_recv_bytes(int src, int tag, std::vector<std::byte>* out,
                      int* actual_src = nullptr);

  // --- zero-copy transport -------------------------------------------------
  // Ranks share one address space, so an owned payload moves sender → mailbox
  // → receiver with no copy and no per-message allocation: lease a Buffer
  // from the per-world pool, pack into it, send_owned. The legacy byte-vector
  // API above is layered on the same message path (send_bytes adopts a copy;
  // recv_bytes releases the slab out of the pool). See buffer.hpp for the
  // ownership/lifetime contract and DESIGN.md §14 for the design.

  /// Leases a payload buffer from this world's pool (recycled across
  /// messages; Buffer::fresh() flags a warm-up allocation).
  [[nodiscard]] Buffer lease(std::size_t nbytes);
  /// Moves `payload` into the receiver's mailbox — zero copies on the clean
  /// path. Only an injected Duplicate fault clones the payload (unpooled),
  /// so recycling the original can never corrupt the in-flight duplicate.
  void send_owned(Buffer&& payload, int dst, int tag);
  /// Receives one message matching (src, tag) as an owned Buffer; dropping
  /// it returns a pooled slab to the sender world's pool.
  Buffer recv_owned(int src, int tag, int* actual_src = nullptr);
  /// Counters of this world's buffer pool (shared by all ranks).
  [[nodiscard]] PoolStats pool_stats() const;

  template <class T>
  void send(std::span<const T> data, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(std::as_bytes(data), dst, tag);
  }
  template <class T>
  std::vector<T> recv(int src, int tag, int* actual_src = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto raw = recv_bytes(src, tag, actual_src);
    if (raw.size() % sizeof(T) != 0) {
      throw std::runtime_error("minimpi::recv: payload size not a multiple of element size");
    }
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }
  template <class T>
  void send_value(const T& v, int dst, int tag) {
    send(std::span<const T>(&v, 1), dst, tag);
  }
  template <class T>
  T recv_value(int src, int tag, int* actual_src = nullptr) {
    const auto vec = recv<T>(src, tag, actual_src);
    if (vec.size() != 1) throw std::runtime_error("minimpi::recv_value: expected 1 element");
    return vec[0];
  }

  /// Combined send+receive (MPI_Sendrecv): deadlock-free pairwise exchange
  /// (the send is buffered, so post-send-then-recv cannot block).
  template <class T>
  std::vector<T> sendrecv(std::span<const T> senddata, int dst, int sendtag, int src,
                          int recvtag) {
    send(senddata, dst, sendtag);
    return recv<T>(src, recvtag);
  }

  // --- collectives ---------------------------------------------------------
  void barrier();
  /// Broadcast: root's buffer replaces everyone's; returns the data. Only
  /// the root's span is read — non-roots may (and should) pass empty.
  std::vector<std::byte> bcast_bytes(std::span<const std::byte> data, int root);
  template <class T>
  std::vector<T> bcast(std::vector<T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::span<const std::byte> raw;
    if (rank_ == root) raw = std::as_bytes(std::span<const T>(data));
    auto out_raw = bcast_bytes(raw, root);
    std::vector<T> out(out_raw.size() / sizeof(T));
    if (!out_raw.empty()) std::memcpy(out.data(), out_raw.data(), out_raw.size());
    return out;
  }
  template <class T>
  T bcast_value(T v, int root) {
    auto vec = bcast(std::vector<T>{v}, root);
    return vec.at(0);
  }

  /// Variable-length gather: root receives concatenation ordered by rank and
  /// per-rank counts. Non-roots receive empty vectors.
  template <class T>
  std::vector<T> gatherv(std::span<const T> local, int root,
                         std::vector<std::size_t>* counts = nullptr) {
    constexpr int kTag = kTagGather;
    if (rank_ != root) {
      send(local, root, kTag);
      return {};
    }
    std::vector<T> all;
    if (counts) counts->assign(static_cast<std::size_t>(size()), 0);
    for (int r = 0; r < size(); ++r) {
      std::vector<T> part;
      if (r == rank_) {
        part.assign(local.begin(), local.end());
      } else {
        part = recv<T>(r, kTag);
      }
      if (counts) (*counts)[static_cast<std::size_t>(r)] = part.size();
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }

  template <class T>
  std::vector<T> allgatherv(std::span<const T> local,
                            std::vector<std::size_t>* counts = nullptr) {
    std::vector<std::size_t> local_counts;
    auto all = gatherv(local, 0, &local_counts);
    all = bcast(std::move(all), 0);
    if (counts) {
      *counts = bcast(std::move(local_counts), 0);
    } else {
      (void)bcast(std::move(local_counts), 0);
    }
    return all;
  }

  template <class T>
  std::vector<T> allgather_value(const T& v) {
    return allgatherv(std::span<const T>(&v, 1));
  }

  /// Reduction with an arbitrary associative op. The fold walks
  /// contributions in strictly ascending rank order *regardless of root*:
  /// the root buffers every remote value and folds from rank 0 upward
  /// (its own value taken in place at its own rank), so non-associative
  /// floating-point folds produce bit-identical results for every root
  /// choice (certification-grade reproducibility; see DESIGN.md §11).
  template <class T, class Op>
  T reduce(const T& v, Op op, int root) {
    constexpr int kTag = kTagReduce;
    if (rank_ != root) {
      send_value(v, root, kTag);
      return v;
    }
    T acc = rank_ == 0 ? v : recv_value<T>(0, kTag);
    for (int r = 1; r < size(); ++r) {
      const T vr = r == rank_ ? v : recv_value<T>(r, kTag);
      acc = op(acc, vr);
    }
    return acc;
  }

  template <class T, class Op>
  T allreduce(const T& v, Op op) {
    T acc = reduce(v, op, 0);
    return bcast_value(acc, 0);
  }

  double allreduce_sum(double v) {
    return allreduce(v, [](double a, double b) { return a + b; });
  }
  double allreduce_max(double v) {
    return allreduce(v, [](double a, double b) { return a > b ? a : b; });
  }
  std::uint64_t allreduce_sum_u64(std::uint64_t v) {
    return allreduce(v, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  }

  /// Component-wise sum allreduce of a whole vector in one collective round:
  /// one message per non-root rank carries every component, so batched dot
  /// products (op2 Global reductions of dim > 1) ride a single reduce+bcast
  /// instead of one collective per component. Per component the fold order
  /// is strictly ascending rank order — bit-identical to calling the scalar
  /// allreduce_sum once per component. All ranks must pass equal lengths.
  std::vector<double> allreduce_sum(std::span<const double> v) {
    constexpr int kTag = kTagReduce;
    std::vector<double> acc(v.begin(), v.end());
    if (rank_ != 0) {
      send(v, 0, kTag);
    } else {
      for (int r = 1; r < size(); ++r) {
        const auto part = recv<double>(r, kTag);
        if (part.size() != acc.size()) {
          throw std::invalid_argument("allreduce_sum: vector length mismatch across ranks");
        }
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += part[i];
      }
    }
    return bcast(std::move(acc), 0);
  }

  /// All-to-all with per-destination variable payloads.
  /// sendbufs[r] goes to rank r; returns recvbufs where [r] came from rank r.
  template <class T>
  std::vector<std::vector<T>> alltoallv(const std::vector<std::vector<T>>& sendbufs) {
    constexpr int kTag = kTagAlltoall;
    if (static_cast<int>(sendbufs.size()) != size()) {
      throw std::invalid_argument("alltoallv: sendbufs.size() != comm size");
    }
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      send(std::span<const T>(sendbufs[static_cast<std::size_t>(r)]), r, kTag);
    }
    std::vector<std::vector<T>> recvbufs(static_cast<std::size_t>(size()));
    recvbufs[static_cast<std::size_t>(rank_)] = sendbufs[static_cast<std::size_t>(rank_)];
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      recvbufs[static_cast<std::size_t>(r)] = recv<T>(r, kTag);
    }
    return recvbufs;
  }

  /// Collective split, MPI_Comm_split semantics: ranks with equal color form
  /// a child comm, ordered by (key, parent rank). color < 0 yields an
  /// invalid Comm for that rank (like MPI_UNDEFINED).
  Comm split(int color, int key);

  // --- metering ------------------------------------------------------------
  [[nodiscard]] TrafficStats traffic() const;
  /// Zeroes every rank's counters. The communicator must be quiesced (no
  /// in-flight traffic): reset from a single rank between barriers, or from
  /// all ranks only when none is communicating.
  void reset_traffic();

  /// True once the world this communicator belongs to has been poisoned
  /// (a rank died or the watchdog fired). Any further recv/barrier on it
  /// throws WorldAborted.
  [[nodiscard]] bool aborted() const;

 private:
  friend class World;
  friend class WorkerPool;
  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  /// Common delivery path for send_bytes and send_owned: fault consultation,
  /// sequencing, retry loop, mailbox push. Takes ownership of the payload.
  void send_message(Buffer&& payload, int dst, int tag);
  [[nodiscard]] BufferPool& world_pool() const;

  // Internal tags for collectives; user tags must be < kTagCollectiveBase.
  static constexpr int kTagCollectiveBase = 1 << 24;
  static constexpr int kTagGather = kTagCollectiveBase + 1;
  static constexpr int kTagReduce = kTagCollectiveBase + 2;
  static constexpr int kTagBcast = kTagCollectiveBase + 3;
  static constexpr int kTagAlltoall = kTagCollectiveBase + 4;
  static constexpr int kTagSplit = kTagCollectiveBase + 5;

  std::shared_ptr<detail::CommState> state_;
  int rank_ = -1;
};

/// Launches an SPMD world of `nranks` rank-threads, each executing `fn` with
/// its own world communicator, and joins them. If any rank throws, the world
/// is poisoned (peers blocked in recv/barrier get WorldAborted) and the first
/// exception is rethrown to the caller.
///
/// Robustness behaviour is set by WorldOptions; when the caller passes none,
/// the environment is consulted: VCGT_FAULT_SEED (+ VCGT_FAULT_P_*,
/// VCGT_FAULT_KILL) attaches a FaultPlan, VCGT_RECV_TIMEOUT /
/// VCGT_RECV_RETRIES bound receives, VCGT_STALL_TIMEOUT arms the progress
/// watchdog. See src/minimpi/fault.hpp and DESIGN.md "Fault model".
class World {
 public:
  static void run(int nranks, const std::function<void(Comm&)>& fn);
  static void run(int nranks, const std::function<void(Comm&)>& fn,
                  const WorldOptions& opts);

  /// WorldOptions derived from the environment (the defaults for the
  /// two-argument run()). Exposed so tests and drivers can inspect or tweak
  /// an env-driven configuration before launching.
  static WorldOptions options_from_env();
};

}  // namespace vcgt::minimpi
