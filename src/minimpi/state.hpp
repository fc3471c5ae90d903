#pragma once
// Internal shared state of a communicator world. Split out of minimpi.cpp so
// WorkerPool (pool.cpp) can build and recycle worlds with the same state
// machinery World::run uses; not part of the public minimpi API.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/minimpi/fault.hpp"
#include "src/minimpi/minimpi.hpp"

namespace vcgt::minimpi::detail {

/// World rank of the current rank-thread; definition in minimpi.cpp.
extern thread_local int t_world_rank;

std::int64_t now_ns();
void sleep_seconds(double s);

/// Per-world-rank blocked-op slot sampled by the progress watchdog. Written
/// only by the owning rank thread; all fields atomic so the watchdog can read
/// a consistent-enough snapshot without locks.
struct BlockedSlot {
  std::atomic<int> active{0};  ///< 0 idle, 1 recv, 2 barrier
  std::atomic<int> peer{kAnySource};
  std::atomic<int> tag{0};
  std::atomic<std::int64_t> since_ns{0};
  std::atomic<std::uint64_t> ops{0};  ///< completed comm ops on this rank
  std::atomic<bool> returned{false};  ///< the rank's function has returned
};

/// Shared state of one communicator: mailboxes, barrier, split rendezvous,
/// traffic meters. Ranks hold it via shared_ptr; child comms register with
/// the root state so poisoning reaches every mailbox in the world. The root
/// state additionally owns the WorldOptions and the watchdog's slots.
struct CommState {
  explicit CommState(int n)
      : size(n),
        mailboxes(static_cast<std::size_t>(n)),
        send_seq(static_cast<std::size_t>(n)),
        split_seq(static_cast<std::size_t>(n)),
        rank_messages(static_cast<std::size_t>(n)),
        rank_bytes(static_cast<std::size_t>(n)),
        rank_retries(static_cast<std::size_t>(n)),
        rank_wait(static_cast<std::size_t>(n)) {
    for (auto& box : mailboxes) box = std::make_unique<Mailbox>();
    for (auto& c : send_seq) c.store(0, std::memory_order_relaxed);
    for (auto& c : split_seq) c.store(0, std::memory_order_relaxed);
    for (auto& c : rank_messages) c.store(0, std::memory_order_relaxed);
    for (auto& c : rank_bytes) c.store(0, std::memory_order_relaxed);
    for (auto& c : rank_retries) c.store(0, std::memory_order_relaxed);
    for (auto& c : rank_wait) c.store(0.0, std::memory_order_relaxed);
  }

  int size;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  /// Per-source send sequence counters (assigned once per message, before any
  /// retry, so retransmissions are idempotent under the mailbox watermark).
  std::vector<std::atomic<std::uint64_t>> send_seq;

  // Barrier (generation counting). `poisoned` is flipped under barrier_mutex
  // so a poison-wake is never lost by a rank entering the wait.
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_arrived = 0;
  std::uint64_t barrier_generation = 0;
  std::atomic<bool> poisoned{false};

  // Split rendezvous: first member of a (epoch, color) group creates the
  // child state, the rest pick it up; the entry is dropped once the last
  // member has, so a long-lived world (serve's worker pools) doesn't pin
  // every child state it ever created. The epoch counters live here — per
  // rank, not per Comm object — so a *fresh* Comm handed out for a new job
  // on a reused world continues the sequence instead of restarting at 0 and
  // colliding with a previous job's rendezvous keys.
  std::mutex split_mutex;
  std::condition_variable split_cv;
  std::vector<std::atomic<std::uint64_t>> split_seq;  ///< per parent rank
  struct SplitChild {
    std::shared_ptr<CommState> state;
    int remaining = 0;  ///< members yet to pick the child up
  };
  std::map<std::pair<std::uint64_t, int>, SplitChild> split_children;

  // Traffic meters (atomic so traffic() may be sampled concurrently).
  std::vector<std::atomic<std::uint64_t>> rank_messages;
  std::vector<std::atomic<std::uint64_t>> rank_bytes;
  std::vector<std::atomic<std::uint64_t>> rank_retries;
  std::vector<std::atomic<double>> rank_wait;

  // Poison propagation: the world-root state tracks every descendant.
  // Atomic: the split creator publishes the child before register_child
  // stores the root pointer, so peers may read it concurrently.
  std::atomic<CommState*> root{nullptr};  // null for the root itself
  std::mutex registry_mutex;  // root only
  std::vector<std::weak_ptr<CommState>> registry;  // root only

  // Root only: robustness options and the watchdog's per-world-rank slots.
  WorldOptions opts;
  std::vector<std::unique_ptr<BlockedSlot>> slots;
  std::atomic<std::uint64_t> ops_total{0};

  /// Per-world payload pool for the zero-copy transport (buffer.hpp). Every
  /// communicator in the world — root and split children — leases from the
  /// root state's pool, so slabs recycle across sub-communicators too.
  /// In-flight Buffers hold it via shared_ptr, surviving world teardown.
  std::shared_ptr<BufferPool> buffer_pool = std::make_shared<BufferPool>();

  CommState* root_state() {
    CommState* r = root.load(std::memory_order_acquire);
    return r ? r : this;
  }

  BlockedSlot* slot_for(int world_rank) {
    CommState* r = root_state();
    if (world_rank < 0 || world_rank >= static_cast<int>(r->slots.size())) return nullptr;
    return r->slots[static_cast<std::size_t>(world_rank)].get();
  }

  /// One comm op (send/recv/barrier) completed on `world_rank`: the signal
  /// the watchdog distinguishes "slow" from "stalled" by.
  void note_progress(int world_rank) {
    CommState* r = root_state();
    if (BlockedSlot* s = slot_for(world_rank)) s->ops.fetch_add(1, std::memory_order_relaxed);
    r->ops_total.fetch_add(1, std::memory_order_relaxed);
  }

  void poison_state(CommState& s) {
    {
      std::scoped_lock lock(s.barrier_mutex);
      s.poisoned.store(true, std::memory_order_relaxed);
    }
    s.barrier_cv.notify_all();
    for (auto& box : s.mailboxes) box->poison();
  }

  void register_child(const std::shared_ptr<CommState>& child) {
    CommState* r = root_state();
    child->root.store(r, std::memory_order_release);
    {
      std::scoped_lock lock(r->registry_mutex);
      // Prune retired children so a persistent world (serve worker pools)
      // doesn't grow its registry without bound across jobs.
      std::erase_if(r->registry, [](const std::weak_ptr<CommState>& w) { return w.expired(); });
      r->registry.push_back(child);
    }
    // A child created after the world died must be born poisoned, or its
    // ranks would block forever in a world nobody else inhabits.
    if (r->poisoned.load(std::memory_order_relaxed)) poison_state(*child);
  }

  void poison_world() {
    CommState* r = root_state();
    poison_state(*r);
    std::scoped_lock lock(r->registry_mutex);
    for (auto& weak : r->registry) {
      if (auto child = weak.lock()) poison_state(*child);
    }
  }
};

/// Builds a root world state the way World::run does: options applied,
/// fault plan sized, one watchdog slot per rank.
std::shared_ptr<CommState> make_world_state(int nranks, const WorldOptions& opts);

/// The watchdog's stall test on a root state whose op counter has not
/// moved since its last sample: the blocked ops of every rank that has not
/// returned, when each of those ranks has been blocked for at least
/// `timeout` seconds. Empty otherwise — a rank still computing or not yet
/// started can yet send, so its blocked peers are not stalled.
std::vector<StallReport::BlockedOp> stalled_ops(CommState& state, double timeout);

}  // namespace vcgt::minimpi::detail
