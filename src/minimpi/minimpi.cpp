#include "src/minimpi/minimpi.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "src/minimpi/fault.hpp"
#include "src/minimpi/state.hpp"
#include "src/util/env_config.hpp"
#include "src/util/log.hpp"
#include "src/util/timer.hpp"
#include "src/util/trace.hpp"

namespace vcgt::minimpi {

namespace detail {

thread_local int t_world_rank = -1;

int current_world_rank() { return t_world_rank; }

std::int64_t now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

void sleep_seconds(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

std::shared_ptr<CommState> make_world_state(int nranks, const WorldOptions& opts) {
  auto state = std::make_shared<CommState>(nranks);
  state->opts = opts;
  if (state->opts.fault) state->opts.fault->ensure_ranks(nranks);
  state->slots.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    state->slots.push_back(std::make_unique<BlockedSlot>());
  }
  return state;
}

std::vector<StallReport::BlockedOp> stalled_ops(CommState& state, double timeout) {
  const std::int64_t now = now_ns();
  std::vector<StallReport::BlockedOp> stuck;
  for (std::size_t r = 0; r < state.slots.size(); ++r) {
    const BlockedSlot& slot = *state.slots[r];
    if (slot.returned.load(std::memory_order_acquire)) continue;
    const int active = slot.active.load(std::memory_order_acquire);
    const double age =
        static_cast<double>(now - slot.since_ns.load(std::memory_order_relaxed)) * 1e-9;
    if (active == 0 || age < timeout) return {};
    stuck.push_back({static_cast<int>(r), active == 2 ? "barrier" : "recv",
                     slot.peer.load(std::memory_order_relaxed),
                     slot.tag.load(std::memory_order_relaxed), age,
                     slot.ops.load(std::memory_order_relaxed)});
  }
  return stuck;
}

void Mailbox::flush_deferred_locked() {
  while (!deferred_.empty()) {
    queue_.push_back(std::move(deferred_.front()));
    deferred_.pop_front();
  }
}

void Mailbox::push(Message msg, bool defer) {
  {
    std::scoped_lock lock(mutex_);
    if (defer) {
      deferred_.push_back(std::move(msg));
    } else {
      queue_.push_back(std::move(msg));
      // Deferred (reorder-injected) messages become visible behind this one.
      flush_deferred_locked();
    }
  }
  // Notify even for a deferred push: a receiver blocked on exactly this
  // message flushes it from its wait predicate, so reorder cannot deadlock.
  cv_.notify_all();
}

bool Mailbox::match_locked(int src, int tag, Message* out) {
  const auto matches = [&](const Message& m) {
    return (src == kAnySource || m.src == src) && m.tag == tag;
  };
  // Purge duplicates: a sequenced message at or below the delivered watermark
  // for its (src, tag) has already been consumed once (seq 0 = unsequenced
  // legacy message, exempt from the protocol).
  for (std::size_t i = 0; i < queue_.size();) {
    const Message& m = queue_[i];
    if (m.seq != 0 && matches(m)) {
      const auto wm = delivered_.find({m.src, m.tag});
      if (wm != delivered_.end() && m.seq <= wm->second) {
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
    }
    ++i;
  }
  // Queue order picks which (src, tag) stream a wildcard receive sees first,
  // but within that stream delivery is minimum-seq-first: FIFO per (src, tag)
  // survives reorder injection.
  std::size_t best = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (!matches(m)) continue;
    if (best == queue_.size()) {
      best = i;
      continue;
    }
    const Message& b = queue_[best];
    if (m.seq != 0 && b.seq != 0 && m.src == b.src && m.tag == b.tag && m.seq < b.seq) {
      best = i;
    }
  }
  if (best == queue_.size()) return false;
  Message& chosen = queue_[best];
  if (chosen.seq != 0) delivered_[{chosen.src, chosen.tag}] = chosen.seq;
  *out = std::move(chosen);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  return true;
}

Message Mailbox::pop(int src, int tag, double* wait_seconds) {
  std::unique_lock lock(mutex_);
  Message msg;
  bool matched = false;
  util::Timer waited;
  cv_.wait(lock, [&] {
    // Poison wins even over a queued match: an aborted world's data must not
    // be consumed (a receiver observes the abort deterministically).
    if (poisoned_) return true;
    flush_deferred_locked();
    matched = match_locked(src, tag, &msg);
    return matched;
  });
  if (wait_seconds) *wait_seconds += waited.elapsed();
  if (!matched) throw WorldAborted("minimpi: world aborted while blocked in recv");
  return msg;
}

Mailbox::PopStatus Mailbox::pop_for(int src, int tag, double timeout_seconds, Message* out,
                                    double* wait_seconds) {
  std::unique_lock lock(mutex_);
  bool matched = false;
  util::Timer waited;
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds), [&] {
    if (poisoned_) return true;
    flush_deferred_locked();
    matched = match_locked(src, tag, out);
    return matched;
  });
  if (wait_seconds) *wait_seconds += waited.elapsed();
  if (matched) return PopStatus::Ok;
  return poisoned_ ? PopStatus::Poisoned : PopStatus::Timeout;
}

bool Mailbox::try_pop(int src, int tag, Message* out) {
  std::scoped_lock lock(mutex_);
  if (poisoned_) throw WorldAborted("minimpi: world aborted");
  flush_deferred_locked();
  return match_locked(src, tag, out);
}

void Mailbox::poison() {
  {
    std::scoped_lock lock(mutex_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

bool Mailbox::poisoned() {
  std::scoped_lock lock(mutex_);
  return poisoned_;
}

namespace {

/// RAII registration of a blocked op in the watchdog slot for this thread's
/// world rank. No-op outside World::run or when the world has no slots.
class BlockedScope {
 public:
  BlockedScope(CommState* state, int kind, int peer, int tag) {
    slot_ = state->slot_for(current_world_rank());
    if (!slot_) return;
    slot_->peer.store(peer, std::memory_order_relaxed);
    slot_->tag.store(tag, std::memory_order_relaxed);
    slot_->since_ns.store(now_ns(), std::memory_order_relaxed);
    slot_->active.store(kind, std::memory_order_release);
  }
  ~BlockedScope() {
    if (slot_) slot_->active.store(0, std::memory_order_release);
  }
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  BlockedSlot* slot_ = nullptr;
};

}  // namespace

}  // namespace detail

std::string StallReport::to_string() const {
  std::string out = util::fmt("minimpi: world stalled (no progress, stall_timeout {}s); {} rank(s) blocked:",
                              stall_timeout, blocked.size());
  for (const auto& b : blocked) {
    out += util::fmt("\n  rank {} blocked in {} (peer {}, tag {}) for {}s after {} completed ops",
                     b.rank, b.op, b.peer, b.tag, b.seconds, b.op_index);
  }
  out += util::fmt("\n  traffic at stall: {} msgs, {} bytes, {} send retries", traffic.messages,
                   traffic.bytes, traffic.send_retries);
  return out;
}

WorldStalled::WorldStalled(StallReport report)
    : std::runtime_error(report.to_string()), report_(std::move(report)) {}

int Comm::size() const { return state_ ? state_->size : 0; }

bool Comm::aborted() const {
  if (!state_) return false;
  return state_->root_state()->poisoned.load(std::memory_order_relaxed);
}

BufferPool& Comm::world_pool() const { return *state_->root_state()->buffer_pool; }

Buffer Comm::lease(std::size_t nbytes) { return world_pool().lease(nbytes); }

PoolStats Comm::pool_stats() const { return world_pool().stats(); }

void Comm::send_message(Buffer&& payload, int dst, int tag) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("minimpi::send: bad destination rank");
  detail::CommState* root = state_->root_state();
  const int wrank = detail::current_world_rank();

  // Consult the fault plan once per send op (retries reuse this decision so
  // they do not perturb the random stream). May throw RankKilled.
  FaultPlan::SendDecision fault;
  if (wrank >= 0 && root->opts.fault) fault = root->opts.fault->on_send(wrank, dst, tag);

  detail::Message msg;
  msg.src = rank_;
  msg.tag = tag;
  // Sequence assigned exactly once, before the retry loop: a retransmission
  // carries the original seq, so per-(src, tag) FIFO survives drop+retry.
  msg.seq = state_->send_seq[static_cast<std::size_t>(rank_)].fetch_add(
                1, std::memory_order_relaxed) + 1;
  msg.payload = std::move(payload);
  const auto r = static_cast<std::size_t>(rank_);
  state_->rank_messages[r].fetch_add(1, std::memory_order_relaxed);
  state_->rank_bytes[r].fetch_add(msg.payload.size(), std::memory_order_relaxed);

  if (fault.kind == FaultKind::Delay) detail::sleep_seconds(fault.delay_seconds);

  // Transient-fault retry loop: each failed delivery attempt is metered and
  // backed off; exhausting the budget surfaces a structured error instead of
  // silently losing the message.
  const int max_attempts = std::max(1, root->opts.max_send_attempts);
  int failed = 0;
  while (failed < fault.fail_attempts) {
    ++failed;
    state_->rank_retries[r].fetch_add(1, std::memory_order_relaxed);
    if (failed >= max_attempts) {
      throw TransientSendError(
          util::fmt("minimpi: rank {} send to {} (tag {}) failed {} delivery attempts", rank_,
                    dst, tag, failed),
          rank_, dst, tag, failed);
    }
    detail::sleep_seconds(root->opts.send_backoff);
  }

  auto& box = *state_->mailboxes[static_cast<std::size_t>(dst)];
  if (fault.kind == FaultKind::Duplicate) {
    // The one copying path in the transport: a duplicate genuinely needs a
    // second payload in flight. The clone is unpooled and carries the same
    // seq, so (a) the dedup watermark suppresses whichever arrives second
    // and (b) recycling the original's slab can never corrupt the duplicate.
    detail::Message dup;
    dup.src = msg.src;
    dup.tag = msg.tag;
    dup.seq = msg.seq;
    dup.payload = msg.payload.clone();
    world_pool().note_dup_copy();
    box.push(std::move(dup), /*defer=*/false);
  }
  box.push(std::move(msg), /*defer=*/fault.kind == FaultKind::Reorder);
  state_->note_progress(wrank);
}

void Comm::send_bytes(std::span<const std::byte> data, int dst, int tag) {
  // Legacy byte-vector path: one payload copy into an adopted (unpooled)
  // buffer, then the common zero-copy delivery path.
  send_message(Buffer::adopt(std::vector<std::byte>(data.begin(), data.end())), dst, tag);
}

void Comm::send_owned(Buffer&& payload, int dst, int tag) {
  world_pool().note_zero_copy(payload.size());
  send_message(std::move(payload), dst, tag);
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag, int* actual_src) {
  return std::move(recv_owned(src, tag, actual_src)).release();
}

Buffer Comm::recv_owned(int src, int tag, int* actual_src) {
  detail::CommState* root = state_->root_state();
  const int wrank = detail::current_world_rank();
  if (wrank >= 0 && root->opts.fault) root->opts.fault->on_op(wrank, src, tag);

  detail::BlockedScope blocked(state_.get(), /*kind=*/1, src, tag);
  auto& box = *state_->mailboxes[static_cast<std::size_t>(rank_)];
  double waited = 0.0;
  detail::Message msg;
  const double timeout = root->opts.recv_timeout;
  if (timeout > 0.0) {
    const int rounds = 1 + std::max(0, root->opts.recv_retries);
    bool got = false;
    for (int round = 0; round < rounds && !got; ++round) {
      switch (box.pop_for(src, tag, timeout, &msg, &waited)) {
        case detail::Mailbox::PopStatus::Ok:
          got = true;
          break;
        case detail::Mailbox::PopStatus::Poisoned:
          throw WorldAborted("minimpi: world aborted while blocked in recv");
        case detail::Mailbox::PopStatus::Timeout:
          if (round + 1 < rounds) {
            util::warn("minimpi: rank {} recv (src {}, tag {}) timed out after {}s, retry {}/{}",
                       rank_, src, tag, timeout, round + 1, rounds - 1);
          }
          break;
      }
    }
    if (!got) {
      throw RecvTimeout(util::fmt("minimpi: rank {} recv from src {} (tag {}) timed out after {}s ({} round(s))",
                                  rank_, src, tag, waited, rounds),
                        rank_, src, tag, waited);
    }
  } else {
    msg = box.pop(src, tag, &waited);
  }
  if (waited > 0.0) {
    state_->rank_wait[static_cast<std::size_t>(rank_)].fetch_add(waited,
                                                                 std::memory_order_relaxed);
    // Feed the trace from the mailbox wait metering: one span per blocked
    // receive, skipping instant matches (sub-microsecond "waits" are noise).
    if (waited > 1e-6 && trace::enabled()) {
      const auto dur = static_cast<std::int64_t>(waited * 1e9);
      trace::complete("mpi:recv_wait", trace::now_ns() - dur, dur,
                      {{"src", static_cast<double>(src)}, {"tag", static_cast<double>(tag)}});
    }
  }
  state_->note_progress(wrank);
  if (actual_src) *actual_src = msg.src;
  return std::move(msg.payload);
}

bool Comm::try_recv_bytes(int src, int tag, std::vector<std::byte>* out, int* actual_src) {
  detail::Message msg;
  if (!state_->mailboxes[static_cast<std::size_t>(rank_)]->try_pop(src, tag, &msg)) return false;
  if (actual_src) *actual_src = msg.src;
  *out = std::move(msg.payload).release();
  return true;
}

void Comm::barrier() {
  auto& st = *state_;
  detail::CommState* root = st.root_state();
  const int wrank = detail::current_world_rank();
  if (wrank >= 0 && root->opts.fault) root->opts.fault->on_op(wrank, kAnySource, 0);

  detail::BlockedScope blocked(state_.get(), /*kind=*/2, kAnySource, 0);
  std::unique_lock lock(st.barrier_mutex);
  if (st.poisoned.load(std::memory_order_relaxed)) {
    throw WorldAborted("minimpi: world aborted at barrier");
  }
  const std::uint64_t gen = st.barrier_generation;
  if (++st.barrier_arrived == st.size) {
    st.barrier_arrived = 0;
    ++st.barrier_generation;
    st.barrier_cv.notify_all();
  } else {
    util::Timer waited;
    st.barrier_cv.wait(lock, [&] {
      return st.barrier_generation != gen || st.poisoned.load(std::memory_order_relaxed);
    });
    const double waited_s = waited.elapsed();
    st.rank_wait[static_cast<std::size_t>(rank_)].fetch_add(waited_s,
                                                            std::memory_order_relaxed);
    if (waited_s > 1e-6 && trace::enabled()) {
      const auto dur = static_cast<std::int64_t>(waited_s * 1e9);
      trace::complete("mpi:barrier_wait", trace::now_ns() - dur, dur);
    }
    if (st.barrier_generation == gen) {
      // Woken by poison, not by barrier completion: a peer died while we
      // waited (this wake previously did not exist — the seed deadlocked).
      throw WorldAborted("minimpi: world aborted while blocked in barrier");
    }
  }
  lock.unlock();
  state_->note_progress(wrank);
}

std::vector<std::byte> Comm::bcast_bytes(std::span<const std::byte> data, int root) {
  // Span-in so non-roots stage nothing: only the root's bytes are read
  // (non-roots used to pay a full staging copy just to have it overwritten).
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      send_bytes(data, r, kTagBcast);
    }
    return {data.begin(), data.end()};
  }
  return recv_bytes(root, kTagBcast);
}

Comm Comm::split(int color, int key) {
  // Exchange (color, key, parent rank) among all parent ranks.
  struct Entry {
    int color, key, parent_rank;
  };
  const Entry mine{color, key, rank_};
  const auto all = allgather_value(mine);

  const std::uint64_t epoch =
      state_->split_seq[static_cast<std::size_t>(rank_)].fetch_add(1, std::memory_order_relaxed);
  if (color < 0) return Comm{};  // MPI_UNDEFINED

  std::vector<Entry> members;
  for (const auto& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
  });
  int child_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].parent_rank == rank_) child_rank = static_cast<int>(i);
  }

  // Rendezvous on the shared child state; the last member to pick it up
  // retires the entry.
  std::shared_ptr<detail::CommState> child;
  {
    std::unique_lock lock(state_->split_mutex);
    const auto it_key = std::make_pair(epoch, color);
    auto it = state_->split_children.find(it_key);
    if (it == state_->split_children.end()) {
      detail::CommState::SplitChild sc{
          std::make_shared<detail::CommState>(static_cast<int>(members.size())),
          static_cast<int>(members.size())};
      it = state_->split_children.emplace(it_key, std::move(sc)).first;
      lock.unlock();
      state_->register_child(it->second.state);
      state_->split_cv.notify_all();
      lock.lock();
    }
    child = it->second.state;
    if (--it->second.remaining == 0) state_->split_children.erase(it);
  }
  return Comm{std::move(child), child_rank};
}

TrafficStats Comm::traffic() const {
  TrafficStats out;
  const auto n = static_cast<std::size_t>(size());
  out.rank_messages.resize(n);
  out.rank_bytes.resize(n);
  out.rank_retries.resize(n);
  out.rank_wait.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    out.rank_messages[r] = state_->rank_messages[r].load(std::memory_order_relaxed);
    out.rank_bytes[r] = state_->rank_bytes[r].load(std::memory_order_relaxed);
    out.rank_retries[r] = state_->rank_retries[r].load(std::memory_order_relaxed);
    out.rank_wait[r] = state_->rank_wait[r].load(std::memory_order_relaxed);
    out.messages += out.rank_messages[r];
    out.bytes += out.rank_bytes[r];
    out.send_retries += out.rank_retries[r];
    out.total_rank_wait += out.rank_wait[r];
    out.max_rank_wait = std::max(out.max_rank_wait, out.rank_wait[r]);
  }
  return out;
}

void Comm::reset_traffic() {
  const auto n = static_cast<std::size_t>(size());
  for (std::size_t r = 0; r < n; ++r) {
    state_->rank_messages[r].store(0, std::memory_order_relaxed);
    state_->rank_bytes[r].store(0, std::memory_order_relaxed);
    state_->rank_retries[r].store(0, std::memory_order_relaxed);
    state_->rank_wait[r].store(0.0, std::memory_order_relaxed);
  }
}

WorldOptions World::options_from_env() {
  WorldOptions opts;
  const util::EnvConfig env = util::env_config();
  FaultConfig cfg = FaultConfig::from_env();
  if (cfg.enabled()) opts.fault = std::make_shared<FaultPlan>(std::move(cfg));
  if (env.recv_timeout) opts.recv_timeout = *env.recv_timeout;
  if (env.recv_retries) opts.recv_retries = *env.recv_retries;
  if (env.stall_timeout) opts.stall_timeout = *env.stall_timeout;
  return opts;
}

void World::run(int nranks, const std::function<void(Comm&)>& fn) {
  run(nranks, fn, options_from_env());
}

void World::run(int nranks, const std::function<void(Comm&)>& fn, const WorldOptions& opts) {
  if (nranks <= 0) throw std::invalid_argument("minimpi::World: nranks must be positive");
  auto state = detail::make_world_state(nranks, opts);

  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<bool> done{false};

  // Progress watchdog: converts a silent deadlock into a structured
  // WorldStalled diagnosis. A stall is declared only when the world-wide op
  // counter has not moved between two samples AND every rank that has not
  // returned has been blocked beyond stall_timeout — a slow-but-progressing
  // world, or one whose blocked ranks wait on a peer still computing, is
  // left alone.
  std::thread watchdog;
  if (opts.stall_timeout > 0.0) {
    watchdog = std::thread([&, state] {
      const double interval = std::clamp(opts.stall_timeout / 8.0, 1e-3, 0.1);
      std::uint64_t last_ops = ~std::uint64_t{0};
      while (!done.load(std::memory_order_relaxed)) {
        detail::sleep_seconds(interval);
        if (done.load(std::memory_order_relaxed)) return;
        const std::uint64_t ops_now = state->ops_total.load(std::memory_order_relaxed);
        const bool progressed = ops_now != last_ops;
        last_ops = ops_now;
        if (progressed) continue;
        auto stuck = detail::stalled_ops(*state, opts.stall_timeout);
        if (stuck.empty()) continue;
        StallReport report;
        report.stall_timeout = opts.stall_timeout;
        report.blocked = std::move(stuck);
        report.traffic = Comm{state, 0}.traffic();
        util::error("{}", report.to_string());
        {
          std::scoped_lock lock(error_mutex);
          if (!first_error) first_error = std::make_exception_ptr(WorldStalled(std::move(report)));
        }
        state->poison_world();
        return;
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      detail::t_world_rank = r;
      trace::set_track(r);  // one trace track per rank
      Comm comm{state, r};
      try {
        fn(comm);
      } catch (...) {
        {
          std::scoped_lock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        state->poison_world();
      }
      state->slots[static_cast<std::size_t>(r)]->returned.store(true, std::memory_order_release);
      detail::t_world_rank = -1;
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) watchdog.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace vcgt::minimpi
