#include "src/minimpi/pool.hpp"

#include <algorithm>
#include <utility>

#include "src/minimpi/state.hpp"
#include "src/util/log.hpp"
#include "src/util/trace.hpp"

namespace vcgt::minimpi {

struct WorkerPool::Pending {
  Job fn;
  std::promise<JobResult> promise;
};

WorkerPool::WorkerPool(int nranks, WorldOptions opts)
    : nranks_(nranks), opts_(std::move(opts)) {
  if (nranks <= 0) throw std::invalid_argument("minimpi::WorkerPool: nranks must be positive");
  state_ = detail::make_world_state(nranks_, opts_);
  slots_.resize(static_cast<std::size_t>(nranks_));
  rank_seen_.assign(static_cast<std::size_t>(nranks_), 0);
  rank_errors_.assign(static_cast<std::size_t>(nranks_), std::string{});
  threads_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads_.emplace_back([this, r] { rank_main(r); });
  }
  if (opts_.stall_timeout > 0.0) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

WorkerPool::~WorkerPool() { shutdown(); }

std::future<WorkerPool::JobResult> WorkerPool::submit(Job job) {
  auto pending = std::make_unique<Pending>();
  pending->fn = std::move(job);
  std::future<JobResult> fut = pending->promise.get_future();
  {
    std::scoped_lock lock(mutex_);
    if (stop_) {
      JobResult res;
      res.ok = false;
      res.error = "minimpi::WorkerPool: pool shut down";
      pending->promise.set_value(std::move(res));
      return fut;
    }
    if (current_ == nullptr) {
      start_locked(std::move(pending));
    } else {
      queue_.push_back(std::move(pending));
    }
  }
  cv_.notify_all();
  return fut;
}

void WorkerPool::start_locked(std::unique_ptr<Pending> job) {
  current_ = std::move(job);
  ++job_seq_;
  // No rank is inside a job here, so the watchdog sees every rank as
  // running the new job until it returns from it.
  for (auto& slot : state_->slots) slot->returned.store(false, std::memory_order_release);
}

std::uint64_t WorkerPool::generation() const {
  std::scoped_lock lock(mutex_);
  return generation_;
}

std::size_t WorkerPool::backlog() const {
  std::scoped_lock lock(mutex_);
  return queue_.size() + (current_ != nullptr ? 1 : 0);
}

void WorkerPool::rank_main(int r) {
  // Rank identity is thread-wide and permanent: it keys fault streams,
  // watchdog slots and trace tracks across every job this thread runs.
  detail::t_world_rank = r;
  trace::set_track(r);
  const auto ri = static_cast<std::size_t>(r);
  for (;;) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] {
      return (current_ != nullptr && rank_seen_[ri] != job_seq_) || stop_;
    });
    // A pending job is run even when stopping: peers may already be inside
    // it, and abandoning them would hang the shutdown barrier below.
    if (current_ == nullptr || rank_seen_[ri] == job_seq_) {
      if (stop_) return;
      continue;
    }
    rank_seen_[ri] = job_seq_;
    auto state = state_;
    Pending* job = current_.get();
    lock.unlock();

    std::string err;
    try {
      Comm comm{state, r};
      job->fn(comm, slots_[ri]);
    } catch (const std::exception& e) {
      err = e.what();
    } catch (...) {
      err = "unknown error";
    }
    // Poison before reporting: peers blocked in a collective with the dead
    // rank must wake (with WorldAborted) or the job never finishes.
    if (!err.empty()) state->poison_world();
    state->slots[ri]->returned.store(true, std::memory_order_release);

    lock.lock();
    rank_errors_[ri] = err;
    if (++finished_ == nranks_) {
      auto [promise, result] = finalize_locked();
      lock.unlock();
      cv_.notify_all();
      promise.set_value(std::move(result));
    }
  }
}

std::pair<std::promise<WorkerPool::JobResult>, WorkerPool::JobResult>
WorkerPool::finalize_locked() {
  JobResult res;
  res.rank_errors = rank_errors_;
  for (int r = 0; r < nranks_; ++r) {
    const auto& e = rank_errors_[static_cast<std::size_t>(r)];
    if (!e.empty()) {
      res.ok = false;
      if (res.error.empty()) res.error = util::fmt("rank {}: {}", r, e);
    }
  }
  // A watchdog stall poisons the world without any rank throwing (ranks
  // report WorldAborted) — rebuild on poison, not only on rank error.
  if (!res.ok || state_->poisoned.load(std::memory_order_relaxed)) {
    res.world_rebuilt = true;
    rebuild_world_locked();
  }
  std::promise<JobResult> promise = std::move(current_->promise);
  current_.reset();
  finished_ = 0;
  std::fill(rank_errors_.begin(), rank_errors_.end(), std::string{});
  if (!stop_ && !queue_.empty()) {
    start_locked(std::move(queue_.front()));
    queue_.pop_front();
  }
  return {std::move(promise), std::move(res)};
}

void WorkerPool::rebuild_world_locked() {
  // Order matters: warm sessions hold Comm endpoints bound to the poisoned
  // state — destroy them before the state they reference goes away, and
  // never let one survive into the fresh world.
  for (auto& slot : slots_) slot.reset();
  state_ = detail::make_world_state(nranks_, opts_);
  ++generation_;
  util::warn("minimpi::WorkerPool: world poisoned, rebuilt (generation {})", generation_);
}

void WorkerPool::watchdog_main() {
  const double interval = std::clamp(opts_.stall_timeout / 8.0, 1e-3, 0.1);
  std::uint64_t last_ops = ~std::uint64_t{0};
  for (;;) {
    detail::sleep_seconds(interval);
    std::shared_ptr<detail::CommState> state;
    {
      std::scoped_lock lock(mutex_);
      if (stop_) return;
      if (current_ == nullptr) {  // idle: nothing can stall
        last_ops = ~std::uint64_t{0};
        continue;
      }
      state = state_;
    }
    const std::uint64_t ops_now = state->ops_total.load(std::memory_order_relaxed);
    const bool progressed = ops_now != last_ops;
    last_ops = ops_now;
    if (progressed) continue;
    if (detail::stalled_ops(*state, opts_.stall_timeout).empty()) continue;
    util::error("minimpi::WorkerPool: stall detected (no progress for {}s), poisoning world",
                opts_.stall_timeout);
    state->poison_world();
    last_ops = ~std::uint64_t{0};
  }
}

void WorkerPool::shutdown() {
  std::deque<std::unique_ptr<Pending>> orphaned;
  {
    std::scoped_lock lock(mutex_);
    if (stop_ && threads_.empty()) return;  // already shut down
    stop_ = true;
    orphaned.swap(queue_);
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  // The in-flight job (if any) was finished by the rank threads before they
  // exited; queued jobs never started.
  for (auto& p : orphaned) {
    JobResult res;
    res.ok = false;
    res.error = "minimpi::WorkerPool: pool shut down";
    p->promise.set_value(std::move(res));
  }
  // Drop warm sessions before the final state: they hold Comms into it.
  for (auto& slot : slots_) slot.reset();
}

}  // namespace vcgt::minimpi
