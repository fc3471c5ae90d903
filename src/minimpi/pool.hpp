#pragma once
// minimpi::WorkerPool — a persistent threads-as-ranks world that executes a
// sequence of jobs (vcgt::serve's execution substrate).
//
// World::run spins up rank threads, runs one function, joins and tears the
// world down; a serving front end doing that per request pays thread
// creation, fault-plan setup and watchdog start on every job, and — worse —
// cannot keep *warm state* (a constructed CoupledRig holding Comm endpoints)
// alive between jobs, because those endpoints die with the world. The pool
// instead keeps the rank threads and the shared CommState alive across
// jobs:
//
//  - submit(job) enqueues; rank threads run jobs strictly in order, all
//    ranks executing the same job before any rank starts the next;
//  - each rank owns a warm slot (shared_ptr<void>) that survives between
//    jobs — sessions park rig/solver objects there so a later job with the
//    same spec skips setup entirely;
//  - a rank that throws poisons the world (unblocking peers stuck in
//    collectives, exactly like World::run) and the job completes with a
//    structured per-rank error report. The pool then *rebuilds* the world:
//    warm slots are dropped first (they hold Comms bound to the poisoned
//    state), then a fresh CommState replaces it and the generation counter
//    bumps, so the next job starts clean — a killed job can never hang the
//    pool or leak its failure into the next job;
//  - an optional progress watchdog (WorldOptions::stall_timeout) poisons a
//    world whose ranks still in the job are all blocked with no progress,
//    converting a deadlocked job into a failed one.
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/minimpi/minimpi.hpp"

namespace vcgt::minimpi {

namespace detail {
struct CommState;
}

class WorkerPool {
 public:
  /// One job, executed SPMD by every rank thread. `slot` is this rank's
  /// warm storage: it persists across jobs on the same (non-rebuilt) world
  /// and is dropped on rebuild. Throwing fails the job for the whole world.
  using Job = std::function<void(Comm& comm, std::shared_ptr<void>& slot)>;

  struct JobResult {
    bool ok = true;
    std::string error;                     ///< first rank error (empty when ok)
    std::vector<std::string> rank_errors;  ///< per rank; empty string = clean
    bool world_rebuilt = false;  ///< world was poisoned; warm slots dropped
  };

  explicit WorkerPool(int nranks, WorldOptions opts = {});
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues a job; the future resolves when every rank finished it.
  /// Never blocks on the job itself.
  std::future<JobResult> submit(Job job);

  [[nodiscard]] int nranks() const { return nranks_; }
  /// Bumped every time the world is rebuilt after a poisoned job. A warm
  /// session keyed to an older generation is gone.
  [[nodiscard]] std::uint64_t generation() const;
  /// Jobs waiting or running.
  [[nodiscard]] std::size_t backlog() const;

  /// Stops accepting jobs, lets the in-flight job finish, fails queued
  /// jobs with "pool shut down", joins all threads. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  struct Pending;

  /// Makes `job` the current job, with every rank not yet returned from it.
  void start_locked(std::unique_ptr<Pending> job);
  void rank_main(int r);
  void watchdog_main();
  /// Called by the last rank to finish the current job, with mutex_ held.
  /// Returns the promise/result pair to fulfil after unlocking.
  std::pair<std::promise<JobResult>, JobResult> finalize_locked();
  void rebuild_world_locked();

  int nranks_;
  WorldOptions opts_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::shared_ptr<detail::CommState> state_;
  std::vector<std::shared_ptr<void>> slots_;  ///< per-rank warm storage
  std::deque<std::unique_ptr<Pending>> queue_;
  std::unique_ptr<Pending> current_;
  std::uint64_t job_seq_ = 0;              ///< bumps when current_ changes
  std::vector<std::uint64_t> rank_seen_;   ///< last job_seq_ each rank ran
  int finished_ = 0;                       ///< ranks done with current_
  std::vector<std::string> rank_errors_;
  std::uint64_t generation_ = 1;
  bool stop_ = false;

  std::vector<std::thread> threads_;
  std::thread watchdog_;
};

}  // namespace vcgt::minimpi
