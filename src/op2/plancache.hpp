#pragma once
// op2::PlanCache — a process-wide, thread-safe LRU cache of setup artifacts.
//
// Setup dominates short runs (Reguly et al. measure plan/partition
// construction at a large fraction of an industrial OP2 application's
// wall-clock at low iteration counts), and a serving front end re-pays it
// per job unless partitions, renumberings and loop/chain plans become
// *cacheable artifacts*. The cache is deliberately dumb: string key ->
// type-erased shared_ptr<const void> + byte estimate, LRU-evicted under a
// memory cap. The intelligence — what is keyed how, and when a hit is safe
// to consume — lives with the producers:
//
//  - keys embed the SessionSpec hash (vcgt::SessionSpec::hash()), the
//    artifact kind and every structural coordinate (rank, world size,
//    partitioner), so a stale or foreign artifact can never be looked up;
//  - plan snapshots store their plan_fingerprint() and are re-validated on
//    import (plansnap.cpp);
//  - distributed consumers must agree collectively that *every* rank hit
//    before any rank consumes a cached artifact (Context::partition,
//    Context::import_plans_from_cache) — a mixed hit/miss would send one
//    rank down the cached path while its peers enter a collective build,
//    deadlocking the world. Lookups alone never block or communicate.
//
// Values are immutable once inserted (shared_ptr<const T>), so readers on
// worker threads share them without copying; eviction only drops the
// cache's reference.
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace vcgt::op2 {

class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< current resident estimate
    std::size_t entries = 0;  ///< current entry count
  };

  explicit PlanCache(std::size_t max_bytes = std::size_t{64} << 20)
      : max_bytes_(max_bytes) {}

  /// Returns the entry (bumping its recency) or null. Never blocks on
  /// anything but the cache mutex; never communicates.
  std::shared_ptr<const void> lookup(const std::string& key);

  template <class T>
  std::shared_ptr<const T> lookup_as(const std::string& key) {
    return std::static_pointer_cast<const T>(lookup(key));
  }

  /// Inserts `value` under `key` with the given resident-size estimate,
  /// evicting least-recently-used entries until the cap holds. An existing
  /// key is left in place (first insertion wins — producers of the same key
  /// compute identical artifacts, and keeping the resident one preserves
  /// sharing). An entry larger than the whole cap is not admitted.
  void insert(const std::string& key, std::shared_ptr<const void> value,
              std::size_t bytes);

  template <class T>
  void insert_value(const std::string& key, std::shared_ptr<const T> value,
                    std::size_t bytes) {
    insert(key, std::static_pointer_cast<const void>(std::move(value)), bytes);
  }

  /// What a get_or_build builder returns: the artifact and its resident-size
  /// estimate.
  struct Built {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };

  /// Single-flight lookup: returns the entry, or runs `build` and inserts its
  /// result. Concurrent callers of a key under construction wait for the
  /// first builder instead of building it again, so each artifact is built
  /// once: the builder counts one miss, every other caller that gets the
  /// value a hit. When the builder throws, its exception reaches the waiters
  /// too and nothing is cached (a later call builds afresh). `build` must not
  /// wait on another rank: waiters block their thread until it returns.
  std::shared_ptr<const void> get_or_build(const std::string& key,
                                           const std::function<Built()>& build);

  /// Typed get_or_build: `build` returns {shared_ptr<const T>, bytes}.
  template <class T, class Build>
  std::shared_ptr<const T> get_or_build_as(const std::string& key, Build&& build) {
    return std::static_pointer_cast<const T>(get_or_build(key, [&]() -> Built {
      auto [value, bytes] = build();
      return {std::static_pointer_cast<const void>(std::move(value)), bytes};
    }));
  }

  /// Peek without bumping recency (tests / metrics).
  [[nodiscard]] bool contains(const std::string& key) const;

  void invalidate(const std::string& key);
  void clear();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };

  /// A key under construction by get_or_build.
  struct Flight {
    bool done = false;
    std::shared_ptr<const void> value;
    std::exception_ptr error;
  };

  std::shared_ptr<const void> hit_locked(const std::string& key);
  void insert_locked(const std::string& key, std::shared_ptr<const void> value,
                     std::size_t bytes);
  void evict_locked();

  mutable std::mutex mutex_;
  std::condition_variable landed_;  ///< a Flight finished
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  std::size_t max_bytes_;
  /// MRU at front; the map holds iterators into the list.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace vcgt::op2
