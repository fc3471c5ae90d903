#include "src/op2/plancache.hpp"

namespace vcgt::op2 {

std::shared_ptr<const void> PlanCache::lookup(const std::string& key) {
  std::scoped_lock lock(mutex_);
  auto value = hit_locked(key);
  if (!value) ++stats_.misses;
  return value;
}

std::shared_ptr<const void> PlanCache::hit_locked(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  return it->second->value;
}

std::shared_ptr<const void> PlanCache::get_or_build(const std::string& key,
                                                    const std::function<Built()>& build) {
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock lock(mutex_);
    if (auto value = hit_locked(key)) return value;
    if (const auto it = flights_.find(key); it != flights_.end()) {
      const std::shared_ptr<Flight> pending = it->second;
      landed_.wait(lock, [&] { return pending->done; });
      if (pending->error) std::rethrow_exception(pending->error);
      ++stats_.hits;
      return pending->value;
    }
    ++stats_.misses;
    flight = std::make_shared<Flight>();
    flights_.emplace(key, flight);
  }
  Built built;
  std::exception_ptr error;
  try {
    built = build();
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::scoped_lock lock(mutex_);
    if (!error) insert_locked(key, built.value, built.bytes);
    flight->value = built.value;
    flight->error = error;
    flight->done = true;
    flights_.erase(key);
  }
  landed_.notify_all();
  if (error) std::rethrow_exception(error);
  return built.value;
}

void PlanCache::insert(const std::string& key, std::shared_ptr<const void> value,
                       std::size_t bytes) {
  std::scoped_lock lock(mutex_);
  insert_locked(key, std::move(value), bytes);
}

void PlanCache::insert_locked(const std::string& key, std::shared_ptr<const void> value,
                              std::size_t bytes) {
  if (index_.count(key) != 0) return;  // first insertion wins
  if (bytes > max_bytes_) return;      // would evict everything and still not fit
  lru_.push_front(Entry{key, std::move(value), bytes});
  index_[key] = lru_.begin();
  stats_.bytes += bytes;
  stats_.entries = index_.size();
  ++stats_.insertions;
  evict_locked();
}

bool PlanCache::contains(const std::string& key) const {
  std::scoped_lock lock(mutex_);
  return index_.count(key) != 0;
}

void PlanCache::invalidate(const std::string& key) {
  std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  stats_.bytes -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
  stats_.entries = index_.size();
}

void PlanCache::clear() {
  std::scoped_lock lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
}

PlanCache::Stats PlanCache::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

void PlanCache::evict_locked() {
  while (stats_.bytes > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = index_.size();
}

}  // namespace vcgt::op2
