// LruCache: the mutex-guarded LRU machinery behind the engine's plan cache
// (core/plan_cache.h).
//
// Semantics the plan cache relies on:
//   * Lookup counts a hit or miss and refreshes the entry's LRU position.
//   * Insert overwrites an existing entry for the same key (a racing
//     builder's result simply wins; more importantly, a defensively
//     detected bad entry is replaced instead of pinned forever).
//   * EvictWhere drops every entry matching a predicate (version sweeps)
//     and feeds the eviction counter, as do LRU capacity evictions.
// All operations lock an internal mutex; stored values should be immutable
// shared_ptrs so a concurrent evict never invalidates an in-flight reader.

#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace prefsql {

template <typename Key, typename Value, typename KeyHash>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Cumulative counters (engine stats, EXPLAIN, benches).
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;  ///< LRU capacity evictions + EvictWhere sweeps
  };

  /// The cached value for `key`, or a default-constructed Value (nullptr
  /// for shared_ptr values). Counts a hit or miss and refreshes the
  /// entry's LRU position.
  Value Lookup(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++counters_.misses;
      return Value{};
    }
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  /// Publishes `value` under `key`, replacing any existing entry. May
  /// LRU-evict the least recently used entry.
  void Insert(const Key& key, Value value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    map_[key] = lru_.begin();
    ++counters_.insertions;
    while (lru_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++counters_.evictions;
    }
  }

  /// Drops up to `n` entries from the cold (least recently used) end —
  /// the memory-pressure shed primitive. Returns how many were dropped;
  /// they feed the eviction counter like capacity evictions.
  size_t EvictOldest(size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    while (dropped < n && !lru_.empty()) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++dropped;
    }
    counters_.evictions += dropped;
    return dropped;
  }

  /// Drops every entry whose key matches `pred`; returns how many.
  size_t EvictWhere(const std::function<bool(const Key&)>& pred) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (!pred(it->first)) {
        ++it;
        continue;
      }
      map_.erase(it->first);
      it = lru_.erase(it);
      ++dropped;
    }
    counters_.evictions += dropped;
    return dropped;
  }

  Counters counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
  }

 private:
  using Entry = std::pair<Key, Value>;

  mutable std::mutex mutex_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash> map_;
  Counters counters_;
};

}  // namespace prefsql
