#ifndef THEMIS_UTIL_LRU_CACHE_H_
#define THEMIS_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace themis {

/// Least-recently-used map with an optional capacity bound (0 = unbounded).
/// Backs the inference-engine memo table, the SQL plan cache, the
/// plan->result memo, and the server's response byte cache. Not
/// thread-safe: callers that share an instance across threads hold their
/// own lock around Get/Put.
///
/// Capacity is expressed in *cost units*: with the default Put cost of 1
/// the bound is an entry count; callers that pass per-entry costs (the
/// response byte cache weighs payload bytes) get cost-aware admission —
/// eviction frees enough total cost, and an entry costlier than the whole
/// capacity is rejected outright instead of wiping the cache.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(size_t capacity = 0) : capacity_(capacity) {}

  /// Returns the cached value and marks the entry most-recently used.
  std::optional<V> Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->value;
  }

  /// Inserts or overwrites `key` at the given cost, then evicts
  /// least-recently-used entries until the capacity bound holds again.
  /// Returns false when the entry alone exceeds the capacity and was not
  /// admitted (the cache is left untouched apart from dropping any stale
  /// entry under the same key).
  bool Put(const K& key, V value, size_t cost = 1) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      total_cost_ -= it->second->cost;
      order_.erase(it->second);
      index_.erase(it);
    }
    if (capacity_ > 0 && cost > capacity_) {
      ++rejections_;
      return false;
    }
    order_.push_front(Entry{key, std::move(value), cost});
    index_[key] = order_.begin();
    total_cost_ += cost;
    EvictToCapacity();
    return true;
  }

  size_t size() const { return order_.size(); }
  size_t capacity() const { return capacity_; }

  /// Sum of the admitted entries' costs (= size() under unit costs).
  size_t total_cost() const { return total_cost_; }

  /// Entries dropped by the capacity bound since construction or Clear().
  size_t evictions() const { return evictions_; }

  /// Entries refused admission because their cost alone exceeded capacity.
  size_t rejections() const { return rejections_; }

  /// Erases every entry matching `pred(key, value)`, returning how many
  /// were dropped (counted in evictions() — from the caller's view a
  /// predicate erase is a forced eviction, e.g. invalidating one
  /// relation's entries out of a shared response cache). O(size).
  template <typename Pred>
  size_t EraseIf(const Pred& pred) {
    size_t erased = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(it->key, it->value)) {
        total_cost_ -= it->cost;
        index_.erase(it->key);
        it = order_.erase(it);
        ++erased;
        ++evictions_;
      } else {
        ++it;
      }
    }
    return erased;
  }

  void Clear() {
    order_.clear();
    index_.clear();
    total_cost_ = 0;
    evictions_ = 0;
    rejections_ = 0;
  }

 private:
  struct Entry {
    K key;
    V value;
    size_t cost;
  };

  /// Drops least-recently-used entries until the capacity bound holds.
  void EvictToCapacity() {
    while (capacity_ > 0 && total_cost_ > capacity_) {
      total_cost_ -= order_.back().cost;
      index_.erase(order_.back().key);
      order_.pop_back();
      ++evictions_;
    }
  }

  size_t capacity_;
  size_t total_cost_ = 0;
  size_t evictions_ = 0;
  size_t rejections_ = 0;
  std::list<Entry> order_;
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index_;
};

}  // namespace themis

#endif  // THEMIS_UTIL_LRU_CACHE_H_
