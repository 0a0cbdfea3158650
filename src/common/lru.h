// O(1) LRU recency tracker over arbitrary keys.
//
// Used by the swap frontends (victim selection) and caches (eviction order).
// touch() moves a key to the MRU end; evict_lru() pops the LRU end.
//
// Steady-state churn allocates nothing: evict_lru() and erase() keep the
// freed list node (spliced onto a spare list) and the index's node handle,
// and the next touch() of a new key reuses both. Recency order lives in the
// list alone, so recycling nodes cannot change which key is evicted.
#pragma once

#include <cassert>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

namespace dm {

template <typename Key>
class LruTracker {
 public:
  // Inserts the key as MRU, or refreshes it to MRU if present.
  void touch(const Key& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.end(), order_, it->second);
      return;
    }
    if (spare_.empty()) {
      order_.push_back(key);
    } else {
      order_.splice(order_.end(), spare_, spare_.begin());
      order_.back() = key;
    }
    const auto pos = std::prev(order_.end());
    if (spare_handles_.empty()) {
      index_.emplace(key, pos);
      return;
    }
    auto handle = std::move(spare_handles_.back());
    spare_handles_.pop_back();
    handle.key() = key;
    handle.mapped() = pos;
    index_.insert(std::move(handle));
  }

  bool contains(const Key& key) const { return index_.count(key) > 0; }

  // Removes and returns the least-recently-used key, or nullopt if empty.
  std::optional<Key> evict_lru() {
    if (order_.empty()) return std::nullopt;
    Key victim = order_.front();
    spare_handles_.push_back(index_.extract(victim));
    spare_.splice(spare_.end(), order_, order_.begin());
    return victim;
  }

  // Peek at the LRU key without removing it.
  std::optional<Key> peek_lru() const {
    if (order_.empty()) return std::nullopt;
    return order_.front();
  }

  bool erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    spare_.splice(spare_.end(), order_, it->second);
    spare_handles_.push_back(index_.extract(it));
    return true;
  }

  std::size_t size() const noexcept { return index_.size(); }
  bool empty() const noexcept { return index_.empty(); }

  // Drops every key and the recycled nodes.
  void clear() {
    order_.clear();
    index_.clear();
    spare_.clear();
    spare_handles_.clear();
  }

  // LRU-to-MRU iteration (read-only).
  auto begin() const { return order_.begin(); }
  auto end() const { return order_.end(); }

 private:
  using Index = std::unordered_map<Key, typename std::list<Key>::iterator>;

  std::list<Key> order_;  // front = LRU, back = MRU
  Index index_;
  std::list<Key> spare_;  // list nodes freed by evict_lru/erase
  std::vector<typename Index::node_type> spare_handles_;
};

}  // namespace dm
