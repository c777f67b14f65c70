// The one bounded ring behind every obs recorder (MessageTrace,
// SpanTracer, ClusterTimeline, TimeSeries and the health monitor's sliding
// windows).
//
// It grows by push_back up to its capacity, then overwrites the oldest
// entry and counts the eviction, so a misbehaving run can never blow up
// memory. Storage grows with use: nothing is allocated up front unless the
// owner asks for it with reserve(), which is capped at the capacity.
// Indexing is oldest-first; back() is the newest entry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ks::obs {

template <typename T>
class Ring {
 public:
  /// Capacity 0 is treated as 1.
  explicit Ring(std::size_t capacity = 1)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  /// Pre-allocate room for min(n, capacity) entries.
  void reserve(std::size_t n) { items_.reserve(std::min(n, capacity_)); }

  /// Append `v`; when full, overwrite the oldest entry and count it.
  void push_back(T v) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(v));
      return;
    }
    items_[head_] = std::move(v);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++evicted_;
  }

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Entries overwritten since construction or the last clear().
  std::uint64_t evicted() const noexcept { return evicted_; }

  /// The i-th retained entry, oldest first (i < size()).
  const T& operator[](std::size_t i) const noexcept {
    return items_[slot(i)];
  }
  T& operator[](std::size_t i) noexcept { return items_[slot(i)]; }

  /// The newest entry (requires !empty()).
  const T& back() const noexcept { return (*this)[items_.size() - 1]; }
  T& back() noexcept { return (*this)[items_.size() - 1]; }

  /// Retained entries, oldest first.
  std::vector<T> to_vector() const {
    if (head_ == 0) return items_;
    std::vector<T> out;
    out.reserve(items_.size());
    out.insert(out.end(), items_.begin() + static_cast<std::ptrdiff_t>(head_),
               items_.end());
    out.insert(out.end(), items_.begin(),
               items_.begin() + static_cast<std::ptrdiff_t>(head_));
    return out;
  }

  /// Drop every entry and reset the eviction count; keeps the capacity.
  void clear() noexcept {
    items_.clear();
    head_ = 0;
    evicted_ = 0;
  }

 private:
  /// Storage slot of the i-th oldest entry; head_ is the oldest once the
  /// ring has wrapped and 0 before.
  std::size_t slot(std::size_t i) const noexcept {
    const std::size_t j = head_ + i;
    return j < items_.size() ? j : j - items_.size();
  }

  std::vector<T> items_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace ks::obs
