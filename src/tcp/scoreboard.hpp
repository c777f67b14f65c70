// The endpoint's stream bookkeeping in contiguous storage: a set of byte
// ranges (the receiver's out-of-order ranges, the sender's SACK scoreboard),
// the queues of messages riding the stream, ordered by end offset, and the
// FIFO of reassembled messages awaiting a read.
//
// All are vectors that keep their capacity, so once a connection has seen
// its largest window they allocate nothing per segment or per message.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "tcp/segment.hpp"

namespace ks::tcp {

/// Disjoint, non-touching [start, end) ranges in ascending order.
class RangeSet {
 public:
  using const_iterator = std::vector<SackBlock>::const_iterator;

  bool empty() const noexcept { return ranges_.empty(); }
  const_iterator begin() const noexcept { return ranges_.begin(); }
  const_iterator end() const noexcept { return ranges_.end(); }
  const SackBlock& front() const noexcept { return ranges_.front(); }
  void pop_front() { ranges_.erase(ranges_.begin()); }
  void clear() noexcept { ranges_.clear(); }

  /// Add [s, e), merging every range it overlaps or touches.
  void add(StreamOffset s, StreamOffset e) {
    // The first range ending at or after s is the first one to merge.
    auto first = std::lower_bound(
        ranges_.begin(), ranges_.end(), s,
        [](const SackBlock& r, StreamOffset v) { return r.end < v; });
    auto last = first;
    for (; last != ranges_.end() && last->start <= e; ++last) {
      s = std::min(s, last->start);
      e = std::max(e, last->end);
    }
    if (first == last) {
      ranges_.insert(first, SackBlock{s, e});
    } else {
      *first = SackBlock{s, e};
      ranges_.erase(first + 1, last);
    }
  }

  /// Forget everything below `offset`, clipping a range that spans it.
  void trim_below(StreamOffset offset) {
    auto keep = std::upper_bound(
        ranges_.begin(), ranges_.end(), offset,
        [](StreamOffset v, const SackBlock& r) { return v < r.end; });
    ranges_.erase(ranges_.begin(), keep);
    if (!ranges_.empty() && ranges_.front().start < offset) {
      ranges_.front().start = offset;
    }
  }

  /// The first range starting after `offset` (end() if none).
  const_iterator first_starting_after(StreamOffset offset) const {
    return std::upper_bound(
        ranges_.begin(), ranges_.end(), offset,
        [](StreamOffset v, const SackBlock& r) { return v < r.start; });
  }

 private:
  std::vector<SackBlock> ranges_;
};

/// A FIFO in one vector: pop_front advances a head index, and the popped
/// slots are reclaimed once they make up half of the vector, so the queue
/// allocates only when it outgrows its largest size so far.
template <typename T>
class Fifo {
 public:
  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }
  const T* begin() const noexcept { return items_.data() + head_; }
  const T* end() const noexcept { return items_.data() + items_.size(); }
  const T& front() const noexcept { return items_[head_]; }
  const T& back() const noexcept { return items_.back(); }

  void push_back(T v) { items_.push_back(std::move(v)); }
  /// Insert before `pos`, a position in [begin(), end()].
  void insert_before(const T* pos, T v) {
    items_.insert(items_.begin() + (pos - items_.data()), std::move(v));
  }

  /// Remove and return the first entry.
  T pop_front() {
    T v = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }

  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactAt = 32;
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// A message riding the stream: the offset one past its last byte, its
/// opaque payload and its open tcp.flight span (0 = untraced).
struct StreamMessage {
  StreamOffset end = 0;
  std::shared_ptr<const void> payload;
  std::uint64_t flight_span = 0;
};

/// Messages in ascending end order, consumed from the front.
class MessageQueue : public Fifo<StreamMessage> {
 public:
  /// The first message ending after `offset`, or nullptr.
  const StreamMessage* first_ending_after(StreamOffset offset) const {
    const auto* it = std::upper_bound(
        begin(), end(), offset,
        [](StreamOffset v, const StreamMessage& m) { return v < m.end; });
    return it == end() ? nullptr : it;
  }

  /// Insert in end order; a message already queued keeps its entry.
  void insert(StreamMessage m) {
    if (empty() || back().end < m.end) {
      push_back(std::move(m));
      return;
    }
    const auto* at = std::lower_bound(
        begin(), end(), m.end,
        [](const StreamMessage& q, StreamOffset v) { return q.end < v; });
    if (at != end() && at->end == m.end) return;
    insert_before(at, std::move(m));
  }
};

}  // namespace ks::tcp
