#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace ks::sim {

namespace {

// An id packs the slot's generation above the slot index plus one, so a
// valid id is never 0.
EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (std::uint64_t{gen} << 32) | (std::uint64_t{slot} + 1);
}

}  // namespace

EventId EventQueue::push(TimePoint t, Callback fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  ++s.gen;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{t, next_seq_++, slot});
  return make_id(slot, s.gen);
}

std::uint32_t EventQueue::pending_slot(EventId id) const noexcept {
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0 || low > slots_.size()) return kNoSlot;
  const auto slot = static_cast<std::uint32_t>(low - 1);
  const std::uint32_t gen = slots_[slot].gen;
  // An even generation is a free slot: its event ran or was cancelled.
  if (gen % 2 == 0 || gen != static_cast<std::uint32_t>(id >> 32)) {
    return kNoSlot;
  }
  return slot;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Free the slot before destroying the callable: its destructor may
  // schedule or cancel events, which can reallocate slots_.
  Callback dead = std::move(s.fn);
  ++s.gen;
  free_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNoSlot) return false;
  erase_at(slots_[slot].pos);
  release(slot);
  return true;
}

bool EventQueue::reschedule(EventId id, TimePoint t) {
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNoSlot) return false;
  // A fresh seq, as a push would take: the event runs after every event
  // already scheduled at `t`.
  settle(slots_[slot].pos, Entry{t, next_seq_++, slot});
  return true;
}

TimePoint EventQueue::next_time() const {
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  assert(!heap_.empty());
  const Entry top = heap_.front();
  erase_at(0);
  Popped out{top.time, std::move(slots_[top.slot].fn)};
  release(top.slot);
  return out;
}

void EventQueue::erase_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) settle(i, last);
}

void EventQueue::settle(std::size_t hole, const Entry& e) {
  if (hole > 0 && before(e, heap_[(hole - 1) / 2])) {
    sift_up(hole, e);
  } else {
    sift_down(hole, e);
  }
}

void EventQueue::sift_up(std::size_t hole, const Entry& e) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(hole, heap_[parent]);
    hole = parent;
  }
  place(hole, e);
}

void EventQueue::sift_down(std::size_t hole, const Entry& e) {
  // Walk the hole down along the earlier children to a leaf, then sift `e`
  // up from there (Floyd). A popped heap's last entry and a re-armed
  // timeout both belong near the bottom, so this takes about one
  // comparison per level instead of two. `e` never rises past the
  // starting hole: settle() sifts down only when the hole's parent, and
  // so each ancestor, comes before `e`.
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    place(hole, heap_[child]);
    hole = child;
  }
  sift_up(hole, e);
}

}  // namespace ks::sim
