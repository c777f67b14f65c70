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
  heap_.push(Entry{t, next_seq_++, slot, s.gen});
  return make_id(slot, s.gen);
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
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0 || low > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(low - 1);
  const std::uint32_t gen = slots_[slot].gen;
  // An even generation is a free slot: its event ran or was cancelled.
  if (gen % 2 == 0 || gen != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  // The heap entry stays behind; its generation no longer matches, so
  // drop_stale() discards it when it reaches the top.
  release(slot);
  return true;
}

void EventQueue::drop_stale() {
  while (!heap_.empty() && stale(heap_.top())) heap_.pop();
}

TimePoint EventQueue::next_time() {
  drop_stale();
  assert(!heap_.empty());
  return heap_.top().time;
}

EventQueue::Popped EventQueue::pop() {
  drop_stale();
  assert(!heap_.empty());
  const Entry top = heap_.top();
  heap_.pop();
  Popped out{top.time, std::move(slots_[top.slot].fn)};
  release(top.slot);
  return out;
}

}  // namespace ks::sim
