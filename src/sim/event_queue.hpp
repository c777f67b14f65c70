// Priority queue of timestamped events with stable FIFO ordering among
// events scheduled for the same instant. It holds only pending events:
// cancelling or rescheduling one moves its heap entry in O(log n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ks::sim {

/// A move-only `void()` callable. A callable of up to kInlineBytes that is
/// pointer-aligned and nothrow-movable is stored inline; any other is moved
/// to the heap, one allocation per callable.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  Callback() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                     std::is_invocable_v<D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<D>) {
      emplace<D>(std::forward<F>(f));
    } else {
      emplace<Boxed<D>>(Boxed<D>{std::make_unique<D>(std::forward<F>(f))});
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Destroy the held callable, leaving this empty.
  void reset() noexcept {
    if (ops_) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-construct into `dst` from `src`, then destroy `src`'s callable.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  /// The heap fallback: an owning pointer, which itself fits inline.
  template <class D>
  struct Boxed {
    std::unique_ptr<D> fn;
    void operator()() { (*fn)(); }
  };

  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static D* held(void* buf) noexcept {
    return std::launder(static_cast<D*>(buf));
  }

  template <class D>
  static constexpr Ops kOps{
      [](void* buf) { (*held<D>(buf))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*held<D>(src)));
        held<D>(src)->~D();
      },
      [](void* buf) noexcept { held<D>(buf)->~D(); }};

  template <class D, class Arg>
  void emplace(Arg&& arg) {
    ::new (static_cast<void*>(buf_)) D(std::forward<Arg>(arg));
    ops_ = &kOps<D>;
  }

  void take(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_) ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Handle for cancelling a scheduled event: the event's slot and that
/// slot's generation. Id 0 is never issued.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Enqueue `fn` to run at time `t`. Events at equal `t` run in insertion
  /// order. Returns a handle usable with `cancel` and `reschedule`.
  EventId push(TimePoint t, Callback fn);

  /// Cancel a pending event, removing it and destroying its callable at
  /// once. Returns false if it already ran, was already cancelled, or the
  /// id is unknown.
  bool cancel(EventId id);

  /// Move a pending event to time `t`, keeping its callable and id. It
  /// runs after every event already scheduled at `t`, exactly as if it had
  /// been cancelled and pushed again. Returns false, changing nothing, for
  /// an id that `cancel` would reject.
  bool reschedule(EventId id, TimePoint t);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the earliest pending event. Undefined when empty.
  TimePoint next_time() const;

  /// Pop and return the earliest event. Undefined when empty.
  struct Popped {
    TimePoint time;
    Callback fn;
  };
  Popped pop();

 private:
  /// A scheduled event's callable and the index of its heap entry. `gen`
  /// advances when the slot is taken (to an odd value) and again when it
  /// is freed (to an even one), so ids naming an earlier occupant no
  /// longer match it.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;
  };
  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  /// The slot of the pending event `id` names, or kNoSlot.
  std::uint32_t pending_slot(EventId id) const noexcept;
  void release(std::uint32_t slot);
  void erase_at(std::size_t i);
  /// Put `e` in the heap through the vacant index `hole`, sifting it up
  /// or down to where its key belongs.
  void settle(std::size_t hole, const Entry& e);
  void sift_up(std::size_t hole, const Entry& e);
  void sift_down(std::size_t hole, const Entry& e);
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> heap_;  ///< Binary min-heap on (time, seq).
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ks::sim
