// Priority queue of timestamped events with stable FIFO ordering among
// events scheduled for the same instant, plus O(1) cancellation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
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
  /// order. Returns a handle usable with `cancel`.
  EventId push(TimePoint t, Callback fn);

  /// Cancel a pending event, destroying its callable at once. Returns false
  /// if it already ran, was already cancelled, or the id is unknown.
  bool cancel(EventId id);

  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept { return slots_.size() - free_.size(); }

  /// Time of the earliest pending event. Undefined when empty.
  TimePoint next_time();

  /// Pop and return the earliest event. Undefined when empty.
  struct Popped {
    TimePoint time;
    Callback fn;
  };
  Popped pop();

  std::uint64_t total_pushed() const noexcept { return next_seq_; }

 private:
  /// A scheduled event's callable. `gen` advances when the slot is taken
  /// (to an odd value) and again when it is freed (to an even one), so ids
  /// and heap entries naming an earlier occupant no longer match it.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
  };
  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    bool operator>(const Entry& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  bool stale(const Entry& e) const noexcept {
    return slots_[e.slot].gen != e.gen;
  }
  void release(std::uint32_t slot);
  void drop_stale();

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ks::sim
