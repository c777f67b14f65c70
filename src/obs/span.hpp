// Causal span tracing: parent-linked intervals over the Fig. 2 lifecycle.
//
// A span is one timed stage of a record's journey (produce attempt, TCP
// flight, broker append, commit wait, replica append, fetch, delivery).
// Spans link to their parent, so the full causal chain
//   produce.batch -> produce.attempt -> {tcp.flight, broker.append ->
//   broker.commit_wait} -> consumer.fetch -> consumer.deliver
// can be reassembled after the run and exported as a Chrome/Perfetto
// trace-event timeline.
//
// Discipline mirrors MessageTrace: root spans are sampled by key
// (key % sample_every == 0), completed spans live in an obs::Ring that
// overwrites oldest-first, and a disabled tracer costs one
// branch per call site. A child span is recorded iff its parent was:
// child() returns 0 for parent 0 (SpanId 0 = "not recorded"), so the rule
// holds in one place and an unsampled key costs one branch at each stage
// below its root, with nothing recorded or allocated.
//
// All timestamps are sim-time; the tracer holds no host state, which is
// what keeps exports byte-identical across replays.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "obs/ring.hpp"

namespace ks::obs {

/// Identifier of a recorded span. 0 means "not recorded": every API here
/// accepts 0 and does nothing, so call sites need no sampling checks.
using SpanId = std::uint64_t;

/// Key value for spans that are not tied to one message (consumer fetches,
/// control-plane work). kNoKey roots bypass key sampling: they are recorded
/// whenever the tracer is enabled, so keep them low-rate.
inline constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// Stages of the message lifecycle a span can cover.
enum class SpanKind : std::uint8_t {
  kProduceBatch = 0,  ///< Batch lifetime: first send until resolved.
  kProduceAttempt,    ///< One wire attempt of a batch.
  kTcpFlight,         ///< App message accepted by TCP until reassembled.
  kBrokerAppend,      ///< Broker produce service: dequeue to append/reject.
  kCommitWait,        ///< acks=all park: append until HW passes the batch.
  kReplicaAppend,     ///< Record materialized on a follower replica.
  kBrokerFetch,       ///< Broker fetch service for a consumer.
  kConsumerFetch,     ///< Consumer fetch round-trip.
  kDeliver,           ///< Record handed to the consumer application.
};

const char* to_string(SpanKind k) noexcept;

/// Perfetto track ("tid") assignments, one lane per actor.
inline constexpr std::int32_t kTrackControl = 0;
inline constexpr std::int32_t kTrackProducer = 1;
inline constexpr std::int32_t kTrackConsumer = 2;
inline constexpr std::int32_t kTrackNet = 3;
constexpr std::int32_t broker_track(std::int32_t broker_id) noexcept {
  return 10 + broker_id;
}

struct Span {
  SpanId id = 0;
  SpanId parent = 0;          ///< 0 = root (or parent evicted from the ring).
  std::uint64_t key = kNoKey; ///< Message key; inherited from parent if open.
  SpanKind kind = SpanKind::kProduceBatch;
  std::int32_t track = kTrackControl;
  std::int64_t detail = 0;    ///< Kind-specific: attempt #, offset, -error.
  TimePoint begin = 0;
  TimePoint end = 0;
};

class SpanTracer {
 public:
  /// sample_every == 0 disables the tracer entirely (default).
  explicit SpanTracer(std::size_t capacity = 0, std::uint64_t sample_every = 0);

  /// Re-arm with new capacity/sampling; discards any recorded state.
  void configure(std::size_t capacity, std::uint64_t sample_every);

  bool enabled() const noexcept { return sample_every_ != 0; }
  bool sampled(std::uint64_t key) const noexcept {
    return sample_every_ != 0 &&
           (key == kNoKey || key % sample_every_ == 0);
  }

  /// Open a root span, recorded iff `key` is sampled; returns 0 when
  /// nothing was recorded. Roots only: a stage below a root opens its span
  /// with child(). `no_parent` must be 0; it keeps the argument order of
  /// callers that pass (0, key), perfbench's span driver among them.
  /// Inline, so that a disabled tracer costs its call sites one branch.
  SpanId begin(TimePoint t, SpanKind kind, std::int32_t track,
               [[maybe_unused]] SpanId no_parent = 0,
               std::uint64_t key = kNoKey, std::int64_t detail = 0) {
    assert(no_parent == 0);
    if (sample_every_ == 0) return 0;
    return record(t, kind, track, 0, key, detail);
  }

  /// Open a child of `parent` that inherits its key, or nothing (0) when
  /// the parent was not recorded: the one check behind "a child is
  /// recorded iff its parent was".
  SpanId child(TimePoint t, SpanKind kind, std::int32_t track, SpanId parent,
               std::int64_t detail = 0) {
    if (parent == 0) return 0;
    return record(t, kind, track, parent, kNoKey, detail);
  }

  /// Close a span (no-op for id 0 / unknown ids). The variant with
  /// `detail` overwrites the value given at begin().
  void end(TimePoint t, SpanId id) {
    if (id != 0) close(t, id);
  }
  void end(TimePoint t, SpanId id, std::int64_t detail);

  /// Discard an open span that turned out not to happen (e.g. a produce
  /// attempt whose send was refused by a full socket buffer).
  void cancel(SpanId id);

  /// Close every still-open span at `t` (call before export so spans
  /// orphaned by connection resets or in-flight shutdown get an end).
  void close_open(TimePoint t);

  std::size_t open_count() const noexcept { return open_.size(); }
  std::uint64_t started() const noexcept { return started_; }
  std::uint64_t dropped() const noexcept { return ring_.evicted(); }
  std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// Completed spans, oldest first. Spans whose parent was evicted from
  /// the ring (or never closed) are promoted to roots (parent = 0), so the
  /// result is always a well-formed forest: every nonzero parent exists.
  std::vector<Span> spans() const;

 private:
  SpanId record(TimePoint t, SpanKind kind, std::int32_t track,
                SpanId parent, std::uint64_t key, std::int64_t detail);
  void close(TimePoint t, SpanId id);

  std::map<SpanId, Span> open_;  ///< Keyed by id; ids are monotonic.
  Ring<Span> ring_;
  std::uint64_t sample_every_ = 0;
  SpanId next_id_ = 1;
  std::uint64_t started_ = 0;
};

}  // namespace ks::obs
