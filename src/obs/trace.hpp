// Bounded per-message lifecycle trace (the paper's Fig. 2 transitions).
//
// Records (time, key, event, detail) tuples for a configurable sample of
// keys into an obs::Ring: when full, the oldest entries are overwritten
// and counted as dropped, so a misbehaving run can never blow up memory.
// Queryable post-run to answer "what happened to message k?".
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/ring.hpp"

namespace ks::obs {

/// Fig. 2 lifecycle events plus the pre-send hazards the census exposes.
enum class TraceEvent : std::uint8_t {
  kOverrun = 0,     ///< Evicted from the source ring before pull.
  kSendAttempt,     ///< First produce attempt (transition I/II).
  kRetry,           ///< Re-sent after timeout/reset (III).
  kAppended,        ///< Persisted by a broker (I/IV; again => duplicate, VI).
  kAcked,           ///< Delivery report reached the producer.
  kExpired,         ///< T_o elapsed in the accumulator.
  kFailed,          ///< Retries exhausted / expired in flight.
  kFetched,         ///< Read from a broker log by the consumer.
  kDelivered,       ///< First delivery to the consumer application (V).
  kDupDetected,     ///< Same key delivered again (VI, consumer-visible).
};

const char* to_string(TraceEvent e) noexcept;

class MessageTrace {
 public:
  struct Entry {
    TimePoint t = 0;
    std::uint64_t key = 0;
    TraceEvent event = TraceEvent::kOverrun;
    std::int32_t detail = 0;  ///< Attempt number, broker id, ... per event.
  };

  /// Record keys where key % sample_every == 0, at most `capacity` entries
  /// retained (ring). sample_every == 0 disables the trace entirely.
  explicit MessageTrace(std::size_t capacity = 4096,
                        std::uint64_t sample_every = 1);

  bool enabled() const noexcept { return sample_every_ != 0; }
  bool sampled(std::uint64_t key) const noexcept {
    return sample_every_ != 0 && key % sample_every_ == 0;
  }

  /// Record one transition; no-op unless `key` is sampled.
  void record(TimePoint t, std::uint64_t key, TraceEvent event,
              std::int32_t detail = 0);

  std::size_t size() const noexcept { return ring_.size(); }
  std::uint64_t recorded() const noexcept { return recorded_; }
  std::uint64_t dropped() const noexcept { return ring_.evicted(); }
  std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// All retained entries in record order (oldest first).
  std::vector<Entry> entries() const { return ring_.to_vector(); }

  /// The retained lifecycle of one key, in record order.
  std::vector<Entry> events_for(std::uint64_t key) const;

 private:
  Ring<Entry> ring_;
  std::uint64_t sample_every_;
  std::uint64_t recorded_ = 0;
};

}  // namespace ks::obs
