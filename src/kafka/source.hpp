// The upstream streaming-data source a producer pulls from.
//
// Two modes, matching the paper's experiments:
//  - On-demand (emit_interval == 0): the next message is always available
//    when the producer polls — "the highest speed that I/O devices can
//    handle". Records are stamped at pull time.
//  - Real-time (emit_interval > 0): messages are generated on a wall-clock
//    schedule regardless of the producer, buffered in a bounded ring;
//    overruns evict the oldest message (sensor-style), which then counts as
//    lost in the key census because its key never reaches the cluster.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "kafka/record.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace ks::kafka {

/// What a producer needs from its upstream: a pull-based record stream with
/// an end. Source implements it directly (the single-partition path); a
/// PartitionRouter lane implements it per partition on top of one shared
/// Source (the multi-partition path).
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  virtual std::optional<Record> pull() = 0;
  virtual bool exhausted() const noexcept = 0;
};

class Source : public RecordSource {
 public:
  struct Config {
    std::uint64_t total_messages = 100000;  ///< N (the paper uses 1e6).
    Key first_key = 0;  ///< Keys cover [first_key, first_key + N).
    Bytes message_size = 200;               ///< M.
    Bytes size_jitter = 0;                  ///< Uniform +/- jitter on M.
    Duration emit_interval = 0;             ///< 0 => on-demand mode.
    std::size_t buffer_capacity = 5000;     ///< Ring size (real-time mode).
  };

  struct Stats {
    std::uint64_t emitted = 0;        ///< Records handed out or buffered.
    std::uint64_t pulled = 0;
    std::uint64_t overrun_dropped = 0;
  };

  Source(sim::Simulation& sim, Config config);

  /// Real-time mode: begin emission events. No-op in on-demand mode.
  void start();

  /// Producer polls for the next record. Stamps created_at in on-demand
  /// mode; real-time records keep their emission timestamp.
  std::optional<Record> pull() override;

  /// True once all N messages have been emitted and the buffer is drained.
  bool exhausted() const noexcept override;

  /// Total messages this source will ever produce (the census baseline N).
  std::uint64_t total_messages() const noexcept {
    return config_.total_messages;
  }

  std::size_t buffered() const noexcept { return buffer_.size(); }
  const Stats& stats() const noexcept { return stats_; }

  /// Observer fired when a ring overrun evicts a record (its key will count
  /// as lost in the census). Used by the message trace.
  std::function<void(const Record&)> on_overrun;

 private:
  void emit();
  Bytes next_size();

  sim::Simulation& sim_;
  Config config_;
  Rng rng_;
  Key next_key_;
  std::deque<Record> buffer_;
  Stats stats_;

  obs::MetricsBinding metrics_binding_;  ///< Last: reads the members above.
};

}  // namespace ks::kafka
