// The Kafka consumer: fetches a partition from its leader over TCP and
// hands records to the application in offset order.
//
// The paper's measurement methodology: after the producer finishes, a
// consumer drains the whole topic and the unique keys are compared with the
// source range. drain_until() supports exactly that.
//
// Robustness: lost fetch responses are re-issued with capped exponential
// backoff up to a retry budget (then the consumer stalls rather than
// spinning); leader failover re-points the fetch session at the new
// leader, truncating the position to the new leader's high watermark when
// the old position no longer exists (kOffsetOutOfRange).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "kafka/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulation.hpp"
#include "tcp/endpoint.hpp"

namespace ks::kafka {

class Consumer {
 public:
  struct Config {
    int max_records_per_fetch = 500;
    Duration poll_backoff = millis(20);  ///< Wait when caught up.
    /// Re-issue a fetch whose response never arrived (lost on a flaky
    /// connection or dropped at a full socket).
    Duration fetch_timeout = seconds(2);
    /// Consecutive lost fetches tolerated before the consumer stalls
    /// (bounded re-issue; a response or failover resets the budget).
    int max_fetch_retries = 12;
    /// Cap on the exponential backoff between fetch re-issues.
    Duration fetch_retry_backoff_max = seconds(8);
    Duration reconnect_backoff = millis(100);
  };

  struct Stats {
    std::uint64_t fetches = 0;
    std::uint64_t records = 0;
    Bytes bytes = 0;
    std::uint64_t fetch_retries = 0;      ///< Timed-out fetches re-issued.
    std::uint64_t offset_truncations = 0; ///< Re-pointed below our position.
    std::uint64_t failovers = 0;
    std::uint64_t connection_resets = 0;
  };

  Consumer(sim::Simulation& sim, Config config, tcp::Endpoint& conn,
           std::int32_t partition);

  /// Enable leader failover: `endpoints[i]` is this consumer's connection
  /// to broker i; `leader_of` maps the partition to the current leader
  /// broker index (-1 while offline). Call before start().
  void enable_failover(std::vector<tcp::Endpoint*> endpoints,
                       std::function<int(std::int32_t)> leader_of);

  /// Connect and begin the fetch loop from offset 0.
  void start();

  /// Stop once the consumer's offset reaches `target_offset` (typically the
  /// partition's log-end offset after the producer finished); fires
  /// on_drained.
  void drain_until(std::int64_t target_offset);

  std::function<void(const FetchedRecord&)> on_record;
  std::function<void()> on_drained;

  std::int64_t position() const noexcept { return next_offset_; }
  /// Retry budget exhausted; the fetch loop gave up.
  bool stalled() const noexcept { return stalled_; }
  const Stats& stats() const noexcept { return stats_; }

 private:
  void fetch();
  void handle_frame(std::shared_ptr<const void> payload);
  void handle_fetch_timeout();
  void handle_reset(tcp::Endpoint* endpoint);
  void maybe_failover();
  void finish_if_drained();

  sim::Simulation& sim_;
  Config config_;
  tcp::Endpoint* active_;
  std::int32_t partition_;
  std::vector<tcp::Endpoint*> endpoints_;  ///< Failover set (may be empty).
  std::function<int(std::int32_t)> leader_lookup_;
  std::int64_t next_offset_ = 0;
  std::int64_t drain_target_ = -1;
  std::uint64_t next_request_id_ = 1;
  bool fetch_outstanding_ = false;
  std::uint64_t outstanding_request_id_ = 0;
  obs::SpanId fetch_span_ = 0;  ///< Open consumer.fetch span.
  int consecutive_retries_ = 0;
  bool stalled_ = false;
  bool done_ = false;
  bool reconnect_pending_ = false;
  sim::Timer poll_timer_;
  sim::Timer fetch_timeout_timer_;
  Stats stats_;

  obs::MetricsBinding metrics_binding_;  ///< Last: reads the members above.
};

}  // namespace ks::kafka
