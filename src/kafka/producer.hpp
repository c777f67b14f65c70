// The Kafka producer: the paper's protagonist.
//
// Responsibilities and the configuration features the paper studies:
//  - polling the upstream source every delta (polling interval, Fig. 6);
//  - serialization (service rate mu depends on message size M, Fig. 4);
//  - the record accumulator with per-record message timeout T_o (Fig. 5);
//  - batching: up to B records per produce request (Figs. 7, 8);
//  - delivery semantics: acks, retries, request timeout, in-flight cap
//    (Figs. 4, 7) and idempotence (exactly-once extension);
//  - reaction to TCP connection resets (silent loss under acks=0; request
//    retry under acks>=1).
//
// Admission policy: an acks=0 application gets no delivery feedback, so it
// floods its (deep) local queue at source speed; an acks>=1 application
// naturally paces itself on delivery reports (a bounded window of
// unresolved records). Both policies are available on any configuration;
// the semantics presets pick the realistic pairing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "kafka/protocol.hpp"
#include "obs/metrics.hpp"
#include "kafka/record.hpp"
#include "kafka/source.hpp"
#include "sim/simulation.hpp"
#include "tcp/endpoint.hpp"

namespace ks::kafka {

enum class DeliverySemantics { kAtMostOnce, kAtLeastOnce, kExactlyOnce };

enum class AdmissionPolicy {
  kFlood,     ///< Pull at full speed while the local queue has room.
  kAckPaced,  ///< Pull only while unresolved records < ack_window.
};

const char* to_string(DeliverySemantics s) noexcept;

/// Decorrelated-jitter retry backoff (capped exponential): returns a value
/// in [base, min(cap, max(base, prev * 3))], advancing `state` (a SplitMix64
/// stream, so the sequence is deterministic per producer). prev == 0 means
/// first retry.
Duration next_retry_backoff(std::uint64_t& state, Duration base,
                            Duration prev, Duration cap);

struct ProducerConfig {
  DeliverySemantics semantics = DeliverySemantics::kAtLeastOnce;
  Acks acks = Acks::kLeader;
  int retries = 5;                        ///< tau_r in the paper.
  /// Retry backoff: capped exponential with decorrelated jitter —
  /// retry_backoff is the floor, retry_backoff_max the cap.
  Duration retry_backoff = millis(50);
  Duration retry_backoff_max = millis(1000);
  Duration message_timeout = millis(1500);  ///< T_o.
  Duration request_timeout = seconds(5);
  int max_in_flight = 5;
  int batch_size = 1;                     ///< B, records per request (cap).
  Duration linger = 0;                    ///< Wait to fill a batch.
  std::size_t max_queued_records = 100000;
  AdmissionPolicy admission = AdmissionPolicy::kFlood;
  std::size_t ack_window = 1000;          ///< kAckPaced unresolved cap.
  Duration poll_interval = 0;             ///< delta; 0 = as fast as possible.
  /// Serialization cost per message: base + per_byte * M. Determines the
  /// producer-side service rate mu(M).
  Duration serialize_base = micros(150);
  double serialize_per_byte_us = 0.5;
  bool enable_idempotence = false;
  std::uint64_t producer_id = 1;          ///< Used when idempotent.
  Duration reconnect_backoff = millis(100);
  Duration expiry_scan_interval = millis(100);

  /// Semantics presets matching the paper's three delivery modes.
  static ProducerConfig at_most_once();
  static ProducerConfig at_least_once();
  static ProducerConfig exactly_once();
  static ProducerConfig for_semantics(DeliverySemantics s);
};

struct ProducerStats {
  std::uint64_t pulled = 0;
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t expired = 0;           ///< T_o exceeded in the accumulator.
  std::uint64_t requests_sent = 0;     ///< Includes retries.
  std::uint64_t records_sent = 0;      ///< Record-sends incl. retries.
  std::uint64_t records_written = 0;   ///< acks=0 socket writes (fire&forget).
  std::uint64_t records_acked = 0;
  std::uint64_t records_failed = 0;    ///< Retries exhausted / expired late.
  std::uint64_t request_timeouts = 0;
  std::uint64_t requests_retried = 0;
  std::uint64_t responses = 0;
  std::uint64_t connection_resets = 0;
  std::uint64_t not_leader_errors = 0;  ///< kNotLeaderForPartition responses.
  std::uint64_t not_enough_replicas_errors = 0;
  std::uint64_t out_of_order_errors = 0;  ///< Sequence-gap rejections.
  /// Hard sequence gaps (acked batches lost to an unclean election) healed
  /// by bumping the idempotent producer id and re-sequencing from 0.
  std::uint64_t sequence_epoch_bumps = 0;
  std::uint64_t failovers = 0;          ///< Switched to a new leader.
  std::uint64_t metadata_refreshes = 0;
  LatencyHistogram queue_sojourn;      ///< Accumulator wait of sent records.
  LatencyHistogram ack_latency;        ///< Enqueue -> ack (acks>=1).
};

class Producer {
 public:
  Producer(sim::Simulation& sim, ProducerConfig config, tcp::Endpoint& conn,
           RecordSource& source, std::int32_t partition = 0);

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Enable leader failover (replicated clusters). `endpoints[i]` is this
  /// producer's connection to broker i; `leader_of` maps the partition to
  /// the current leader broker index (-1 while offline). On
  /// kNotLeaderForPartition responses, request timeouts and connection
  /// resets the producer refreshes metadata and reconnects to the new
  /// leader; retried batches keep their idempotent sequence numbers, so
  /// failover is duplicate-safe under exactly-once. Call before start().
  void enable_failover(std::vector<tcp::Endpoint*> endpoints,
                       std::function<int(std::int32_t)> leader_of);

  /// Connect and begin polling the source.
  void start();

  /// All source records resolved (delivered / failed / expired / dropped)?
  bool finished() const noexcept { return finished_; }

  /// Fired once when finished() first becomes true.
  std::function<void()> on_finished;

  // Observer hooks for the message-state tracker (Fig. 2 / Table I).
  std::function<void(const Record&, int attempt)> on_send_attempt;
  std::function<void(const Record&)> on_record_expired;
  std::function<void(const Record&)> on_record_failed;
  std::function<void(const Record&)> on_record_acked;

  const ProducerStats& stats() const noexcept { return stats_; }
  const ProducerConfig& config() const noexcept { return config_; }
  /// The broker connection currently in use (changes on failover).
  const tcp::Endpoint& connection() const noexcept { return *active_; }
  std::size_t queued_records() const noexcept { return queue_.size(); }
  std::size_t in_flight_requests() const noexcept {
    return in_flight_count_;
  }

  /// Live-reconfigure batching/timeout parameters (dynamic configuration).
  /// Matching the paper's note that Kafka needs a producer restart for most
  /// parameters, semantics/acks changes require a new Producer; batch size,
  /// linger, poll interval and timeouts can be adjusted in place.
  void reconfigure(int batch_size, Duration linger, Duration poll_interval,
                   Duration message_timeout);

 private:
  /// A batch stays intact across attempts (preserving idempotent sequence
  /// numbers) and is resolved by a response to ANY of its attempts — a
  /// late ack for a timed-out attempt still counts, which prevents
  /// timeout/retry livelock under congestion.
  struct BatchState {
    ProduceRequest request;   ///< Current attempt's content.
    std::vector<std::uint64_t> attempt_ids;
    TimePoint sent_at = 0;    ///< Last attempt's send time.
    int attempt = 0;          ///< Attempts sent so far.
    bool awaiting_retry = false;  ///< Queued for re-send (backoff).
    TimePoint ready_at = 0;       ///< Earliest re-send time.
    Duration prev_backoff = 0;    ///< Decorrelated-jitter state.
    obs::SpanId span = 0;         ///< produce.batch root span.
    obs::SpanId attempt_span = 0; ///< Open span of the in-flight attempt.
  };

  void schedule_poll(Duration delay);
  void poll();
  bool admission_open() const noexcept;
  void enqueue(Record record);
  void try_send();
  void handle_frame(std::shared_ptr<const void> payload);
  void handle_response(const ProduceResponse& response);
  void arm_timeout_scan();
  void arm_expiry_scan();
  void scan_request_timeouts();
  /// Queue a batch for retry, or fail its records when attempts/T_o are
  /// exhausted.
  void retry_or_fail(std::uint64_t batch_id);
  /// Resolve a batch as acknowledged; `response_id` names the attempt.
  void resolve_batch(std::uint64_t batch_id);
  bool send_batch(std::uint64_t batch_id);
  void expire_queue_front();
  void handle_reset(tcp::Endpoint* endpoint);
  /// React to a sequence-gap rejection: retry in order if an earlier batch
  /// is still pending, otherwise bump the idempotent epoch and re-sequence.
  void handle_out_of_order(std::uint64_t batch_id);
  /// Refresh metadata and, when the leader moved, switch connections.
  void maybe_failover();
  void maybe_finish();
  void resolve_records(std::uint64_t count) noexcept;
  std::size_t batches_in_flight() const noexcept {
    return in_flight_count_;
  }
  bool record_expired(const Record& r) const noexcept {
    return sim_.now() - r.created_at >= config_.message_timeout;
  }

  sim::Simulation& sim_;
  ProducerConfig config_;
  tcp::Endpoint* active_;  ///< Current broker connection.
  RecordSource& source_;
  std::int32_t partition_;
  std::vector<tcp::Endpoint*> endpoints_;  ///< Failover set (may be empty).
  std::function<int(std::int32_t)> leader_lookup_;
  std::uint64_t jitter_state_;  ///< Decorrelated-jitter SplitMix64 stream.
  /// Idempotent producer identity; bumped when a hard sequence gap forces a
  /// re-sequencing (the InitProducerId-after-fatal analog).
  std::uint64_t effective_producer_id_;

  std::deque<Record> queue_;            ///< The record accumulator.
  /// Unacknowledged batches by batch id (in flight or awaiting retry).
  std::unordered_map<std::uint64_t, BatchState> batches_;
  /// Request id (per attempt) -> batch id, for response correlation.
  std::unordered_map<std::uint64_t, std::uint64_t> request_to_batch_;
  /// Batches awaiting their retry backoff, in retry order.
  std::deque<std::uint64_t> retry_order_;
  /// Batches sent and not yet timed out / resolved / queued for retry.
  std::size_t in_flight_count_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t next_batch_id_ = 1;
  std::int64_t next_sequence_ = 0;      ///< Idempotent producer sequence.
  std::uint64_t unresolved_ = 0;        ///< Pulled but not yet resolved.
  TimePoint batch_wait_start_ = 0;      ///< Linger reference point.
  bool source_done_ = false;
  bool finished_ = false;
  bool reconnect_pending_ = false;
  sim::Timer poll_timer_;
  sim::Timer linger_timer_;
  sim::Timer timeout_scan_timer_;
  sim::Timer expiry_timer_;
  sim::Timer retry_timer_;
  ProducerStats stats_;

  // ---- observability (mirrors stats_ and queue depths at collect time) ----
  obs::Counter m_pulled_, m_expired_, m_requests_sent_, m_requests_retried_;
  obs::Counter m_request_timeouts_, m_records_acked_, m_records_failed_;
  obs::Counter m_resets_, m_dropped_queue_full_;
  obs::Counter m_not_leader_, m_failovers_;
  obs::Gauge m_accumulator_, m_in_flight_, m_unresolved_;
  obs::Histogram m_queue_sojourn_, m_ack_latency_;
  obs::CollectorHandle metrics_collector_;
};

}  // namespace ks::kafka
