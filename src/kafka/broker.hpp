// A Kafka broker: owns partition logs, serves produce and fetch requests
// arriving over TCP connections, and acknowledges according to the
// request's acks level.
//
// The broker is modelled as a single-server queue across its connections
// (one network/request-handler thread). Its service rate is modulated by a
// two-state Markov regime (Good/Bad) standing in for the GC and log-flush
// stalls a real JVM broker exhibits under load — the cause of the heavy
// sojourn-time tails the paper observes at full load (Figs. 5 and 6).
// While the broker is busy or stalled it does not read from its sockets,
// so TCP flow control pushes back on producers exactly as in a real
// deployment.
//
// Replication: for replicated partitions the broker is either the leader
// (tracking per-follower fetch progress, the ISR set with
// replica.lag.time.max eviction, and the high watermark = min ISR log end)
// or a follower (running a fetch session against the leader over the
// inter-broker links). acks=all produce responses are parked until the
// high watermark passes the batch; min.insync.replicas gates acceptance.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "kafka/log.hpp"
#include "kafka/protocol.hpp"
#include "kafka/storage.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/modulator.hpp"
#include "sim/simulation.hpp"
#include "tcp/endpoint.hpp"

namespace ks::kafka {

class Broker {
 public:
  struct Config {
    int id = 0;
    /// Fixed cost to parse/validate/route one request.
    Duration request_overhead = micros(150);
    /// Per-byte cost of appending a produce batch (memcpy + page cache).
    double append_per_byte_us = 0.004;
    /// Fixed cost of serving one fetch.
    Duration fetch_overhead = micros(100);
    double fetch_per_byte_us = 0.001;
    /// Response size cap (fetch.max.bytes); also keeps responses inside
    /// the TCP send buffer.
    Bytes fetch_max_bytes = 48 * 1024;
    /// Service-time multiplier while in the Bad regime.
    double bad_slowdown = 30.0;
    /// GC / log-flush stall regime. Disabled => always Good.
    sim::TwoStateModulator::Config regime{
        .mean_good = millis(900), .mean_bad = millis(450), .enabled = false};

    // ---- replication (effective only for replicated partitions) ----
    /// A follower that has not been caught up to the log end for this long
    /// is evicted from the ISR (replica.lag.time.max.ms analog, scaled to
    /// sim run lengths).
    Duration replica_lag_time_max = millis(300);
    /// Follower poll interval when caught up (stands in for fetch long-poll
    /// wait; kept short so steady-state replication lag is ~one RTT).
    Duration replica_fetch_interval = micros(500);
    /// Re-issue a replica fetch whose response never arrived.
    Duration replica_fetch_timeout = millis(150);
    /// Pause between follower session reconnect attempts.
    Duration replica_reconnect_backoff = millis(50);

    /// Durable-storage model shared by every partition directory on this
    /// broker. Default knobs add no service time and no randomness.
    StorageConfig storage;
  };

  struct Stats {
    std::uint64_t produce_requests = 0;
    std::uint64_t fetch_requests = 0;
    std::uint64_t records_appended = 0;
    std::uint64_t batches_deduplicated = 0;
    Bytes bytes_appended = 0;
    // ---- replication ----
    std::uint64_t replica_fetches_served = 0;   ///< Leader side.
    std::uint64_t replica_records_appended = 0; ///< Follower side.
    std::uint64_t not_leader_responses = 0;
    std::uint64_t not_enough_replicas = 0;
    std::uint64_t out_of_order_rejections = 0;  ///< Producer sequence gaps.
    std::uint64_t isr_shrinks = 0;
    std::uint64_t isr_expands = 0;
    std::uint64_t follower_truncations = 0;
    std::uint64_t truncated_records = 0;  ///< Entries dropped by truncations.
    // ---- durable storage / crash recovery ----
    std::uint64_t power_losses = 0;
    std::uint64_t recovery_scans = 0;       ///< Per-partition scans run.
    std::uint64_t records_recovered = 0;
    std::uint64_t records_discarded = 0;    ///< Lost to the crash, total.
    std::uint64_t torn_tails = 0;
    std::uint64_t corrupt_batches = 0;
    /// Recovery scans that disagreed with storage ground truth — any
    /// nonzero value is a recovery bug (durable-recovery-prefix).
    std::uint64_t recovery_prefix_violations = 0;
    Duration recovery_scan_time = 0;        ///< Modeled scan time, summed.
  };

  Broker(sim::Simulation& sim, Config config);

  /// Begin regime modulation (no-op if the regime is disabled).
  void start();

  /// Fail-stop outage injection: while down the broker stops reading and
  /// serving its sockets, so clients see stalled requests and TCP
  /// backpressure (request timeouts drive their failover). resume()
  /// continues service; partition roles are re-synced by the cluster
  /// controller.
  void fail();
  void resume();
  bool is_down() const noexcept { return down_; }

  /// Hard crash (power cut), distinct from fail(): besides going down, all
  /// volatile state is lost — in-memory logs, producer dedup state, parked
  /// acks, fetch sessions. Disk keeps what was flushed or written back,
  /// possibly with a torn tail on each partition's in-flight batch.
  /// Returns the records dropped from disk across partitions.
  std::int64_t power_loss(bool torn_write);
  bool powered_off() const noexcept { return powered_off_; }

  /// Recovery scan on hard restart: rebuild every partition log from its
  /// storage's surviving prefix (CRC validation, torn-tail truncation,
  /// dedup + HW-checkpoint rebuild), record timeline events and return the
  /// total modeled scan time. The broker stays down; callers resume() it
  /// once the scan time has elapsed.
  Duration recover_storage();

  /// Latent bit-flip fault: corrupt one durable batch on one partition,
  /// both chosen deterministically from `pick`. Detected (and truncated)
  /// only by the next recovery scan.
  bool corrupt_disk(std::uint64_t pick);

  /// Slow/stalled-disk fault: flushes until now + `window` cost
  /// storage.stall_factor more.
  void stall_flushes(Duration window);

  /// acks=all produce responses currently parked awaiting the high
  /// watermark, summed across hosted partitions (health-probe input; the
  /// kafka_broker_parked_acks gauge reads the same sum).
  std::int64_t parked_acks() const noexcept;

  StorageDevice& storage_device() noexcept { return storage_device_; }
  const StorageDevice& storage_device() const noexcept {
    return storage_device_;
  }

  /// Create (or get) the log for a partition hosted on this broker. A
  /// standalone partition (no become_leader/become_follower call) is led by
  /// this broker, unreplicated — the pre-replication behaviour.
  PartitionLog& create_partition(std::int32_t partition);
  PartitionLog* partition(std::int32_t partition);
  const PartitionLog* partition(std::int32_t partition) const;

  /// Register a server-side TCP endpoint as a client connection. The broker
  /// paces its reads (manual-read mode), which is what backpressures
  /// flooding producers.
  void attach(tcp::Endpoint& endpoint);

  // ---- replication wiring (called by the Cluster) -------------------------

  /// Client-side endpoint this broker uses to fetch from peer `broker_id`.
  void set_peer(int broker_id, tcp::Endpoint* endpoint);

  /// Controller decision: lead `partition` at `epoch` with the given
  /// replica/ISR sets and the min.insync.replicas gate.
  void become_leader(std::int32_t partition, std::int32_t epoch,
                     const std::vector<int>& replicas,
                     const std::vector<int>& isr, int min_insync_replicas);

  /// Controller decision: follow `leader_id` (or -1 = partition offline).
  /// Truncates the local log to its high watermark (the Kafka follower
  /// reconciliation rule) and starts the fetch session.
  void become_follower(std::int32_t partition, int leader_id,
                       std::int32_t epoch);

  /// Controller-side ISR shrink on broker fail-stop detection: drop
  /// `broker_id` from the ISR of a partition this broker leads.
  void controller_remove_from_isr(std::int32_t partition, int broker_id);

  bool is_leader(std::int32_t partition) const;
  std::vector<int> isr_of(std::int32_t partition) const;

  const Stats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }

  /// Observer invoked for every leader-side record append: (partition,
  /// record, offset). Used by the message-state tracker and the
  /// per-(broker, partition) offset-contiguity watch. Replica appends do
  /// not fire it (they would double-count Fig. 2 append transitions).
  std::function<void(std::int32_t, const Record&, std::int64_t)> on_append;
  /// (partition, isr, shrink) after every leader-side ISR change.
  std::function<void(std::int32_t, const std::vector<int>&, bool)>
      on_isr_change;
  /// (partition, high_watermark) after every leader-side HW advance.
  std::function<void(std::int32_t, std::int64_t)> on_high_watermark;

 private:
  struct FollowerProgress {
    std::int64_t fetched_to = 0;   ///< Replicated up to (exclusive).
    TimePoint caught_up_at = 0;    ///< Last time fetched_to == log end.
    bool in_isr = true;
    bool fetched_once = false;
  };

  struct PendingAck {
    std::int64_t upto = 0;  ///< Respond once high_watermark >= upto.
    tcp::Endpoint* endpoint = nullptr;
    ProduceResponse response;
    obs::SpanId span = 0;      ///< broker.commit_wait (0 = untraced).
  };

  struct PartitionState {
    std::unique_ptr<PartitionLog> log;
    bool leader = true;
    int leader_id = -1;
    std::int32_t epoch = 0;
    int min_insync = 1;
    std::vector<int> replicas;            ///< Empty => unreplicated.
    std::map<int, FollowerProgress> followers;  ///< Leader side, by id.
    std::vector<PendingAck> pending_acks;       ///< acks=all awaiting HW.
    // Follower-side fetch session.
    bool fetch_outstanding = false;
    std::uint64_t fetch_request_id = 0;
    std::unique_ptr<sim::Timer> fetch_timer;
  };

  void pump();
  void process(tcp::Endpoint* endpoint, tcp::Endpoint::ReadMessage message);
  void serve_produce(tcp::Endpoint* endpoint,
                     std::shared_ptr<const void> payload, Bytes wire_size);
  void serve_fetch(tcp::Endpoint* endpoint, const FetchRequest& request);
  FetchResponse build_fetch_response(const FetchRequest& request,
                                     Bytes max_bytes);
  Duration service_time(Duration base) const;

  PartitionState& state_of(std::int32_t partition);
  bool replicated(const PartitionState& st) const noexcept {
    return st.log && st.log->replicated();
  }
  int isr_size(const PartitionState& st) const;
  void maybe_advance_high_watermark(std::int32_t partition,
                                    PartitionState& st);
  void flush_pending_acks(PartitionState& st);
  void fail_pending_acks(PartitionState& st, ErrorCode error);
  void publish_isr(std::int32_t partition, const PartitionState& st,
                   bool shrink, int subject_broker);
  void arm_isr_scan();
  void scan_isr_lag();

  // Follower fetch session.
  void follower_fetch(std::int32_t partition);
  void schedule_follower_fetch(std::int32_t partition, Duration delay);
  void handle_peer_frame(int peer_id, std::shared_ptr<const void> payload);
  void handle_replica_fetch_response(const FetchResponse& response);
  void handle_peer_reset(int peer_id);

  sim::Simulation& sim_;
  Config config_;
  sim::TwoStateModulator modulator_;
  std::map<std::int32_t, std::unique_ptr<PartitionState>> partitions_;
  std::vector<tcp::Endpoint*> connections_;
  std::map<int, tcp::Endpoint*> peers_;
  std::map<int, bool> peer_reconnect_pending_;
  std::size_t next_connection_ = 0;
  bool busy_ = false;
  bool down_ = false;
  /// Down by power loss: in-flight service completions are dropped (the
  /// process is gone), unlike fail()'s state-preserving fail-stop.
  bool powered_off_ = false;
  StorageDevice storage_device_;
  std::uint64_t next_replica_request_id_ = 1;
  sim::Timer isr_scan_timer_;
  bool isr_scan_armed_ = false;
  Stats stats_;

  // ---- observability ----
  obs::Histogram m_hw_lag_, m_recovery_scan_us_;
  obs::MetricsBinding metrics_binding_;  ///< Last: reads the members above.
};

}  // namespace ks::kafka
