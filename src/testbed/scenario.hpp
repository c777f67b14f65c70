// A scenario bundles the paper's prediction-model features (Eq. 1):
//   {P_l, P_d} = f(M, S, D, L, Confs)
// plus run-control knobs (message count, seed).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "kafka/group.hpp"
#include "kafka/group_consumer.hpp"
#include "kafka/partitioner.hpp"
#include "kafka/producer.hpp"
#include "net/loss_model.hpp"
#include "testbed/adaptive.hpp"

namespace ks::obs {
class JsonValue;
}  // namespace ks::obs

namespace ks::testbed {

/// One timed fault-injection action, executed by the experiment runner at
/// the given simulated time. A schedule of these is the machine-checkable
/// analogue of the paper's manual NetEm sessions (plus the broker fail-stop
/// outages of the future-work ablation).
struct FaultAction {
  enum class Kind {
    kNetem,           ///< Constant delay + Bernoulli loss on the egress.
    kGilbertElliott,  ///< Constant delay + bursty two-state loss.
    kBandwidth,       ///< Line-rate change; bandwidth_bps = 0 restores.
    kBrokerFail,      ///< Fail-stop outage of `broker`.
    kBrokerResume,    ///< End of the outage.
    kConsumerCrash,   ///< Fail-stop of group member `member` (no leave).
    kConsumerRestart, ///< Crashed member `member` comes back and rejoins.
    kConsumerPause,   ///< Member `member` freezes for `delay` (GC pause).
    kGroupScaleOut,   ///< A new member joins the group at `at`.
    kPowerLoss,       ///< Hard crash of `broker`: volatile state wiped,
                      ///< unflushed disk suffix lost (torn tail if
                      ///< `torn_write`).
    kPowerRestore,    ///< Hard restart: recovery scan, then rejoin.
    kDiskCorrupt,     ///< Latent bit-flip on `broker`'s disk (`disk_seed`).
    kFlushStall,      ///< Slow/stalled disk on `broker` for `delay`.
  };

  TimePoint at = 0;  ///< Absolute simulated time.
  Kind kind = Kind::kNetem;
  Duration delay = 0;   ///< Injected one-way delay (kNetem/kGilbertElliott);
                        ///< stall window (kFlushStall).
  double loss = 0.0;    ///< Bernoulli loss rate (kNetem).
  net::GilbertElliottLoss::Params ge{};  ///< kGilbertElliott parameters.
  double bandwidth_bps = 0.0;            ///< kBandwidth target rate.
  int broker = 0;                        ///< kBrokerFail/kBrokerResume/disk.
  int member = 0;                        ///< kConsumer* target group member.
  bool torn_write = false;               ///< kPowerLoss: tear the tail batch.
  std::uint64_t disk_seed = 0;           ///< kDiskCorrupt: bit-flip picker.

  std::string describe() const;  ///< One-line human-readable summary.
};

const char* to_string(FaultAction::Kind kind) noexcept;

/// How the upstream source behaves.
enum class SourceMode {
  /// Real-time stream: messages are generated on a schedule regardless of
  /// the producer; a bounded ring absorbs bursts, overruns are lost.
  kRealTime,
  /// Fully loaded I/O: the next message is always available when the
  /// producer polls ("the highest speed the I/O devices can handle").
  kOnDemand,
};

const char* to_string(SourceMode mode) noexcept;

/// A new field also needs a line in the field list in scenario.cpp, or
/// the report's scenario section leaves it out and a re-run loses it.
struct Scenario {
  // --- streaming-data type --------------------------------------------------
  Bytes message_size = 200;            ///< M, bytes.
  Bytes message_size_jitter = 0;       ///< Uniform +/- jitter on M.
  Duration timeliness = seconds(5);    ///< S: staleness bound (reporting/KPI).
  SourceMode source_mode = SourceMode::kRealTime;

  // --- network environment --------------------------------------------------
  Duration network_delay = 0;          ///< D: injected one-way delay.
  double packet_loss = 0.0;            ///< L: injected loss rate [0,1].

  // --- Kafka configuration features ------------------------------------------
  kafka::DeliverySemantics semantics = kafka::DeliverySemantics::kAtLeastOnce;
  int batch_size = 1;                  ///< B, records per request.
  Duration poll_interval = 0;          ///< delta; 0 = full speed.
  Duration message_timeout = seconds(300);  ///< T_o (Kafka-like default).
  /// Per-request ack timeout before a retry (acks>=1). 0 = semantics-preset
  /// default. The paper's retry model re-sends until T_o expires.
  Duration request_timeout = 0;
  /// Retry budget tau_r; -1 = semantics-preset default.
  int retries_override = -1;
  /// Producer retry backoff (floor of the jittered exponential); 0 = preset
  /// default.
  Duration retry_backoff = 0;
  /// Cap on the jittered exponential retry backoff; 0 = preset default.
  Duration retry_backoff_max = 0;

  // --- replication (broker-fault ablation) ------------------------------------
  /// Replicas per partition (clamped to the broker count). 1 = the paper's
  /// unreplicated baseline; >1 enables follower fetch, ISR tracking and
  /// leader failover.
  int replication_factor = 1;
  int min_insync_replicas = 1;             ///< acks=all durability gate.
  bool unclean_leader_election = false;    ///< Availability over safety.

  // --- durable storage (disk-fault ablation) -----------------------------------
  /// Synchronous-flush thresholds for the broker's segmented log, mirroring
  /// Kafka's log.flush.interval.messages / log.flush.interval.ms. Both 0 =
  /// OS-cache-only writeback (Kafka's default), which a power loss can
  /// erase; flush_messages = 1 is fsync-per-append.
  std::uint64_t flush_messages = 0;
  Duration flush_interval = 0;

  /// Timed fault schedule executed on top of the static (D, L) impairment:
  /// netem steps, bandwidth drops, broker outages and group-member faults.
  /// Actions are scheduled at their absolute times; order within the vector
  /// is irrelevant (kGroupScaleOut actions activate standby members in
  /// schedule order).
  std::vector<FaultAction> faults;

  // --- multi-partition topics & consumer groups --------------------------------
  /// Topic partitions; leaders assigned round-robin across brokers. One
  /// producer per partition, fed through the partition router.
  int partitions = 1;
  /// How the producer routes records to partitions (partitions > 1 only).
  kafka::PartitionerKind partitioner = kafka::PartitionerKind::kKeyed;
  /// Consumer-group members consuming live during production. 0 disables
  /// the group path (the post-run single-consumer drain is used instead).
  int group_size = 0;
  /// When members commit relative to delivery — the knob that turns a
  /// member crash into the paper's at-most-once loss (commit before) or
  /// at-least-once duplication (commit after).
  kafka::CommitMode group_commit_mode = kafka::CommitMode::kCommitAfterDeliver;
  kafka::AssignmentStrategy group_strategy =
      kafka::AssignmentStrategy::kCooperativeSticky;
  /// Static membership (group.instance.id): bounced members reclaim their
  /// assignment without a rebalance.
  bool group_static_membership = false;
  Duration group_process_time = micros(500);   ///< Per-record app work.
  Duration group_session_timeout = millis(400);
  Duration group_heartbeat_interval = millis(100);

  // --- run control ------------------------------------------------------------
  std::uint64_t num_messages = 20000;  ///< N (paper: 1e6; scaled down).
  std::uint64_t seed = 1;
  /// Source emission interval; 0 => full load (tracks serialization speed).
  Duration source_interval = 0;
  /// Enable broker Good/Bad service regimes (on for full-load studies).
  bool broker_regimes = true;

  // --- observability ---------------------------------------------------------
  /// Metric-sampling interval for the run's time series; 0 disables the
  /// sampler (the final RunReport snapshot is always taken).
  Duration sample_interval = millis(200);
  /// Message-trace key sampling: record lifecycles of keys where
  /// key % trace_sample_every == 0. 0 = auto (aim for ~64 traced keys).
  std::uint64_t trace_sample_every = 0;
  /// Bound on retained trace events (ring overwrites the oldest).
  std::size_t trace_capacity = 4096;
  /// Causal span tracing (produce attempt -> TCP flight -> broker append ->
  /// commit wait -> ack; fetch -> deliver). Off => near-zero cost.
  bool spans_enabled = true;
  /// Span key sampling; 0 = match the message-trace sampling.
  std::uint64_t span_sample_every = 0;
  /// Bound on retained completed spans (ring overwrites the oldest).
  std::size_t span_capacity = 8192;
  /// After the producer finishes, drain the topic through a consumer so
  /// Fig. 2 is observable source-to-consumer (kFetched/kDelivered events).
  bool consumer_drain = true;
  /// Online health monitor (obs/health.hpp): periodic sim-time probes feed
  /// Burrow-style lag verdicts and rule-based alerting; the result lands
  /// in the report's health section. Off => probes never scheduled and the
  /// per-record latency hook is one predictable branch.
  bool health_enabled = true;
  /// Online adaptive reconfiguration (testbed/adaptive.hpp): a sim-time
  /// control loop estimates network conditions from live telemetry and
  /// retunes the producer's batch/poll/timeout knobs at runtime. Off (the
  /// default) => no driver is constructed, no tick is ever scheduled, and
  /// the run is byte-identical to a build without the feature (passivity).
  bool adaptive_enabled = false;
  /// Controller tick period; 0 falls back to the driver's interval().
  Duration adaptive_interval = 0;
  /// Minimum spacing between applied reconfigurations; 0 falls back to
  /// the driver's cooldown(). Together with single-step moves this bounds
  /// reconfigurations by duration/cooldown + 1 (the no-thrash invariant).
  Duration adaptive_cooldown = 0;
  /// Builds the per-run policy driver; empty + adaptive_enabled is an
  /// error surfaced as a disabled controller (adaptive_ticks == 0).
  AdaptiveFactory adaptive_factory;

  /// Feature vector for the "normal network" model of Fig. 3:
  /// {S, T_o, delta, semantics, B}. (B stays effective even without
  /// faults in this substrate — broker per-request overhead — so the
  /// paper's sensitivity-based feature selection keeps it.)
  std::vector<double> normal_features() const;

  /// Feature vector for the "network faults" model of Fig. 3:
  /// {M, D, L, semantics, B}.
  std::vector<double> abnormal_features() const;

  static const std::vector<const char*>& normal_feature_names();
  static const std::vector<const char*>& abnormal_feature_names();
};

/// The scenario as one JSON object, written through the field lists in
/// scenario.cpp (obs/json_fields.hpp): every field under its own name,
/// durations as integer microseconds with a `_us` suffix, enums by their
/// to_string() names. `adaptive_factory` is code, not data, so it is left
/// out: a run re-made from the JSON must re-install it.
std::string to_json(const Scenario& scenario);

/// Read a scenario back from `json` by the reading rule of
/// obs/json_fields.hpp: an absent key keeps the Scenario default. nullopt
/// when `json` is no object or breaks the rule (an enum name no value
/// carries, an integer its field cannot hold).
std::optional<Scenario> scenario_from_json(const obs::JsonValue& json);

}  // namespace ks::testbed
