// Online health monitor: Burrow-style consumer-lag evaluation plus
// rule-based cluster detectors, fed by periodic sim-time probes.
//
// The monitor is passive and layered strictly below the Kafka model: the
// experiment runner reads cluster/coordinator/producer state on a timer
// and pushes plain numbers at observe_*(); evaluate() then runs the rules
// once per tick. Lag verdicts follow Burrow's sliding-window idea
// (github.com/linkedin/Burrow): a partition whose committed offset keeps
// advancing is OK even when lag is large, one whose lag grows while
// commits continue is WARN, one whose commits stopped with lag
// outstanding is STALL, and one with no owning member left is STOP. WARN
// is a verdict only; STALL/STOP and the rule-based detectors
// (under-replication, ISR flapping, flush-stall pressure) open alerts
// with an open/resolve lifecycle, mirrored onto the ClusterTimeline as
// health_alert / health_resolve events.
//
// Everything here is driven by sim time, so the exported health section is
// byte-identical across replays of the same seed — which is what lets the
// chaos harness score the detector against ground truth (recall: a member
// crashed without rejoin must raise STALL/STOP within a bounded number of
// windows; precision: fault-free runs must raise no lag alert).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hpp"
#include "obs/ring.hpp"
#include "obs/timeline.hpp"
#include "obs/timeseries.hpp"

namespace ks::obs {

struct RunReport;

/// Per-partition consumer-lag verdict, evaluated once per tick.
enum class LagVerdict : std::uint8_t { kOk = 0, kWarn, kStall, kStop };

const char* to_string(LagVerdict v) noexcept;

/// Alert-raising detectors. LagVerdict::kWarn never opens an alert (lag
/// growth under live commits is load, not failure — alerting on it would
/// wreck precision on healthy bursty runs).
enum class HealthDetector : std::uint8_t {
  kLagStall = 0,      ///< Commits stopped with lag outstanding.
  kLagStop,           ///< No owning member left with lag outstanding.
  kUnderReplicated,   ///< ISR below the replica set for consecutive ticks.
  kIsrFlapping,       ///< ISR size oscillating within the window.
  kFlushStall,        ///< Parked acks with a frozen high watermark.
};

const char* to_string(HealthDetector d) noexcept;

struct HealthConfig {
  /// Probe/evaluation tick. The default, with stall_ticks below, detects a
  /// commit stall in under ~240 ms of sim time — inside the smallest
  /// group session timeout the chaos generator emits (250 ms), so a
  /// crashed member's frozen partitions alert before the rebalance
  /// resumes commits and hides the evidence.
  Duration interval = millis(60);
  /// Sliding window (ticks) for the WARN lag-growth rule.
  std::size_t lag_window = 6;
  /// Consecutive ticks of frozen committed offset (after commits have
  /// started) with lag > 0 before STALL.
  std::size_t stall_ticks = 3;
  /// Consecutive unowned ticks with lag > 0 before STOP.
  std::size_t stop_ticks = 2;
  /// Grace (ticks) before a partition that never committed counts as
  /// stalled — covers group formation and first-fetch latency.
  std::size_t cold_start_ticks = 25;
  std::size_t under_replicated_ticks = 3;
  /// ISR-size transitions within flap_window ticks to call flapping.
  std::size_t flap_window = 12;
  std::size_t flap_threshold = 4;
  /// Ticks of parked acks over a frozen high watermark before the
  /// flush-stall-pressure alert.
  std::size_t flush_stall_ticks = 5;
  /// Per-series window-ring bound.
  std::size_t series_capacity = 1024;
};

/// One alert's lifecycle. `resolved == -1` means still open at run end.
struct HealthAlert {
  HealthDetector detector = HealthDetector::kLagStall;
  std::int32_t partition = -1;
  std::int32_t broker = -1;
  TimePoint opened = 0;
  TimePoint resolved = -1;
  /// Evaluation ticks from condition onset to the alert opening.
  std::uint64_t windows_to_detect = 0;
};

/// The health section of a RunReport. Everything here is sim-time-driven,
/// so unlike perf the whole section lives inside canonical_json() — replay
/// byte-identity includes the detector's verdicts and alert ledger.
struct HealthReport {
  bool enabled = false;
  std::uint64_t interval_us = 0;  ///< Probe/evaluation tick.
  std::uint64_t ticks = 0;        ///< Evaluation ticks run.

  /// One probe series: fixed-interval windows, parallel arrays of equal
  /// length. Window start times are t; gaps mean no probe landed there.
  struct Series {
    std::string name;
    std::uint64_t interval_us = 0;
    std::uint64_t dropped = 0;
    std::vector<std::int64_t> t;
    std::vector<std::uint64_t> count;
    std::vector<double> min;
    std::vector<double> max;
    std::vector<double> sum;
  };
  std::vector<Series> series;

  /// Fixed-bucket latency sketch: kLatencySketchBuckets counts (bounds in
  /// obs/timeseries.hpp) that sum to `count`.
  struct Sketch {
    std::string name;
    std::uint64_t count = 0;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<Sketch> sketches;

  /// Alert ledger, open order.
  std::vector<HealthAlert> alerts;

  /// Final per-partition lag verdicts (grouped runs only).
  struct Verdict {
    std::int32_t partition = -1;
    LagVerdict verdict = LagVerdict::kOk;  ///< Verdict at run end.
    LagVerdict worst = LagVerdict::kOk;    ///< Worst seen during the run.
    std::int64_t lag = 0;
    std::int64_t committed = 0;
    std::int64_t hw = 0;
  };
  std::vector<Verdict> verdicts;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config, ClusterTimeline* timeline);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  const HealthConfig& config() const noexcept { return config_; }

  // ---- probe inputs (call once per tick each, then evaluate) ----
  /// Start a probe tick: stamps the tick time the observe_* calls below
  /// record under. Call before the probes, then evaluate(t) after.
  void begin_tick(TimePoint t) noexcept { now_ = t; }
  /// Consumer-group progress for one partition: latest committed offset,
  /// the leader high watermark, and whether any live member owns it.
  void observe_partition(std::int32_t partition, std::int64_t committed,
                         std::int64_t hw, bool owned);
  /// Leader-side replication state for one partition.
  void observe_isr(std::int32_t partition, std::int64_t isr_size,
                   std::int64_t replicas);
  /// Follower catch-up distance (leader HW minus replica HW), per replica.
  void observe_replica_lag(std::int32_t broker, std::int64_t lag);
  /// Broker-side flush pressure: parked acks=all responses and the sum of
  /// the broker's high watermarks (progress signal).
  void observe_broker(std::int32_t broker, std::int64_t parked_acks,
                      std::int64_t hw_sum);
  /// Producer-side rates: requests in flight now, retries since last tick.
  void observe_producer(double in_flight, double retries_delta);

  /// End-to-end acked-to-delivered latency, fed per record from the hot
  /// path (not tick-driven); cheap enough to stay on by default.
  void observe_latency(TimePoint t, std::int64_t us);

  /// Run every rule against this tick's observations, update verdicts and
  /// open/resolve alerts (mirrored onto the timeline when one is wired).
  void evaluate(TimePoint t);

  // ---- outputs ----
  std::uint64_t ticks() const noexcept { return ticks_; }
  const std::vector<HealthAlert>& alerts() const noexcept { return alerts_; }
  std::uint64_t alerts_opened() const noexcept { return alerts_.size(); }
  std::uint64_t alerts_resolved() const noexcept { return resolved_count_; }
  std::uint64_t open_alerts() const noexcept {
    return alerts_.size() - resolved_count_;
  }
  LagVerdict verdict(std::int32_t partition) const noexcept;
  /// All series in creation order (probe wiring order: deterministic).
  const std::vector<TimeSeries>& series() const noexcept { return series_; }

  /// Snapshot everything into a report's health section.
  HealthReport export_health() const;

 private:
  struct PartitionState {
    explicit PartitionState(std::size_t window) : lag_window(window) {}
    // This tick's probe (valid when probed_this_tick).
    bool probed = false;
    std::int64_t committed = 0;
    std::int64_t hw = 0;
    bool owned = false;
    // Evaluator state.
    std::int64_t last_committed = -1;
    bool ever_committed = false;
    std::uint64_t frozen_ticks = 0;
    std::uint64_t unowned_ticks = 0;
    std::uint64_t cold_ticks = 0;
    Ring<std::int64_t> lag_window;  ///< Recent lags, oldest first.
    LagVerdict verdict = LagVerdict::kOk;
    LagVerdict worst = LagVerdict::kOk;
  };
  struct IsrState {
    explicit IsrState(std::size_t window) : sizes(window) {}
    bool probed = false;
    std::int64_t isr = 0;
    std::int64_t replicas = 0;
    std::uint64_t under_ticks = 0;
    Ring<std::int64_t> sizes;  ///< Recent ISR sizes, oldest first.
  };
  struct BrokerState {
    bool probed = false;
    std::int64_t parked = 0;
    std::int64_t hw_sum = 0;
    std::int64_t last_hw_sum = -1;
    std::uint64_t pressure_ticks = 0;
  };

  TimeSeries& series_named(const std::string& name);
  void open_alert(TimePoint t, HealthDetector detector, std::int32_t partition,
                  std::int32_t broker, std::uint64_t windows);
  void resolve_alert(TimePoint t, HealthDetector detector,
                     std::int32_t partition, std::int32_t broker);
  bool alert_open(HealthDetector detector, std::int32_t partition,
                  std::int32_t broker) const;

  void evaluate_partition(TimePoint t, std::int32_t pid, PartitionState& ps);
  void evaluate_isr(TimePoint t, std::int32_t pid, IsrState& is);
  void evaluate_broker(TimePoint t, std::int32_t broker, BrokerState& bs);

  HealthConfig config_;
  ClusterTimeline* timeline_;  ///< May be null (unit tests).
  std::uint64_t ticks_ = 0;
  std::map<std::int32_t, PartitionState> partitions_;
  std::map<std::int32_t, IsrState> isr_;
  std::map<std::int32_t, BrokerState> brokers_;
  std::vector<TimeSeries> series_;
  LatencySketch sketch_;
  std::vector<HealthAlert> alerts_;
  /// Open-alert index into alerts_, keyed (detector, partition, broker).
  std::map<std::tuple<int, std::int32_t, std::int32_t>, std::size_t> open_;
  std::uint64_t resolved_count_ = 0;
  TimePoint now_ = 0;
};

/// Human-readable rendering of a report's health section (the body of
/// `ks_health` and of the chaos harness's failure artifact): per-partition
/// verdicts, the alert ledger, and ASCII sparkline trends per series.
std::string render_health_text(const RunReport& report);

}  // namespace ks::obs
