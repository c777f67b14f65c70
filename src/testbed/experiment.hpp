// The experiment runner: the simulated analogue of the paper's testbed
// procedure — "start a new Kafka system, create a new topic, run the
// producer while faults are injected, then count unique keys".
//
// Every run builds a fresh Simulation (no legacy effects), a 3-broker
// cluster, a producer connected to the leader through an impaired link,
// runs to completion and reports the reliability metrics plus the
// performance inputs of the weighted KPI.
//
// Component counters (producer retries, elections, recovery scans, TCP
// segments, ...) live only in the metrics registry: read them from
// `report.metrics` or through `report.metric(name)`. This struct and
// `report.summary` hold only what the testbed itself computes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "kafka/cluster.hpp"
#include "kafka/state_machine.hpp"
#include "obs/report.hpp"
#include "testbed/scenario.hpp"

namespace ks::testbed {

struct ExperimentResult {
  // Reliability metrics (the paper's P_l and P_d), from the key census.
  double p_loss = 0.0;
  double p_duplicate = 0.0;
  kafka::Cluster::CensusResult census;
  kafka::MessageStateTracker::Census cases;  ///< Table I breakdown.

  // Performance metrics (KPI inputs, ref. [6]).
  double service_rate_mu = 0.0;          ///< 1/t_ser(M), messages/s.
  double bandwidth_utilization_phi = 0.0;
  double delivered_throughput = 0.0;     ///< Unique keys per second.

  // Timeliness: fraction of delivered messages with latency > S, and the
  // delivery-latency distribution (first append only).
  double stale_fraction = 0.0;
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;

  std::uint64_t events = 0;  ///< Simulated events executed.
  double duration_s = 0.0;
  bool completed = false;  ///< Producer finished before the time cap.

  /// Appends whose offset was not exactly previous+1 for that broker's
  /// partition log — any nonzero value is a log-discipline bug.
  std::uint64_t offset_gap_violations = 0;

  /// Acked keys absent from the committed log at the end of the run — the
  /// acked-data-loss hazard. Must be zero under acks=all + min.insync>=2 +
  /// clean elections, whatever single-broker fail-stops happen.
  std::uint64_t acked_lost = 0;
  std::uint64_t replica_prefix_violations = 0;

  // Durable storage & crash recovery (all zero without disk faults).
  std::uint64_t power_losses = 0;      ///< Hard crashes injected.
  std::uint64_t hard_restarts = 0;     ///< Recovery scans + rejoins.
  /// Recovery scans disagreeing with storage ground truth — any nonzero
  /// value is a recovery bug (the durable-recovery-prefix invariant).
  std::uint64_t recovery_prefix_violations = 0;

  /// Consumer drain stage: records read back, including repeats.
  std::uint64_t consumer_records = 0;

  // Consumer-group stage (group_size > 0; all zero otherwise).
  std::uint64_t group_records_fetched = 0;
  std::uint64_t group_unique_delivered = 0;    ///< Distinct keys delivered.
  std::uint64_t group_duplicate_deliveries = 0;
  /// Same (partition, offset) delivered twice within one generation by two
  /// different members, or repeated by one live member — a fencing
  /// violation (must be zero on every run). The one legitimate repeat, a
  /// member redelivering its uncommitted window after a crash wiped its
  /// delivery state (e.g. a static member bouncing inside the session
  /// timeout, which bumps no generation), is not counted.
  std::uint64_t group_same_generation_dups = 0;
  /// Committed-log keys the group's offset passed over without delivering —
  /// the at-most-once (commit-before-deliver) crash signature.
  std::uint64_t group_lost = 0;
  std::uint64_t group_rebalances = 0;
  std::uint64_t group_evictions = 0;
  std::uint64_t group_commits = 0;
  std::uint64_t group_commits_fenced = 0;
  bool group_drained = false;  ///< Committed reached every partition's HW.

  // Online health monitor (health_enabled; zero otherwise).
  std::uint64_t health_ticks = 0;
  std::uint64_t health_alerts_opened = 0;
  /// Lag alerts specifically (lag_stall + lag_stop) — the precision/recall
  /// subject: chaos scores these against the crash ground truth below.
  std::uint64_t health_lag_alerts = 0;

  // Online adaptive controller (adaptive_enabled; zero otherwise).
  std::uint64_t adaptive_ticks = 0;
  /// Decisions that passed the confidence gate + cooldown and ran the
  /// predictor search (applied or suppressed).
  std::uint64_t adaptive_evaluations = 0;
  std::uint64_t adaptive_reconfigurations = 0;  ///< Applied to the producer.
  std::uint64_t adaptive_suppressed = 0;        ///< Hysteresis said no.
  /// Effective cooldown the run enforced (for the no-thrash invariant:
  /// reconfigurations <= duration/cooldown + 1).
  Duration adaptive_cooldown = 0;

  /// Ground truth for detector recall, recorded straight off
  /// cluster/coordinator state — independent of the monitor under test.
  struct CrashBacklog {
    TimePoint at = 0;       ///< Crash injection time.
    /// Backlog (HW - committed, clamped at 0) summed over the partitions
    /// the member owned, at the crash instant.
    std::int64_t backlog = 0;
    /// The evidence the detector's fast STALL path sees: lag measured
    /// stall_ticks evaluation intervals AFTER the crash (producers keep
    /// appending, so lag at the crash instant is often still zero),
    /// restricted to partitions whose commits were live at the crash
    /// (committed > 0) and still frozen at the probe. Only this obligates
    /// a bounded-window alert; cold partitions are governed by the (much
    /// longer) cold-start grace, and a fast rebalance that resumes
    /// commits before the probe discharges the obligation.
    std::int64_t warm_backlog = 0;
  };
  std::vector<CrashBacklog> group_crash_backlogs;

  /// Structured run artifact: final metric values across every layer,
  /// sampled time series, histogram summaries and the message trace.
  obs::RunReport report;
};

/// Run one scenario end to end. Deterministic given scenario.seed.
ExperimentResult run_experiment(const Scenario& scenario);

}  // namespace ks::testbed
