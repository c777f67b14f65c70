// Type-erased bridge between the testbed runner and an online
// reconfiguration policy (the Section-V control loop, implemented in
// src/kpi/online_controller.*). The testbed cannot include kpi headers —
// ks_kpi links ks_testbed, so the dependency must point one way — so the
// runner talks to the policy through this plain-data interface: each tick
// it snapshots live transport/producer telemetry into AdaptiveTelemetry,
// hands it to the driver, and applies the returned AdaptiveDecision to the
// live producers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ks::kafka {
class Producer;
}
namespace ks::tcp {
class Endpoint;
}

namespace ks::testbed {

struct Scenario;

/// Live signals sampled by the runner at each controller tick. Counters
/// are cumulative since the start of the run; the driver keeps its own
/// sliding window by differencing successive snapshots.
struct AdaptiveTelemetry {
  // Transport (producer-side TCP endpoints).
  std::uint64_t segments_sent = 0;      ///< All segments, incl. retransmits.
  std::uint64_t data_segments_sent = 0; ///< Payload-carrying segments.
  std::uint64_t retransmissions = 0;    ///< Fast retransmits + RTO resends.
  std::uint64_t rto_events = 0;
  Duration smoothed_rtt = 0;            ///< Endpoint SRTT (0 = no sample yet).

  // Producer aggregate (summed over all producers in the run).
  std::uint64_t records_acked = 0;
  std::uint64_t records_retried = 0;
  std::uint64_t records_timed_out = 0;

  // The parameters currently live on the producer(s).
  int batch_size = 1;
  Duration poll_interval = 0;
  Duration message_timeout = 0;
};

/// Snapshot the telemetry for one controller tick. TCP counters are summed
/// over every producer connection, idle failover connections included, so
/// they stay monotone for the driver's differencing; SRTT is the largest
/// among the producers' current connections. Producer counters are summed
/// over all producers; the live parameters are the first producer's.
AdaptiveTelemetry sample_telemetry(
    const std::vector<const kafka::Producer*>& producers,
    const std::vector<const tcp::Endpoint*>& connections);

/// What the policy decided on one tick. `evaluated` is false while the
/// estimator is still confidence-gated (not enough samples) or the
/// cooldown is in force; `apply` is true only when the chosen parameters
/// should be pushed to the live producers. Either way the runner records
/// the decision on the cluster timeline so every choice is explainable.
struct AdaptiveDecision {
  bool evaluated = false;  ///< Estimator confident + cooldown expired.
  bool apply = false;      ///< Push `batch_size`/`poll_interval`/`timeout`.

  // Chosen parameters (meaningful when `apply`).
  int batch_size = 1;
  Duration poll_interval = 0;
  Duration message_timeout = 0;

  // Estimates and predicted KPI, for the timeline/JSON record.
  double est_loss = 0.0;        ///< Estimated network loss rate.
  Duration est_delay = 0;       ///< Estimated injected one-way delay.
  double current_gamma = 0.0;   ///< Predicted gamma of the live params.
  double chosen_gamma = 0.0;    ///< Predicted gamma of the chosen params.
  std::string note;             ///< Deterministic one-line summary.
};

/// The policy interface. A fresh driver is constructed per run (see
/// AdaptiveFactory), so all state is per-run and replay-deterministic.
class AdaptiveDriver {
 public:
  virtual ~AdaptiveDriver() = default;

  /// Tick period of the control loop (simulated time, > 0).
  virtual Duration interval() const = 0;
  /// Minimum spacing between applied reconfigurations; with single-step
  /// moves this bounds reconfiguration count by duration/cooldown + 1.
  virtual Duration cooldown() const = 0;
  /// One control-loop step at simulated time `now`.
  virtual AdaptiveDecision tick(TimePoint now,
                                const AdaptiveTelemetry& telemetry) = 0;
};

/// Builds a fresh driver for one run. Must be stateless (or share only
/// immutable state, e.g. a trained predictor) so that repeated runs of the
/// same Scenario — replay-determinism double-runs, chaos shrinking — see
/// identical controller behavior.
using AdaptiveFactory =
    std::function<std::unique_ptr<AdaptiveDriver>(const Scenario&)>;

}  // namespace ks::testbed
