// Dynamic configuration (Section V of the paper).
//
// Given a known network trace (Fig. 9: Pareto delay + Gilbert-Elliott
// loss), the configurator builds an offline per-interval schedule of
// producer parameters by stepwise search on the predicted weighted KPI,
// then the runner replays trace + schedule against a live producer and
// measures the overall loss/duplicate rates R_l and R_d of Eq. (3)
// (equivalently: the key census over the whole run).
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "kafka/cluster.hpp"
#include "kafka/producer.hpp"
#include "kpi/kpi.hpp"
#include "kpi/predictor.hpp"
#include "net/trace.hpp"
#include "testbed/adaptive.hpp"
#include "testbed/workloads.hpp"

namespace ks::kpi {

/// The parameters the producer can adjust in place (the paper notes the
/// rest — e.g. acks — require a restart, so semantics is chosen offline).
struct DynamicParams {
  int batch_size = 1;
  Duration poll_interval = 0;
  Duration message_timeout = millis(1500);
};

struct ScheduleEntry {
  TimePoint start = 0;
  DynamicParams params;
  double predicted_gamma = 0.0;
};

/// The Section-V stepwise-search grids. The offline configurator walks
/// them; the online controller also uses them as its move lattice.
const std::vector<int>& batch_steps();
const std::vector<Duration>& poll_steps();
const std::vector<Duration>& timeout_steps();

/// Clamp `target` to at most one grid step away from `from` on each axis
/// (both snapped to their nearest grid point first) — the online
/// controller's bounded-move rule, which makes thrashing impossible by
/// construction.
DynamicParams clamp_single_step(const DynamicParams& from,
                                const DynamicParams& target);

class DynamicConfigurator {
 public:
  DynamicConfigurator(const ReliabilityPredictor& predictor,
                      KpiWeights weights, double gamma_requirement = 0.8)
      : predictor_(&predictor),
        weights_(weights),
        gamma_requirement_(gamma_requirement) {}

  /// Predicted gamma for a candidate parameter set under the given network
  /// condition and workload.
  double predicted_gamma(const testbed::Workload& workload,
                         kafka::DeliverySemantics semantics,
                         Duration delay, double loss,
                         const DynamicParams& params) const;

  /// Stepwise coordinate search from `start` until gamma meets the
  /// requirement (or no single step improves it) — the paper's method.
  DynamicParams choose(const testbed::Workload& workload,
                       kafka::DeliverySemantics semantics, Duration delay,
                       double loss, DynamicParams start = {}) const;

  /// Pick the delivery semantics with the best mean predicted gamma over
  /// the trace (semantics cannot change at runtime).
  kafka::DeliverySemantics choose_semantics(
      const net::NetworkTrace& trace,
      const testbed::Workload& workload) const;

  /// One schedule entry per `check_interval` (the paper checks gamma every
  /// 60 seconds).
  std::vector<ScheduleEntry> build_schedule(
      const net::NetworkTrace& trace, Duration check_interval,
      const testbed::Workload& workload,
      kafka::DeliverySemantics semantics) const;

 private:
  const ReliabilityPredictor* predictor_;
  KpiWeights weights_;
  double gamma_requirement_;
};

/// Table II runner: replay a trace against a workload, optionally applying
/// a dynamic schedule (nullptr => static configuration throughout).
struct DynamicRunResult {
  double overall_loss_rate = 0.0;       ///< R_l.
  double overall_duplicate_rate = 0.0;  ///< R_d.
  kafka::Cluster::CensusResult census;
  double measured_gamma = 0.0;          ///< From measured phi/mu/R_l/R_d.
  double duration_s = 0.0;
  std::uint64_t events = 0;             ///< Simulated events executed.
  std::uint64_t reconfigurations = 0;
  /// Online arm only: decisions past the confidence gate + cooldown
  /// (applied reconfigurations land in `reconfigurations`).
  std::uint64_t online_evaluations = 0;
  std::uint64_t online_suppressed = 0;
  bool completed = false;
};

/// `online` (exclusive with `schedule`) attaches a live controller: the
/// driver is ticked on sim time with real transport/producer telemetry
/// and its applied decisions retune the producer mid-run — the paper's
/// Section-V loop without trace foreknowledge. Pass a FRESH driver per
/// run; controller state is part of the run.
DynamicRunResult run_dynamic_experiment(
    const net::NetworkTrace& trace, const testbed::Workload& workload,
    kafka::DeliverySemantics semantics,
    const std::vector<ScheduleEntry>* schedule, KpiWeights weights,
    std::uint64_t seed, testbed::AdaptiveDriver* online = nullptr);

}  // namespace ks::kpi
