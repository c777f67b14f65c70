// Dynamic configuration (Section V of the paper).
//
// Given a known network trace (Fig. 9: Pareto delay + Gilbert-Elliott
// loss), the configurator builds an offline per-interval schedule of
// producer parameters by stepwise search on the predicted weighted KPI.
// `follow_schedule` replays it on a `testbed::replay_scenario` run, whose
// key census gives the overall loss/duplicate rates R_l, R_d of Eq. (3).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "kafka/producer.hpp"
#include "kpi/kpi.hpp"
#include "kpi/predictor.hpp"
#include "net/trace.hpp"
#include "testbed/scenario.hpp"
#include "testbed/workloads.hpp"

namespace ks::kpi {

/// The parameters the producer can adjust in place (the paper notes the
/// rest — e.g. acks — require a restart, so semantics is chosen offline).
struct DynamicParams {
  int batch_size = 1;
  Duration poll_interval = 0;
  Duration message_timeout = millis(1500);

  /// Set B, delta and T_o on `scenario`.
  void apply_to(testbed::Scenario& scenario) const;
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

/// Table II's offline-oracle arm: run `scenario` with the first entry's
/// parameters from t = 0 and apply each later entry at its start time,
/// through a driver behind `scenario.adaptive_factory` that ticks on the
/// entries' common spacing. A schedule with no later entry has nothing to
/// apply and leaves the controller off.
void follow_schedule(testbed::Scenario& scenario,
                     std::vector<ScheduleEntry> schedule);

}  // namespace ks::kpi
