// The online half of the paper's Section V: a sim-time control loop that
// estimates the current network condition from live telemetry
// (ConditionEstimator), asks the trained ReliabilityPredictor which
// producer parameters it would pick for that condition (the same stepwise
// choose() search the offline schedule uses), and applies the winner to
// the live producer — guarded so it provably cannot thrash:
//
//   estimate -> confidence gate -> cooldown -> choose() -> single-step
//   clamp -> hysteresis (min predicted-gamma improvement) -> apply
//
// Reconfiguration count is bounded by duration/cooldown + 1, and each
// applied move changes every knob by at most one grid step.
#pragma once

#include <memory>

#include "kpi/condition_estimator.hpp"
#include "kpi/dynamic_config.hpp"
#include "kpi/kpi.hpp"
#include "kpi/predictor.hpp"
#include "testbed/adaptive.hpp"
#include "testbed/workloads.hpp"

namespace ks::kpi {

struct OnlineControllerConfig {
  Duration interval = seconds(1);  ///< Control-loop tick period.
  /// Minimum spacing between applied reconfigurations.
  Duration cooldown = seconds(10);
  /// Minimum predicted-gamma improvement before a move is applied;
  /// smaller deltas are suppressed (the model's own noise floor).
  double hysteresis = 0.01;
  ConditionEstimatorConfig estimator;
};

class OnlineController : public testbed::AdaptiveDriver {
 public:
  using Config = OnlineControllerConfig;

  OnlineController(const ReliabilityPredictor& predictor,
                   testbed::Workload workload,
                   kafka::DeliverySemantics semantics, KpiWeights weights,
                   double gamma_requirement, Config config = {});

  Duration interval() const override { return config_.interval; }
  Duration cooldown() const override { return config_.cooldown; }
  testbed::AdaptiveDecision tick(
      TimePoint now, const testbed::AdaptiveTelemetry& telemetry) override;

 private:
  Config config_;
  testbed::Workload workload_;
  kafka::DeliverySemantics semantics_;
  ConditionEstimator estimator_;
  DynamicConfigurator configurator_;
  bool applied_once_ = false;
  TimePoint last_applied_ = 0;
};

/// An AdaptiveFactory wiring an OnlineController into testbed scenarios:
/// workload shape (message size, timeliness) and semantics are read off
/// the Scenario; `scenario.adaptive_interval`/`adaptive_cooldown`
/// override the Config when nonzero. The predictor must outlive every
/// run started from the returned factory.
testbed::AdaptiveFactory online_adaptive_factory(
    const ReliabilityPredictor& predictor, KpiWeights weights,
    double gamma_requirement = 0.9, OnlineController::Config config = {});

/// Synthetic closed-form training sets with a known monotone structure
/// (P_l falls with T_o and B, rises with L) over deterministic grids: the
/// normal-case and abnormal-case halves of synthetic_predictor()'s data.
ann::Dataset synthetic_normal_dataset();
ann::Dataset synthetic_abnormal_dataset();

/// A predictor trained on the synthetic datasets (150 epochs, Rng(42)).
ReliabilityPredictor train_synthetic_predictor();

/// Names a directory holding train_synthetic_predictor()'s model as
/// ReliabilityPredictor::save wrote it. The test build sets it so that one
/// training serves every test process.
inline constexpr char kSyntheticPredictorDirEnv[] =
    "KS_SYNTHETIC_PREDICTOR_DIR";

/// A process-lifetime copy of train_synthetic_predictor(), made on first
/// use: loaded from kSyntheticPredictorDirEnv's directory when that is set
/// (a missing or unreadable model throws, there and on every later call),
/// trained otherwise; deterministic backing for chaos scenarios and tests
/// that need a trained predictor without a collection run.
const ReliabilityPredictor& synthetic_predictor();

/// online_adaptive_factory() over synthetic_predictor() with default
/// weights — what the chaos generator installs for its adaptive
/// dimension. The predictor trains on the factory's first call, not when
/// the factory is made.
testbed::AdaptiveFactory synthetic_adaptive_factory();

}  // namespace ks::kpi
