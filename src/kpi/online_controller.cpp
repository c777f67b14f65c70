#include "kpi/online_controller.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "ann/network.hpp"

namespace ks::kpi {

ann::Dataset synthetic_normal_dataset() {
  ann::Dataset ds;
  for (double s : {1000.0, 5000.0}) {
    for (double t_o = 250; t_o <= 2000; t_o += 250) {
      for (double delta : {0.0, 10.0, 50.0}) {
        for (double sem : {0.0, 1.0}) {
          for (double b : {1.0, 4.0, 10.0}) {
            const double pl = std::max(
                0.0, 0.5 - t_o / 5000.0 - delta / 200.0 - 0.1 * sem -
                         0.01 * b);
            ds.add({s, t_o, delta, sem, b}, {pl, 0.0});
          }
        }
      }
    }
  }
  ds.finalize();
  return ds;
}

ann::Dataset synthetic_abnormal_dataset() {
  ann::Dataset ds;
  for (double m : {50.0, 200.0, 600.0, 1000.0}) {
    for (double d : {20.0, 100.0}) {
      for (double l = 0.0; l <= 0.5; l += 0.05) {
        for (double sem : {0.0, 1.0}) {
          for (double b : {1.0, 2.0, 5.0, 10.0}) {
            const double pl = std::clamp(
                l * 2.0 - 0.04 * b - m / 5000.0 - 0.05 * sem, 0.0, 1.0);
            const double pd = sem * std::max(0.0, 0.05 - 0.004 * b);
            ds.add({m, d, l, sem, b}, {pl, pd});
          }
        }
      }
    }
  }
  ds.finalize();
  return ds;
}

namespace {

std::string describe_decision(const testbed::AdaptiveDecision& d,
                              const DynamicParams& current,
                              double target_gamma, bool at_optimum) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "L=%.4f D=%.1fms gamma %.4f->%.4f (target %.4f) batch "
                "%d->%d poll %lld->%lldms T_o %lld->%lldms %s",
                d.est_loss, to_millis(d.est_delay), d.current_gamma,
                d.chosen_gamma, target_gamma, current.batch_size,
                d.batch_size,
                static_cast<long long>(current.poll_interval / kMillisecond),
                static_cast<long long>(d.poll_interval / kMillisecond),
                static_cast<long long>(current.message_timeout / kMillisecond),
                static_cast<long long>(d.message_timeout / kMillisecond),
                d.apply          ? "applied"
                : at_optimum     ? "suppressed (at optimum)"
                                 : "suppressed (hysteresis)");
  return buf;
}

}  // namespace

OnlineController::OnlineController(const ReliabilityPredictor& predictor,
                                   testbed::Workload workload,
                                   kafka::DeliverySemantics semantics,
                                   KpiWeights weights,
                                   double gamma_requirement, Config config)
    : config_(config),
      workload_(std::move(workload)),
      semantics_(semantics),
      estimator_(config.estimator),
      configurator_(predictor, weights, gamma_requirement) {}

testbed::AdaptiveDecision OnlineController::tick(
    TimePoint now, const testbed::AdaptiveTelemetry& telemetry) {
  testbed::AdaptiveDecision decision;
  const auto estimate = estimator_.update(now, telemetry);
  decision.est_loss = estimate.loss;
  decision.est_delay = estimate.delay;
  if (!estimate.confident) {
    decision.note = "gated: too few segments in window";
    return decision;
  }
  if (applied_once_ && now - last_applied_ < config_.cooldown) {
    decision.note = "cooldown";
    return decision;
  }

  const DynamicParams current{telemetry.batch_size, telemetry.poll_interval,
                              telemetry.message_timeout};
  decision.current_gamma = configurator_.predicted_gamma(
      workload_, semantics_, estimate.delay, estimate.loss, current);
  const DynamicParams target = configurator_.choose(
      workload_, semantics_, estimate.delay, estimate.loss, current);
  const double target_gamma = configurator_.predicted_gamma(
      workload_, semantics_, estimate.delay, estimate.loss, target);
  const DynamicParams candidate = clamp_single_step(current, target);
  decision.chosen_gamma = configurator_.predicted_gamma(
      workload_, semantics_, estimate.delay, estimate.loss, candidate);
  decision.evaluated = true;
  decision.batch_size = candidate.batch_size;
  decision.poll_interval = candidate.poll_interval;
  decision.message_timeout = candidate.message_timeout;

  const bool at_optimum =
      candidate.batch_size == current.batch_size &&
      candidate.poll_interval == current.poll_interval &&
      candidate.message_timeout == current.message_timeout;
  // Hysteresis gates on the search's *destination*, not on the clamped
  // single step: a far-but-worthwhile optimum is reached one step per
  // cooldown even when each individual step's gain sits under the
  // threshold (gating on the step would wedge the controller one step
  // from home forever). Movement is still rate-limited by the cooldown
  // and distance-limited by the clamp, so the no-thrash bound holds.
  if (!at_optimum &&
      target_gamma >= decision.current_gamma + config_.hysteresis) {
    decision.apply = true;
    applied_once_ = true;
    last_applied_ = now;
  }
  decision.note =
      describe_decision(decision, current, target_gamma, at_optimum);
  return decision;
}

testbed::AdaptiveFactory online_adaptive_factory(
    const ReliabilityPredictor& predictor, KpiWeights weights,
    double gamma_requirement, OnlineController::Config config) {
  const ReliabilityPredictor* p = &predictor;
  return [p, weights, gamma_requirement,
          config](const testbed::Scenario& scenario)
             -> std::unique_ptr<testbed::AdaptiveDriver> {
    testbed::Workload workload;
    workload.name = "scenario";
    workload.message_size = scenario.message_size;
    workload.timeliness = scenario.timeliness;
    OnlineController::Config cfg = config;
    if (scenario.adaptive_interval > 0) {
      cfg.interval = scenario.adaptive_interval;
    }
    if (scenario.adaptive_cooldown > 0) {
      cfg.cooldown = scenario.adaptive_cooldown;
    }
    return std::make_unique<OnlineController>(*p, workload,
                                              scenario.semantics, weights,
                                              gamma_requirement, cfg);
  };
}

ReliabilityPredictor train_synthetic_predictor() {
  ReliabilityPredictor p;
  ann::TrainConfig tc;
  tc.epochs = 150;
  tc.learning_rate = 0.5;
  tc.batch_size = 16;
  Rng rng(42);
  p.train(synthetic_normal_dataset(), synthetic_abnormal_dataset(), tc, rng);
  return p;
}

const ReliabilityPredictor& synthetic_predictor() {
  static const ReliabilityPredictor* instance = [] {
    const char* dir = std::getenv(kSyntheticPredictorDirEnv);
    if (dir == nullptr) {
      return new ReliabilityPredictor(train_synthetic_predictor());
    }
    // load() throws on a missing or unreadable model, and so does every
    // later call: a bad copy never falls back to training.
    auto p = std::make_unique<ReliabilityPredictor>();
    p->load(dir);
    return p.release();
  }();
  return *instance;
}

testbed::AdaptiveFactory synthetic_adaptive_factory() {
  // Trains on the first driver build, so a scenario that merely carries
  // the factory and never enables the controller costs no training.
  return [](const testbed::Scenario& scenario) {
    return online_adaptive_factory(synthetic_predictor(),
                                   KpiWeights::defaults())(scenario);
  };
}

}  // namespace ks::kpi
