// KPI-layer tests: weighted KPI, performance model, ANN-backed predictor,
// the dynamic configurator, the online controller stack and Table II's
// three arms on the testbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "chaos/generator.hpp"
#include "chaos/invariants.hpp"
#include "kpi/condition_estimator.hpp"
#include "kpi/dynamic_config.hpp"
#include "kpi/kpi.hpp"
#include "kpi/online_controller.hpp"
#include "kpi/perf_model.hpp"
#include "kpi/predictor.hpp"
#include "testbed/experiment.hpp"
#include "testbed/workloads.hpp"

namespace ks::kpi {
namespace {

TEST(Kpi, WeightsSumToOneByDefault) {
  EXPECT_NEAR(KpiWeights::defaults().sum(), 1.0, 1e-12);
}

TEST(Kpi, FormulaMatchesEquation2) {
  // gamma = w1*phi + w2*mu + w3*(1-Pl) + w4*(1-Pd).
  const KpiWeights w{0.3, 0.3, 0.3, 0.1};
  EXPECT_NEAR(weighted_kpi(0.5, 0.8, 0.2, 0.1, w),
              0.3 * 0.5 + 0.3 * 0.8 + 0.3 * 0.8 + 0.1 * 0.9, 1e-12);
}

TEST(Kpi, PerfectSystemScoresOne) {
  EXPECT_NEAR(weighted_kpi(1.0, 1.0, 0.0, 0.0, KpiWeights::defaults()), 1.0,
              1e-12);
}

TEST(Kpi, ClampsOutOfRangeInputs) {
  const auto w = KpiWeights::defaults();
  EXPECT_NEAR(weighted_kpi(2.0, -1.0, 1.5, -0.2, w),
              weighted_kpi(1.0, 0.0, 1.0, 0.0, w), 1e-12);
}

TEST(Kpi, FromArray) {
  const auto w = KpiWeights::from_array({0.1, 0.2, 0.3, 0.4});
  EXPECT_DOUBLE_EQ(w.w_phi, 0.1);
  EXPECT_DOUBLE_EQ(w.w_dup, 0.4);
}

TEST(PerfModel, ServiceRateFallsWithMessageSize) {
  const auto small = predict_performance(50, 1, 0);
  const auto large = predict_performance(1000, 1, 0);
  EXPECT_GT(small.mu_msgs_per_s, large.mu_msgs_per_s);
  EXPECT_GT(small.mu_normalized, large.mu_normalized);
  EXPECT_LE(small.mu_normalized, 1.0);
}

TEST(PerfModel, PollIntervalCapsRate) {
  const auto paced = predict_performance(100, 1, millis(10));
  EXPECT_NEAR(paced.mu_msgs_per_s, 100.0, 1.0);
}

TEST(PerfModel, BatchingAmortisesOverheadInPhi) {
  // Same message rate, fewer request headers per message => lower offered
  // load => lower phi.
  const auto b1 = predict_performance(100, 1, 0);
  const auto b10 = predict_performance(100, 10, 0);
  EXPECT_GT(b1.phi, b10.phi);
}

TEST(PerfModel, PhiBounded) {
  const auto p = predict_performance(10000, 1, 0);
  EXPECT_GE(p.phi, 0.0);
  EXPECT_LE(p.phi, 1.0);
}

TEST(Predictor, NormalCaseRouting) {
  testbed::Scenario sc;
  sc.packet_loss = 0.0;
  sc.network_delay = millis(100);
  EXPECT_TRUE(ReliabilityPredictor::is_normal_case(sc));
  sc.packet_loss = 0.1;
  EXPECT_FALSE(ReliabilityPredictor::is_normal_case(sc));
  sc.packet_loss = 0.0;
  sc.network_delay = millis(300);
  EXPECT_FALSE(ReliabilityPredictor::is_normal_case(sc));
}

TEST(Predictor, UntrainedThrows) {
  ReliabilityPredictor predictor;
  EXPECT_FALSE(predictor.trained());
  EXPECT_THROW(predictor.predict(testbed::Scenario{}), std::logic_error);
}

// The synthetic datasets have a known functional form; check the
// predictor learns it well enough to rank configurations.
class TrainedPredictor : public ::testing::Test {
 protected:
  static const ReliabilityPredictor& predictor() {
    return synthetic_predictor();
  }
};

TEST_F(TrainedPredictor, AccuracyMeetsPaperTarget) {
  ann::TrainConfig tc;
  tc.epochs = 150;
  tc.learning_rate = 0.5;
  tc.batch_size = 16;
  Rng rng(43);
  ReliabilityPredictor p;
  const auto result = p.train(synthetic_normal_dataset(),
                              synthetic_abnormal_dataset(), tc, rng);
  EXPECT_LT(result.normal_mae, 0.02);
  EXPECT_LT(result.abnormal_mae, 0.02);
}

TEST_F(TrainedPredictor, PredictsMonotoneInLoss) {
  testbed::Scenario lo, hi;
  lo.packet_loss = 0.05;
  hi.packet_loss = 0.45;
  lo.network_delay = hi.network_delay = millis(50);
  EXPECT_LT(predictor().predict(lo).p_loss, predictor().predict(hi).p_loss);
}

TEST_F(TrainedPredictor, PredictsBatchingBenefit) {
  testbed::Scenario b1, b10;
  b1.packet_loss = b10.packet_loss = 0.3;
  b1.batch_size = 1;
  b10.batch_size = 10;
  EXPECT_GT(predictor().predict(b1).p_loss,
            predictor().predict(b10).p_loss);
}

TEST_F(TrainedPredictor, SaveLoadRoundTrip) {
  const std::string dir = ::testing::TempDir();
  predictor().save(dir);
  ReliabilityPredictor loaded;
  loaded.load(dir);
  testbed::Scenario sc;
  sc.packet_loss = 0.25;
  const auto a = predictor().predict(sc);
  const auto b = loaded.predict(sc);
  EXPECT_NEAR(a.p_loss, b.p_loss, 1e-9);
  EXPECT_NEAR(a.p_duplicate, b.p_duplicate, 1e-9);
}

TEST_F(TrainedPredictor, ConfiguratorPrefersBatchingUnderLoss) {
  DynamicConfigurator configurator(predictor(), KpiWeights::defaults(),
                                   /*gamma_requirement=*/0.99);
  const auto workload = testbed::web_access_records();
  const auto calm = configurator.choose(
      workload, kafka::DeliverySemantics::kAtLeastOnce, millis(20), 0.0);
  const auto stormy = configurator.choose(
      workload, kafka::DeliverySemantics::kAtLeastOnce, millis(20), 0.35);
  EXPECT_GT(stormy.batch_size, calm.batch_size);
}

TEST_F(TrainedPredictor, ConfiguratorImprovesGamma) {
  DynamicConfigurator configurator(predictor(), KpiWeights::defaults(), 0.99);
  const auto workload = testbed::game_traffic();
  const DynamicParams start{1, 0, millis(1500)};
  const auto chosen = configurator.choose(
      workload, kafka::DeliverySemantics::kAtLeastOnce, millis(30), 0.3,
      start);
  const double g0 = configurator.predicted_gamma(
      workload, kafka::DeliverySemantics::kAtLeastOnce, millis(30), 0.3,
      start);
  const double g1 = configurator.predicted_gamma(
      workload, kafka::DeliverySemantics::kAtLeastOnce, millis(30), 0.3,
      chosen);
  EXPECT_GE(g1, g0);
}

TEST_F(TrainedPredictor, ScheduleCoversTrace) {
  DynamicConfigurator configurator(predictor(), KpiWeights::defaults(), 0.9);
  net::TraceGenConfig tconf;
  tconf.duration = seconds(180);
  Rng rng(44);
  const auto trace = net::generate_trace(tconf, rng);
  const auto schedule = configurator.build_schedule(
      trace, seconds(60), testbed::web_access_records(),
      kafka::DeliverySemantics::kAtLeastOnce);
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule[0].start, 0);
  EXPECT_EQ(schedule[1].start, seconds(60));
  for (const auto& e : schedule) {
    EXPECT_GE(e.params.batch_size, 1);
    EXPECT_GE(e.predicted_gamma, 0.0);
    EXPECT_LE(e.predicted_gamma, 1.0);
  }
}

// --- Condition estimator -------------------------------------------------

/// Telemetry snapshot with cumulative transport counters.
testbed::AdaptiveTelemetry snapshot(std::uint64_t data_segments,
                                    std::uint64_t retransmissions,
                                    Duration srtt) {
  testbed::AdaptiveTelemetry t;
  t.segments_sent = data_segments + retransmissions;
  t.data_segments_sent = data_segments;
  t.retransmissions = retransmissions;
  t.smoothed_rtt = srtt;
  return t;
}

TEST(ConditionEstimator, GatesWhileTheWindowIsThin) {
  ConditionEstimator est;  // min_segments = 40 by default.
  const auto first = est.update(seconds(1), snapshot(0, 0, 0));
  EXPECT_FALSE(first.confident);
  const auto second = est.update(seconds(2), snapshot(10, 1, millis(3)));
  EXPECT_FALSE(second.confident);  // Only 10 segments in the window.
  EXPECT_EQ(second.window_segments, 10u);
}

TEST(ConditionEstimator, EstimatesLossFromRetransmitDeltas) {
  ConditionEstimator est;
  est.update(seconds(1), snapshot(0, 0, 0));
  const auto e = est.update(seconds(2), snapshot(200, 60, millis(3)));
  ASSERT_TRUE(e.confident);
  EXPECT_EQ(e.window_segments, 200u);
  EXPECT_NEAR(e.loss, 60.0 / 200.0, 1e-12);
}

TEST(ConditionEstimator, LossFloorRoutesCleanRunsToTheNormalModel) {
  // A stray retransmit (1/1000 < loss_floor 0.005) must read as L == 0 so
  // the predictor's normal-network model (which requires L == 0) is used.
  ConditionEstimator est;
  est.update(seconds(1), snapshot(0, 0, 0));
  const auto e = est.update(seconds(2), snapshot(1000, 1, millis(3)));
  ASSERT_TRUE(e.confident);
  EXPECT_EQ(e.loss, 0.0);
}

TEST(ConditionEstimator, ReadsInjectedDelayOffTheSmoothedRtt) {
  ConditionEstimator est;
  const Duration base = est.config().base_rtt;
  const Duration injected = millis(120);  // One-way, so RTT grows by 2x.
  est.update(seconds(1), snapshot(0, 0, 0));
  const auto e =
      est.update(seconds(2), snapshot(100, 0, base + 2 * injected));
  ASSERT_TRUE(e.confident);
  EXPECT_EQ(e.delay, injected);
  EXPECT_EQ(e.loss, 0.0);
}

TEST(ConditionEstimator, HorizonSlidesOldTrafficOut) {
  ConditionEstimatorConfig cfg;
  cfg.horizon = seconds(4);
  ConditionEstimator est(cfg);
  est.update(seconds(1), snapshot(0, 0, 0));
  est.update(seconds(2), snapshot(500, 250, millis(3)));  // Stormy burst.
  // 10 seconds later the burst has left the window: only the calm tail
  // (the last two snapshots) backs the estimate.
  est.update(seconds(11), snapshot(900, 250, millis(3)));
  const auto e = est.update(seconds(12), snapshot(1000, 250, millis(3)));
  ASSERT_TRUE(e.confident);
  EXPECT_EQ(e.window_segments, 100u);
  EXPECT_EQ(e.loss, 0.0);
}

// --- Single-step move clamp ----------------------------------------------

TEST(DynamicConfig, ClampSingleStepMovesOneGridStepPerAxis) {
  const DynamicParams from{1, 0, millis(1500)};
  const DynamicParams target{10, millis(90), millis(5000)};
  const auto clamped = clamp_single_step(from, target);
  EXPECT_EQ(clamped.batch_size, 2);                   // 1 -> 2 on the grid.
  EXPECT_EQ(clamped.poll_interval, millis(1));        // 0 -> 1 ms.
  EXPECT_EQ(clamped.message_timeout, millis(2000));   // 1500 -> 2000 ms.
}

TEST(DynamicConfig, ClampSingleStepIsIdempotentAtTheTarget) {
  const DynamicParams at{5, millis(20), millis(1000)};
  const auto clamped = clamp_single_step(at, at);
  EXPECT_EQ(clamped.batch_size, 5);
  EXPECT_EQ(clamped.poll_interval, millis(20));
  EXPECT_EQ(clamped.message_timeout, millis(1000));
}

TEST(DynamicConfig, ClampSingleStepStepsDownToo) {
  const DynamicParams from{10, millis(90), millis(5000)};
  const DynamicParams target{1, 0, millis(500)};
  const auto clamped = clamp_single_step(from, target);
  EXPECT_EQ(clamped.batch_size, 8);
  EXPECT_EQ(clamped.poll_interval, millis(50));
  EXPECT_EQ(clamped.message_timeout, millis(3000));
}

// --- Online controller ---------------------------------------------------

/// Telemetry for a stormy network: ~30% of data segments retransmitted,
/// SRTT showing ~100 ms of injected one-way delay.
testbed::AdaptiveTelemetry stormy(std::uint64_t tick_no,
                                  const ConditionEstimatorConfig& est) {
  auto t = snapshot(200 * tick_no, 60 * tick_no,
                    est.base_rtt + 2 * millis(100));
  t.batch_size = 1;
  t.poll_interval = 0;
  t.message_timeout = millis(1500);
  return t;
}

TEST_F(TrainedPredictor, OnlineControllerGatesThenActsWithSingleStepMoves) {
  OnlineController::Config cfg;
  cfg.cooldown = seconds(3);
  OnlineController controller(predictor(), testbed::game_traffic(),
                              kafka::DeliverySemantics::kAtLeastOnce,
                              KpiWeights::defaults(),
                              /*gamma_requirement=*/0.99, cfg);
  // Tick 1: first sample, no deltas yet -> gated.
  auto d = controller.tick(seconds(1), stormy(0, cfg.estimator));
  EXPECT_FALSE(d.evaluated);
  EXPECT_FALSE(d.apply);
  // Tick 2: 200 segments at 30% retransmit -> confident, stormy network.
  d = controller.tick(seconds(2), stormy(1, cfg.estimator));
  ASSERT_TRUE(d.evaluated);
  EXPECT_NEAR(d.est_loss, 0.3, 1e-9);
  ASSERT_TRUE(d.apply);  // Batching should look much better than B=1.
  EXPECT_GT(d.chosen_gamma, d.current_gamma);
  // The applied move is at most one grid step from the live params.
  EXPECT_EQ(d.batch_size, 2);
  EXPECT_LE(d.poll_interval, millis(1));
  EXPECT_GE(d.message_timeout, millis(1000));
  EXPECT_LE(d.message_timeout, millis(2000));
}

TEST_F(TrainedPredictor, OnlineControllerHonorsTheCooldown) {
  OnlineController::Config cfg;
  cfg.cooldown = seconds(5);
  OnlineController controller(predictor(), testbed::game_traffic(),
                              kafka::DeliverySemantics::kAtLeastOnce,
                              KpiWeights::defaults(), 0.99, cfg);
  controller.tick(seconds(1), stormy(0, cfg.estimator));
  const auto applied = controller.tick(seconds(2), stormy(1, cfg.estimator));
  ASSERT_TRUE(applied.apply);
  // Within the cooldown nothing is even evaluated...
  const auto held = controller.tick(seconds(3), stormy(2, cfg.estimator));
  EXPECT_FALSE(held.evaluated);
  EXPECT_FALSE(held.apply);
  EXPECT_EQ(held.note, "cooldown");
  // ...and once it expires the controller may move again.
  const auto later = controller.tick(seconds(8), stormy(7, cfg.estimator));
  EXPECT_TRUE(later.evaluated);
}

TEST_F(TrainedPredictor, OnlineControllerDecisionsReplayDeterministically) {
  OnlineController::Config cfg;
  cfg.cooldown = seconds(3);
  const auto run = [&](std::vector<std::string>& notes) {
    OnlineController controller(predictor(), testbed::game_traffic(),
                                kafka::DeliverySemantics::kAtLeastOnce,
                                KpiWeights::defaults(), 0.99, cfg);
    for (std::uint64_t i = 0; i < 10; ++i) {
      notes.push_back(
          controller.tick(seconds(1 + i), stormy(i, cfg.estimator)).note);
    }
  };
  std::vector<std::string> a, b;
  run(a);
  run(b);
  EXPECT_EQ(a, b);
}

TEST(OnlineController, SyntheticFactoryBuildsFreshDriversPerRun) {
  testbed::Scenario sc;
  sc.adaptive_interval = millis(500);
  sc.adaptive_cooldown = seconds(2);
  const auto factory = synthetic_adaptive_factory();
  const auto driver_a = factory(sc);
  const auto driver_b = factory(sc);
  ASSERT_NE(driver_a, nullptr);
  ASSERT_NE(driver_b, nullptr);
  EXPECT_NE(driver_a.get(), driver_b.get());
  EXPECT_EQ(driver_a->interval(), millis(500));
  EXPECT_EQ(driver_a->cooldown(), seconds(2));
}

// --- Predictor persistence hardening -------------------------------------

TEST(Predictor, LoadFromMissingDirectoryLeavesItUntrained) {
  ReliabilityPredictor p;
  EXPECT_THROW(p.load("/nonexistent/predictor/dir"), std::runtime_error);
  EXPECT_FALSE(p.trained());
}

TEST_F(TrainedPredictor, LoadFailureIsAtomic) {
  const std::string dir = ::testing::TempDir() + "/corrupt_predictor";
  std::filesystem::create_directories(dir);
  predictor().save(dir);
  // Truncate one of the four artifacts mid-stream.
  {
    std::ofstream out(dir + "/abnormal.net", std::ios::trunc);
    out << "KSNN v1\n";  // Header only: layer payload missing.
  }
  // A fresh predictor must refuse the half-readable set outright...
  ReliabilityPredictor fresh;
  EXPECT_THROW(fresh.load(dir), std::runtime_error);
  EXPECT_FALSE(fresh.trained());
  // ...and an already-trained one must keep its old weights (normal.net in
  // the corrupt set parses fine — a non-atomic load would adopt it).
  const std::string intact = ::testing::TempDir() + "/intact_predictor";
  std::filesystem::create_directories(intact);
  predictor().save(intact);
  ReliabilityPredictor survivor;
  survivor.load(intact);
  ASSERT_TRUE(survivor.trained());
  testbed::Scenario sc;
  sc.packet_loss = 0.25;
  const auto before = survivor.predict(sc);
  EXPECT_THROW(survivor.load(dir), std::runtime_error);
  EXPECT_TRUE(survivor.trained());
  const auto after = survivor.predict(sc);
  EXPECT_NEAR(before.p_loss, after.p_loss, 0.0);
  EXPECT_NEAR(before.p_duplicate, after.p_duplicate, 0.0);
}

// Table II on the one testbed: the trace is the Scenario's fault schedule
// and the offline schedule an adaptive driver. Game traffic over the
// bench's 240 s Fig. 9 trace, on the synthetic predictor.
TEST(TableII, ThreeArmsRunOnTheTestbed) {
  net::TraceGenConfig tconf;
  tconf.duration = seconds(240);
  Rng trace_rng(90001);
  const auto trace = net::generate_trace(tconf, trace_rng);
  const auto workload = testbed::game_traffic();
  const auto weights = KpiWeights::from_array(workload.weights);
  const auto semantics = kafka::DeliverySemantics::kAtLeastOnce;

  auto fixed = testbed::replay_scenario(workload, trace);
  EXPECT_EQ(fixed.num_messages, 60000u);
  EXPECT_EQ(fixed.source_interval, workload.emit_interval);
  EXPECT_EQ(fixed.message_size_jitter, workload.size_jitter);
  ASSERT_EQ(fixed.faults.size(), trace.points.size());
  for (std::size_t i = 0; i < trace.points.size(); ++i) {
    const auto& f = fixed.faults[i];
    EXPECT_EQ(f.kind, testbed::FaultAction::Kind::kNetem);
    EXPECT_EQ(f.at, trace.points[i].start);
    EXPECT_EQ(f.delay, trace.points[i].delay);
    EXPECT_EQ(f.loss, trace.points[i].loss_rate);
  }
  fixed.semantics = semantics;
  fixed.seed = 4242;
  DynamicParams{}.apply_to(fixed);

  const DynamicConfigurator configurator(synthetic_predictor(), weights, 0.97);
  const auto schedule =
      configurator.build_schedule(trace, seconds(60), workload, semantics);
  ASSERT_EQ(schedule.size(), 4u);
  auto oracle = fixed;
  follow_schedule(oracle, schedule);
  EXPECT_EQ(oracle.batch_size, schedule.front().params.batch_size);
  ASSERT_TRUE(oracle.adaptive_enabled);
  EXPECT_EQ(oracle.adaptive_factory(oracle)->interval(), seconds(60));

  OnlineController::Config occ;
  occ.interval = seconds(1);
  occ.cooldown = seconds(15);
  auto live = fixed;
  live.adaptive_enabled = true;
  live.adaptive_factory =
      online_adaptive_factory(synthetic_predictor(), weights, 0.97, occ);

  const auto run_checked = [](const testbed::Scenario& sc) {
    auto r = testbed::run_experiment(sc);
    chaos::ChaosScenario cs;
    cs.scenario = sc;
    for (const auto& v : chaos::check_invariants(cs, r)) {
      ADD_FAILURE() << v.invariant << ": " << v.detail;
    }
    return r;
  };
  const auto def = run_checked(fixed);
  const auto dyn = run_checked(oracle);
  const auto online = run_checked(live);

  const auto count_kind = [](const testbed::ExperimentResult& r,
                             obs::ClusterEventKind kind) {
    return static_cast<std::size_t>(std::count_if(
        r.report.timeline.begin(), r.report.timeline.end(),
        [&](const auto& e) { return e.kind == kind; }));
  };
  EXPECT_EQ(count_kind(def, obs::ClusterEventKind::kFaultInjected),
            trace.points.size());
  EXPECT_EQ(def.report.timeline_dropped, 0u);
  EXPECT_EQ(def.adaptive_ticks, 0u);
  EXPECT_EQ(dyn.adaptive_reconfigurations, schedule.size() - 1);
  EXPECT_EQ(count_kind(dyn, obs::ClusterEventKind::kReconfigure),
            schedule.size() - 1);
  EXPECT_EQ(testbed::run_experiment(oracle).report.canonical_json(),
            dyn.report.canonical_json());
  EXPECT_LT(dyn.p_loss, def.p_loss);
  EXPECT_LT(online.p_loss, def.p_loss);
}

TEST(TableII, OneEntryScheduleLeavesTheControllerOff) {
  testbed::Scenario sc;
  ScheduleEntry only;
  only.params = {5, millis(1), millis(3000)};
  follow_schedule(sc, {only});
  EXPECT_EQ(sc.batch_size, 5);
  EXPECT_EQ(sc.poll_interval, millis(1));
  EXPECT_EQ(sc.message_timeout, millis(3000));
  EXPECT_FALSE(sc.adaptive_enabled);
}

}  // namespace
}  // namespace ks::kpi
