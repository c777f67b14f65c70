// Table II: the dynamic-configuration experiment. For each of the three
// workloads (social media, web access records, game traffic), run the
// Fig. 9 trace three times — with the static default configuration, with
// the offline-oracle schedule produced by stepwise search on the predicted
// weighted KPI over the *known* trace, and with the online controller
// that estimates the condition from live telemetry without ever seeing
// the trace — and report the overall loss and duplicate rates R_l, R_d.
// All three arms are `testbed::run_experiment` calls on one Scenario built
// by `testbed::replay_scenario`: the trace is its fault schedule, and the
// oracle and online arms differ only in their adaptive driver.
//
// Paper's observations to reproduce: dynamic configuration reduces R_l by
// a large factor on every workload; R_d stays small (and may tick up when
// loss is bought down with retries/batching). The repo's extension: the
// online arm should recover most of the oracle's R_l reduction — the
// `oracle_recovery` point records the recovered fraction
//   (R_l_default - R_l_online) / (R_l_default - R_l_oracle).
// The artifact's work accounting covers every run the bench makes: the
// predictor's training collection and the nine Table II runs.
#include <algorithm>
#include <cstdio>

#include "bench_core/registry.hpp"
#include "kpi/dynamic_config.hpp"
#include "kpi/online_controller.hpp"
#include "testbed/collector.hpp"
#include "testbed/experiment.hpp"
#include "testbed/workloads.hpp"

namespace {

using namespace ks;

void run_table2(bench::BenchContext& ctx) {
  const bool full = bench::full_mode();

  // 1. Train the predictor (the dynamic configurator's decision input).
  auto cconf = full ? testbed::CollectorConfig::full()
                    : testbed::CollectorConfig::quick();
  testbed::Collector collector(cconf);
  std::printf("# Table II — static default vs offline oracle vs online\n");
  std::printf("# training predictor on %zu + %zu runs...\n",
              collector.normal_grid_size(), collector.abnormal_grid_size());
  std::fflush(stdout);

  ann::TrainConfig tc;
  tc.epochs = full ? 500 : 200;
  tc.learning_rate = 0.5;
  tc.batch_size = 16;
  Rng rng(777);
  kpi::ReliabilityPredictor predictor;
  const auto train_result = predictor.train(collector.collect_normal(),
                                            collector.collect_abnormal(),
                                            tc, rng);
  std::printf("# predictor MAE: normal %.4f, abnormal %.4f\n\n",
              train_result.normal_mae, train_result.abnormal_mae);
  std::fflush(stdout);
  ctx.account(collector.sim_seconds(), collector.sim_events(),
              collector.runs());

  // 2. The Fig. 9 network trace.
  net::TraceGenConfig tconf;
  tconf.duration = full ? seconds(600) : seconds(240);
  Rng trace_rng(90001);
  const auto trace = net::generate_trace(tconf, trace_rng);

  bench::Table table({"workload", "weights", "R_l default", "R_l oracle",
                      "R_l online", "R_d default", "R_d oracle", "R_d online",
                      "recovered", "moves"});
  int workload_index = 0;
  for (const auto& workload : {testbed::social_media(),
                               testbed::web_access_records(),
                               testbed::game_traffic()}) {
    const auto weights = kpi::KpiWeights::from_array(workload.weights);
    kpi::DynamicConfigurator configurator(predictor, weights,
                                          /*gamma_requirement=*/0.97);

    const auto semantics = kafka::DeliverySemantics::kAtLeastOnce;
    const auto schedule =
        configurator.build_schedule(trace, seconds(60), workload, semantics);

    auto fixed = testbed::replay_scenario(workload, trace);
    fixed.semantics = semantics;
    fixed.seed = 4242;
    kpi::DynamicParams{}.apply_to(fixed);

    auto oracle = fixed;
    kpi::follow_schedule(oracle, schedule);

    // The online arm: same trace, same seed, but the controller only sees
    // live telemetry. The cooldown matches the oracle's 60 s check interval
    // spirit but reacts faster; single-step moves keep it from thrashing.
    kpi::OnlineController::Config occ;
    occ.interval = seconds(1);
    occ.cooldown = seconds(15);
    auto live = fixed;
    live.adaptive_enabled = true;
    live.adaptive_factory = kpi::online_adaptive_factory(
        predictor, weights, /*gamma_requirement=*/0.97, occ);

    const auto def = testbed::run_experiment(fixed);
    const auto dyn = testbed::run_experiment(oracle);
    const auto online = testbed::run_experiment(live);
    for (const auto* run : {&def, &dyn, &online}) {
      ctx.account(run->duration_s, run->events, 1);
    }

    const double oracle_gain = def.p_loss - dyn.p_loss;
    const double online_gain = def.p_loss - online.p_loss;
    // Recovered fraction of the oracle's R_l reduction; clamped into
    // [0, 2] so a tiny oracle gain cannot blow the point up.
    const double recovery =
        oracle_gain > 1e-12
            ? std::clamp(online_gain / oracle_gain, 0.0, 2.0)
            : (online_gain >= 0.0 ? 1.0 : 0.0);

    ctx.point(
        {{"workload", static_cast<double>(workload_index++)}},
        {{"r_loss_default", {def.p_loss, 0.0}},
         {"r_loss_dynamic", {dyn.p_loss, 0.0}},
         {"r_loss_online", {online.p_loss, 0.0}},
         {"r_dup_default", {def.p_duplicate, 0.0}},
         {"r_dup_dynamic", {dyn.p_duplicate, 0.0}},
         {"r_dup_online", {online.p_duplicate, 0.0}},
         {"reconfigs", {static_cast<double>(schedule.size()), 0.0}},
         {"online_reconfigs",
          {static_cast<double>(online.adaptive_reconfigurations), 0.0}},
         {"oracle_recovery", {recovery, 0.0}}});

    char wbuf[48];
    std::snprintf(wbuf, sizeof(wbuf), "%.1f,%.1f,%.1f,%.1f",
                  workload.weights[0], workload.weights[1],
                  workload.weights[2], workload.weights[3]);
    char rbuf[16];
    std::snprintf(rbuf, sizeof(rbuf), "%.0f%%", recovery * 100.0);
    table.row({workload.name, wbuf, bench::pct(def.p_loss),
               bench::pct(dyn.p_loss), bench::pct(online.p_loss),
               bench::pct(def.p_duplicate), bench::pct(dyn.p_duplicate),
               bench::pct(online.p_duplicate), rbuf,
               std::to_string(online.adaptive_reconfigurations)});
    std::fflush(stdout);
  }
  table.print();
}

KS_BENCH_REGISTER_SLOW("table2_dynamic",
                       "Table II: static vs offline oracle vs online control",
                       run_table2);

}  // namespace
