// Dynamic configuration end to end (Section V of the paper):
//  1. collect a small training grid on the simulated testbed (Fig. 3);
//  2. train the ANN reliability predictor;
//  3. generate a Fig. 9 network trace (Pareto delay + Gilbert-Elliott loss);
//  4. build a per-minute configuration schedule by stepwise search on the
//     predicted weighted KPI;
//  5. replay the trace through the testbed with the static default and with
//     the schedule, and compare the overall loss/duplicate rates R_l / R_d
//     (Table II style).
#include <cstdio>

#include "kpi/dynamic_config.hpp"
#include "testbed/collector.hpp"
#include "testbed/experiment.hpp"
#include "testbed/workloads.hpp"

int main() {
  using namespace ks;

  // 1-2. Train the predictor on a compact grid (a few hundred runs).
  testbed::CollectorConfig grid = testbed::CollectorConfig::quick();
  grid.num_messages = 2000;
  testbed::Collector collector(grid);
  std::printf("collecting %zu + %zu testbed runs for training...\n",
              collector.normal_grid_size(), collector.abnormal_grid_size());
  ann::TrainConfig tc;
  tc.epochs = 200;
  tc.learning_rate = 0.5;
  tc.batch_size = 16;
  Rng rng(99);
  kpi::ReliabilityPredictor predictor;
  const auto mae = predictor.train(collector.collect_normal(),
                                   collector.collect_abnormal(), tc, rng);
  std::printf("predictor trained: MAE normal %.4f / abnormal %.4f\n\n",
              mae.normal_mae, mae.abnormal_mae);

  // 3. The unstable network of Fig. 9.
  net::TraceGenConfig tconf;
  tconf.duration = seconds(240);
  Rng trace_rng(555);
  const auto trace = net::generate_trace(tconf, trace_rng);
  std::printf("network trace: %.0f s, mean delay %.1f ms, mean loss %.1f%%\n\n",
              to_seconds(trace.total_duration()),
              to_millis(trace.mean_delay()), 100 * trace.mean_loss());

  // 4-5. Evaluate on the web-access-records workload.
  const auto workload = testbed::web_access_records();
  const auto weights = kpi::KpiWeights::from_array(workload.weights);
  kpi::DynamicConfigurator configurator(predictor, weights, 0.97);
  const auto semantics = kafka::DeliverySemantics::kAtLeastOnce;
  const auto schedule =
      configurator.build_schedule(trace, seconds(60), workload, semantics);

  std::printf("schedule (checked every 60 s, stepwise gamma search):\n");
  for (const auto& entry : schedule) {
    std::printf("  t=%4.0fs  B=%-3d delta=%3.0fms T_o=%4.0fms  gamma=%.3f\n",
                to_seconds(entry.start), entry.params.batch_size,
                to_millis(entry.params.poll_interval),
                to_millis(entry.params.message_timeout),
                entry.predicted_gamma);
  }

  auto fixed = testbed::replay_scenario(workload, trace);
  fixed.semantics = semantics;
  fixed.seed = 31337;
  kpi::DynamicParams{}.apply_to(fixed);
  auto scheduled = fixed;
  kpi::follow_schedule(scheduled, schedule);

  const auto def = testbed::run_experiment(fixed);
  const auto dyn = testbed::run_experiment(scheduled);
  std::printf("\n%-22s %-10s %-10s\n", "", "R_l", "R_d");
  std::printf("%-22s %-10.4f %-10.4f\n", "static default", def.p_loss,
              def.p_duplicate);
  std::printf("%-22s %-10.4f %-10.4f\n", "dynamic schedule", dyn.p_loss,
              dyn.p_duplicate);
  return 0;
}
