// ANN prediction accuracy (Section III-G, and the predicted-vs-measured
// comparisons shown in Figs. 4-6).
//
// Collects training data with the Fig. 3 two-phase scheme (normal-network
// and faulty-network grids), trains the paper's MLP (hidden layers
// 200/200/200/64, sigmoid outputs, SGD) and reports the held-out MAE —
// the paper's accuracy target is MAE < 0.02 — plus sample
// predicted-vs-measured rows for each figure's sweep.
#include <cstdio>

#include "bench_core/registry.hpp"
#include "kpi/predictor.hpp"
#include "testbed/collector.hpp"

namespace {

using namespace ks;

void run_ann_accuracy(bench::BenchContext& ctx) {
  const bool full = bench::full_mode();

  auto config = full ? testbed::CollectorConfig::full()
                     : testbed::CollectorConfig::quick();
  testbed::Collector collector(config);

  std::printf("# ANN accuracy — Fig. 3 collection + paper MLP\n");
  std::printf("# grids: %zu normal runs, %zu abnormal runs, %llu msgs/run\n",
              collector.normal_grid_size(), collector.abnormal_grid_size(),
              static_cast<unsigned long long>(config.num_messages));
  std::fflush(stdout);

  auto normal = collector.collect_normal();
  std::printf("# normal dataset: %zu rows\n", normal.size());
  std::fflush(stdout);
  auto abnormal = collector.collect_abnormal();
  std::printf("# abnormal dataset: %zu rows\n\n", abnormal.size());
  std::fflush(stdout);
  ctx.account(collector.sim_seconds(), collector.sim_events(),
              collector.runs());

  ann::TrainConfig tc;
  tc.epochs = full ? 600 : 400;
  tc.learning_rate = 0.5;  // The paper's SGD learning rate.
  tc.batch_size = 16;

  Rng rng(12345);
  kpi::ReliabilityPredictor predictor;
  // Keep copies for the predicted-vs-measured table below.
  auto normal_copy = normal;
  auto abnormal_copy = abnormal;
  const auto train_result =
      predictor.train(std::move(normal), std::move(abnormal), tc, rng);

  std::printf("held-out MAE: normal %.4f, abnormal %.4f (paper target <0.02)\n\n",
              train_result.normal_mae, train_result.abnormal_mae);
  ctx.point({},
            {{"normal_mae", {train_result.normal_mae, 0.0}},
             {"abnormal_mae", {train_result.abnormal_mae, 0.0}}});

  // Predicted vs measured samples (the paper's Figs. 4-6 overlay).
  std::printf("## predicted vs measured (abnormal grid samples)\n");
  bench::Table table({"M", "D(ms)", "L", "sem", "B", "P_l meas", "P_l pred",
                      "P_d meas", "P_d pred"});
  abnormal_copy.finalize();
  const std::size_t step =
      std::max<std::size_t>(1, abnormal_copy.size() / 12);
  for (std::size_t i = 0; i < abnormal_copy.size(); i += step) {
    testbed::Scenario sc;
    sc.message_size = static_cast<Bytes>(abnormal_copy.x(i, 0));
    sc.network_delay = millis(static_cast<std::int64_t>(abnormal_copy.x(i, 1)));
    sc.packet_loss = abnormal_copy.x(i, 2);
    sc.semantics = abnormal_copy.x(i, 3) < 0.5
                       ? kafka::DeliverySemantics::kAtMostOnce
                       : kafka::DeliverySemantics::kAtLeastOnce;
    sc.batch_size = static_cast<int>(abnormal_copy.x(i, 4));
    const auto pred = predictor.predict(sc);
    table.row({bench::fmt("%.0f", abnormal_copy.x(i, 0)),
               bench::fmt("%.0f", abnormal_copy.x(i, 1)),
               bench::pct(abnormal_copy.x(i, 2)),
               abnormal_copy.x(i, 3) < 0.5 ? "AMO" : "ALO",
               bench::fmt("%.0f", abnormal_copy.x(i, 4)),
               bench::pct(abnormal_copy.y(i, 0)), bench::pct(pred.p_loss),
               bench::pct(abnormal_copy.y(i, 1)),
               bench::pct(pred.p_duplicate)});
  }
  table.print();
}

KS_BENCH_REGISTER_SLOW("ann_accuracy",
                       "Sec. III-G: ANN held-out MAE vs the paper's target",
                       run_ann_accuracy);

}  // namespace
