// Quickstart: run one producer experiment on the simulated testbed and
// print the paper's reliability metrics.
//
//   $ quickstart [loss_rate] [delay_ms]
//
// Builds a 3-broker cluster, injects the given network condition on the
// producer's egress, streams 20k keyed messages through an at-least-once
// producer, and reports the key census (P_l, P_d), the Table I case
// breakdown, and the KPI inputs.
#include <cstdio>
#include <cstdlib>

#include "kpi/kpi.hpp"
#include "kpi/perf_model.hpp"
#include "testbed/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ks;

  testbed::Scenario scenario;
  scenario.message_size = 200;
  scenario.semantics = kafka::DeliverySemantics::kAtLeastOnce;
  scenario.message_timeout = millis(1500);
  scenario.num_messages = 20000;
  scenario.packet_loss = argc > 1 ? std::atof(argv[1]) : 0.10;
  scenario.network_delay = millis(argc > 2 ? std::atol(argv[2]) : 100);

  std::printf("kafkasim quickstart\n");
  std::printf("  messages: %llu x %lld bytes, semantics: %s\n",
              static_cast<unsigned long long>(scenario.num_messages),
              static_cast<long long>(scenario.message_size),
              kafka::to_string(scenario.semantics));
  std::printf("  injected: delay %.0f ms, loss %.1f%%\n",
              to_millis(scenario.network_delay),
              scenario.packet_loss * 100.0);

  const auto r = testbed::run_experiment(scenario);

  std::printf("\nreliability (key census, as in the paper):\n");
  std::printf("  P_l = %.4f   P_d = %.4f\n", r.p_loss, r.p_duplicate);
  std::printf("  delivered %llu, duplicated %llu, lost %llu of %llu\n",
              static_cast<unsigned long long>(r.census.delivered),
              static_cast<unsigned long long>(r.census.duplicated),
              static_cast<unsigned long long>(r.census.lost),
              static_cast<unsigned long long>(r.census.total_keys));

  std::printf("\nmessage states (Table I):\n");
  const char* names[] = {"unsent", "Case1 (I)", "Case2 (II)",
                         "Case3 (II->r*III)", "Case4 (..->IV)",
                         "Case5 (duplicated)"};
  for (int c = 0; c < 6; ++c) {
    std::printf("  %-20s %llu\n", names[c],
                static_cast<unsigned long long>(r.cases.cases[static_cast<std::size_t>(c)]));
  }

  const auto perf = kpi::predict_performance(scenario.message_size,
                                             scenario.batch_size,
                                             scenario.poll_interval);
  const double gamma =
      kpi::weighted_kpi(r.bandwidth_utilization_phi, perf.mu_normalized,
                        r.p_loss, r.p_duplicate, kpi::KpiWeights::defaults());
  std::printf("\nperformance / KPI:\n");
  std::printf("  mu = %.0f msg/s, phi = %.4f, gamma (default weights) = %.3f\n",
              r.service_rate_mu, r.bandwidth_utilization_phi, gamma);
  std::printf("  mean latency %.1f ms, p99 %.1f ms, stale %.2f%%\n",
              r.mean_latency_ms, r.p99_latency_ms, r.stale_fraction * 100);
  std::printf("  run: %.1f s simulated, %llu events, resets %.0f, retries %.0f\n",
              r.duration_s, static_cast<unsigned long long>(r.events),
              r.report.metric("kafka_producer_connection_resets_total"),
              r.report.metric("kafka_producer_batches_retried_total"));

  // Structured run artifact: the full metric snapshot (every layer), the
  // sampled time series and the per-message trace, for offline analysis.
  const char* report_path = "quickstart_report.json";
  if (r.report.write_json(report_path)) {
    std::printf("\nrun report written to %s\n", report_path);
    std::printf("  %zu metrics, %zu histograms, %zu time series, "
                "%zu trace events (1 in %llu keys)\n",
                r.report.metrics.size(), r.report.histograms.size(),
                r.report.series.size(), r.report.trace.size(),
                static_cast<unsigned long long>(r.report.trace_sample_every));
  }
  return 0;
}
