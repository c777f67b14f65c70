// Broker-failure scenarios (the paper's explicit future work): inject a
// fail-stop outage on the leader mid-run and compare delivery semantics.
// A short outage is invisible to every semantics. A long one freezes the
// ack-paced producers until the real-time source overruns its ring, while
// the acks=0 flood keeps sending and loses the least.
#include <cstdio>

#include "bench_core/registry.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace ks;

testbed::FaultAction broker0(TimePoint at, testbed::FaultAction::Kind kind) {
  testbed::FaultAction f;
  f.at = at;
  f.kind = kind;
  f.broker = 0;  // The leader of the topic's one partition.
  return f;
}

void run_ablation_broker_failure(bench::BenchContext& ctx) {
  const auto n = bench::messages_per_run(10000);
  std::printf("# Ablation — leader fail-stop outage mid-run (no network "
              "faults)\n");
  std::printf("# stream: %llu x 200B at 250/s; outage starts at the stream "
              "midpoint\n\n",
              static_cast<unsigned long long>(n));
  testbed::Scenario sc;
  sc.num_messages = n;
  sc.seed = 90001;
  sc.source_interval = millis(4);
  sc.message_timeout = seconds(30);
  sc.request_timeout = millis(800);
  sc.retries_override = 20;
  sc.broker_regimes = false;
  const TimePoint mid = sc.source_interval * static_cast<TimePoint>(n) / 2;

  bench::Table table({"semantics", "outage (s)", "T_o (ms)", "P_l", "P_d",
                      "resets"});
  for (auto semantics : {kafka::DeliverySemantics::kAtMostOnce,
                         kafka::DeliverySemantics::kAtLeastOnce,
                         kafka::DeliverySemantics::kExactlyOnce}) {
    sc.semantics = semantics;
    for (auto outage : {seconds(2), seconds(8)}) {
      using K = testbed::FaultAction::Kind;
      sc.faults = {broker0(mid, K::kBrokerFail),
                   broker0(mid + outage, K::kBrokerResume)};
      const auto r = testbed::run_experiment(sc);
      const double resets =
          r.report.metric("kafka_producer_connection_resets_total");
      ctx.account(r.duration_s, r.events, 1);
      ctx.point({{"semantics", static_cast<double>(semantics)},
                 {"outage_s", to_seconds(outage)}},
                {{"p_loss", {r.p_loss, 0.0}},
                 {"p_duplicate", {r.p_duplicate, 0.0}},
                 {"connection_resets", {resets, 0.0}}});
      table.row({kafka::to_string(semantics),
                 bench::fmt("%.0f", to_seconds(outage)), "30000",
                 bench::pct(r.p_loss), bench::pct(r.p_duplicate),
                 bench::fmt("%.0f", resets)});
    }
  }
  table.print();
  std::printf("\nFail-stop outages flip the usual ordering: the acks=0 "
              "flood keeps sending into TCP and its queue through the "
              "outage, while ack-paced producers freeze their admission "
              "window, so once the outage outlasts the upstream ring the "
              "real-time stream overruns it and acks=0 loses the least.\n");
}

KS_BENCH_REGISTER("ablation_broker_failure",
                  "Ablation: leader fail-stop outage mid-run per semantics",
                  run_ablation_broker_failure);

}  // namespace
