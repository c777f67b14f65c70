// Producer scaling (Section IV-C): an overloaded producer loses messages;
// raising the polling interval delta cures the loss but cuts throughput, so
// the paper scales producers as N_p' = N_p * (delta + d_delta) / delta to
// keep the aggregate arrival rate.
//
// This bench holds the aggregate stream rate fixed (one full-load source)
// and splits it over N_p producers, one per partition: the round-robin
// router hands each producer every N_p-th record, so each sees delta' =
// N_p * delta. Loss falls with N_p while the aggregate throughput holds.
#include <cstdio>
#include <string>

#include "bench_core/registry.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace ks;

void run_scaling_producers(bench::BenchContext& ctx) {
  const auto n = bench::messages_per_run(12000);
  std::printf("# Producer scaling (Sec. IV-C) — fixed aggregate rate split "
              "over N_p producers,\n# each with delta' = N_p * delta "
              "(at-most-once, T_o=500ms, no faults)\n\n");
  testbed::Scenario sc;
  sc.num_messages = n;
  sc.semantics = kafka::DeliverySemantics::kAtMostOnce;
  sc.message_timeout = millis(500);  // The strict T_o of Fig. 6.
  sc.partitioner = kafka::PartitionerKind::kRoundRobin;

  bench::Table table({"N_p", "P_l", "aggregate msg/s"});
  for (int np : {1, 2, 3, 4, 6}) {
    sc.partitions = np;
    const auto r = ctx.run_averaged(sc, bench::repeats());
    ctx.point({{"n_producers", static_cast<double>(np)}}, r);
    table.row({std::to_string(np), bench::pct(r.p_loss),
               bench::fmt("%.0f", r.metrics.at("delivered_throughput").mean)});
  }
  table.print();
  std::printf("\nScaling the overloaded producer preserves the aggregate "
              "arrival rate while driving the loss toward zero.\n");
}

KS_BENCH_REGISTER("scaling_producers",
                  "Sec. IV-C: producer scaling at fixed aggregate rate",
                  run_scaling_producers);

}  // namespace
