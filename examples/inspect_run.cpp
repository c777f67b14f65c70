// Deep-dive one experiment: all producer/broker/link/TCP counters.
//   inspect_run <amo|alo|eos> <M bytes> <loss %> <delay ms> [N] [To ms] [B] [delta ms]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "testbed/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ks;
  testbed::Scenario sc;
  if (argc > 1) {
    if (std::strcmp(argv[1], "amo") == 0) {
      sc.semantics = kafka::DeliverySemantics::kAtMostOnce;
    } else if (std::strcmp(argv[1], "eos") == 0) {
      sc.semantics = kafka::DeliverySemantics::kExactlyOnce;
    } else {
      sc.semantics = kafka::DeliverySemantics::kAtLeastOnce;
    }
  }
  sc.message_size = argc > 2 ? std::atol(argv[2]) : 200;
  sc.packet_loss = argc > 3 ? std::atof(argv[3]) / 100.0 : 0.0;
  sc.network_delay = millis(argc > 4 ? std::atol(argv[4]) : 0);
  sc.num_messages = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 10000;
  sc.message_timeout = millis(argc > 6 ? std::atol(argv[6]) : 1500);
  sc.batch_size = argc > 7 ? std::atoi(argv[7]) : 1;
  sc.poll_interval = millis(argc > 8 ? std::atol(argv[8]) : 0);

  const auto r = testbed::run_experiment(sc);
  std::printf("scenario: %s M=%lld L=%.1f%% D=%.0fms N=%llu To=%.0fms B=%d delta=%.0fms\n",
              kafka::to_string(sc.semantics), (long long)sc.message_size,
              sc.packet_loss * 100, to_millis(sc.network_delay),
              (unsigned long long)sc.num_messages,
              to_millis(sc.message_timeout), sc.batch_size,
              to_millis(sc.poll_interval));
  std::printf("census: delivered=%llu dup=%llu lost=%llu  P_l=%.4f P_d=%.4f\n",
              (unsigned long long)r.census.delivered,
              (unsigned long long)r.census.duplicated,
              (unsigned long long)r.census.lost, r.p_loss, r.p_duplicate);
  std::printf("cases: unsent=%llu c1=%llu c2=%llu c3=%llu c4=%llu c5=%llu\n",
              (unsigned long long)r.cases.cases[0],
              (unsigned long long)r.cases.cases[1],
              (unsigned long long)r.cases.cases[2],
              (unsigned long long)r.cases.cases[3],
              (unsigned long long)r.cases.cases[4],
              (unsigned long long)r.cases.cases[5]);
  const auto m = [&r](const char* name) { return r.report.metric(name); };
  std::printf("producer: overruns=%.0f expired=%.0f resets=%.0f retried=%.0f req_timeouts=%.0f\n",
              m("kafka_source_overruns_total"),
              m("kafka_producer_records_expired_total"),
              m("kafka_producer_connection_resets_total"),
              m("kafka_producer_batches_retried_total"),
              m("kafka_producer_request_timeouts_total"));
  std::printf("perf: mu=%.0f/s phi=%.4f thru=%.0f/s latency mean=%.0fms p99=%.0fms stale=%.2f%%\n",
              r.service_rate_mu, r.bandwidth_utilization_phi,
              r.delivered_throughput, r.mean_latency_ms, r.p99_latency_ms,
              r.stale_fraction * 100);
  // The producer's connection to the leader and the link beneath it.
  std::printf("tcp: segs=%.0f retx=%.0f rtos=%.0f | link: lost=%.0f qdrop=%.0f\n",
              m("tcp_segments_sent_total{conn=\"prod0-conn0:client\"}"),
              m("tcp_retransmissions_total{conn=\"prod0-conn0:client\"}"),
              m("tcp_rto_events_total{conn=\"prod0-conn0:client\"}"),
              m("link_packets_dropped_total{link=\"prod0-broker0:a->b\","
                "cause=\"loss_model\"}"),
              m("link_packets_dropped_total{link=\"prod0-broker0:a->b\","
                "cause=\"queue_overflow\"}"));
  std::printf("run: %.1fs sim, %llu events, completed=%d\n", r.duration_s,
              (unsigned long long)r.events, r.completed ? 1 : 0);
  return 0;
}
