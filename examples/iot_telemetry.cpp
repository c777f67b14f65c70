// IoT telemetry over a flaky wireless uplink (Gilbert-Elliott loss).
//
// Scenario from the paper's motivation: sensors push small readings
// through a Kafka producer whose uplink suffers bursty wireless loss.
// This example compares delivery semantics and batching side by side and
// prints the resulting reliability metrics — the decision the paper's
// prediction model automates.
#include <cstdio>

#include "testbed/experiment.hpp"

int main() {
  using namespace ks;
  using K = testbed::FaultAction::Kind;

  // Wireless uplink from t = 0: 10 Mbit/s, 15 ms one-way delay and bursty
  // Gilbert-Elliott loss averaging ~7%.
  testbed::FaultAction uplink;
  uplink.kind = K::kGilbertElliott;
  uplink.delay = millis(15);
  uplink.ge.p_good_to_bad = 0.004;
  uplink.ge.p_bad_to_good = 0.05;
  uplink.ge.loss_good = 0.005;
  uplink.ge.loss_bad = 0.25;
  testbed::FaultAction line_rate;
  line_rate.kind = K::kBandwidth;
  line_rate.bandwidth_bps = 10e6;

  // 20k sensor readings of ~120 bytes, one every 5 ms.
  testbed::Scenario sc;
  sc.seed = 2024;
  sc.num_messages = 20000;
  sc.message_size = 120;
  sc.message_size_jitter = 40;
  sc.source_interval = millis(5);
  sc.message_timeout = millis(4000);  // Stale telemetry is useless.
  sc.request_timeout = millis(700);
  sc.faults = {uplink, line_rate};

  std::printf("IoT telemetry over a bursty wireless uplink (GE loss ~7%%)\n");
  std::printf("%-15s %-6s %-10s %-10s\n", "semantics", "B", "P_l", "P_d");
  for (auto semantics : {kafka::DeliverySemantics::kAtMostOnce,
                         kafka::DeliverySemantics::kAtLeastOnce,
                         kafka::DeliverySemantics::kExactlyOnce}) {
    for (int batch : {1, 8}) {
      sc.semantics = semantics;
      sc.batch_size = batch;
      const auto r = testbed::run_experiment(sc);
      std::printf("%-15s %-6d %-10.4f %-10.4f\n", kafka::to_string(semantics),
                  batch, r.p_loss, r.p_duplicate);
    }
  }
  std::printf("\nTakeaway (paper Sec. VI): batch small sensor readings: at "
              "B = 8 the ack-paced producers keep up with the stream and "
              "lose nothing. Idempotence removes the duplicates that "
              "at-least-once retries add. Over this uplink TCP alone carries "
              "acks=0 through the bursts.\n");
  return 0;
}
