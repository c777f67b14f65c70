// Bank transactions require exactly-once delivery: "a bank transfer
// processed twice" is the paper's canonical duplication failure.
//
// This example runs the same unreliable network twice — once with a plain
// at-least-once producer (duplicates appear under retries) and once with
// the idempotent exactly-once producer (broker-side sequence dedup) — and
// audits the ledger (the topic's committed log) for double-applied
// transfers.
#include <cstdio>

#include "testbed/experiment.hpp"

int main() {
  using namespace ks;
  std::printf("Bank transfers over a lossy WAN (8%% loss, eager retries)\n\n");

  // 5,000 transfer records of 300 bytes, pulled from a durable transaction
  // queue (on-demand: a bank feed waits rather than overwriting).
  testbed::Scenario sc;
  sc.seed = 7777;
  sc.num_messages = 5000;
  sc.message_size = 300;
  sc.source_mode = testbed::SourceMode::kOnDemand;
  sc.network_delay = millis(10);
  sc.packet_loss = 0.08;
  // Transfers must not be dropped: a generous delivery timeout and eager
  // retries (which is exactly what makes duplicates likely without
  // idempotence).
  sc.message_timeout = seconds(120);
  sc.request_timeout = millis(300);
  sc.retries_override = 20;

  for (auto semantics : {kafka::DeliverySemantics::kAtLeastOnce,
                         kafka::DeliverySemantics::kExactlyOnce}) {
    sc.semantics = semantics;
    const auto census = testbed::run_experiment(sc).census;
    std::printf("%s:\n",
                semantics == kafka::DeliverySemantics::kExactlyOnce
                    ? "exactly-once (idempotent producer, acks=all)"
                    : "at-least-once (acks=1, retries)");
    std::printf("  applied: %llu, DOUBLE-APPLIED: %llu, missing: %llu\n\n",
                static_cast<unsigned long long>(census.total_keys -
                                                census.lost),
                static_cast<unsigned long long>(census.duplicated),
                static_cast<unsigned long long>(census.lost));
  }
  std::printf("Idempotent sequence numbers make retries safe: the broker "
              "drops replayed batches, so no transfer posts twice.\n");
  return 0;
}
