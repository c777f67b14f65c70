// Multi-partition producer path: the keyed / round-robin partitioners, the
// park-and-retry PartitionRouter lanes, per-partition idempotent sequence
// spaces, and the multi-partition experiment wiring end to end (including
// the live consumer-group happy path).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "kafka/partitioner.hpp"
#include "kafka/source.hpp"
#include "sim/simulation.hpp"
#include "testbed/experiment.hpp"

namespace ks::kafka {
namespace {

TEST(Partitioner, KeyedIsDeterministicAndInRange) {
  for (int parts = 1; parts <= 7; ++parts) {
    for (Key key = 0; key < 500; ++key) {
      const int a = partition_index_for(PartitionerKind::kKeyed, key, 0, parts);
      const int b =
          partition_index_for(PartitionerKind::kKeyed, key, 99, parts);
      EXPECT_EQ(a, b) << "keyed routing must ignore the counter";
      EXPECT_GE(a, 0);
      EXPECT_LT(a, parts);
    }
  }
}

TEST(Partitioner, KeyedSpreadsAdjacentKeys) {
  // The SplitMix64 finalizer must spread sequential keys: over 4 partitions
  // and 2000 keys, no partition is starved or dominant.
  constexpr int kParts = 4;
  int counts[kParts] = {0, 0, 0, 0};
  for (Key key = 0; key < 2000; ++key) {
    ++counts[partition_index_for(PartitionerKind::kKeyed, key, 0, kParts)];
  }
  for (int p = 0; p < kParts; ++p) {
    EXPECT_GT(counts[p], 2000 / kParts / 2) << "partition " << p;
    EXPECT_LT(counts[p], 2000 / kParts * 2) << "partition " << p;
  }
}

TEST(Partitioner, RoundRobinCyclesOnTheCounter) {
  for (std::uint64_t counter = 0; counter < 12; ++counter) {
    EXPECT_EQ(partition_index_for(PartitionerKind::kRoundRobin, /*key=*/7,
                                  counter, 3),
              static_cast<int>(counter % 3));
  }
}

TEST(PartitionRouter, LanesRouteExclusivelyAndConserveRecords) {
  sim::Simulation sim(1);
  Source::Config cfg;
  cfg.total_messages = 30;
  cfg.message_size = 100;  // On-demand: always available at pull.
  Source source(sim, cfg);
  PartitionRouter router(source, 3, PartitionerKind::kKeyed);

  // Drain all lanes round-robin; every key must surface on exactly one
  // lane, and that lane must match the partitioner's pick.
  std::map<Key, int> seen;
  std::uint64_t safety = 0;
  while (seen.size() < 30 && safety++ < 1000) {
    for (int p = 0; p < 3; ++p) {
      if (auto r = router.lane(p).pull()) {
        EXPECT_EQ(partition_index_for(PartitionerKind::kKeyed, r->key, 0, 3),
                  p);
        EXPECT_TRUE(seen.emplace(r->key, p).second)
            << "key " << r->key << " surfaced twice";
      }
    }
  }
  EXPECT_EQ(seen.size(), 30u);
  std::uint64_t routed_total = 0;
  for (auto n : router.routed()) routed_total += n;
  EXPECT_EQ(routed_total, 30u);
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(router.lane(p).exhausted());
    EXPECT_FALSE(router.lane(p).pull().has_value());
  }
}

TEST(PartitionRouter, PullParksForeignRecordInsteadOfDraining) {
  sim::Simulation sim(2);
  Source::Config cfg;
  cfg.total_messages = 6;
  cfg.message_size = 100;
  Source source(sim, cfg);
  PartitionRouter router(source, 2, PartitionerKind::kRoundRobin);

  // Round-robin: key0 -> lane0, key1 -> lane1, ... Lane 0's second pull
  // hits key1 (lane 1's record): it must park it and report empty rather
  // than keep draining the upstream.
  auto r0 = router.lane(0).pull();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->key, 0u);
  EXPECT_FALSE(router.lane(0).pull().has_value());  // key1 parked on lane 1.
  EXPECT_EQ(source.stats().pulled, 2u) << "one pull per park, no draining";

  // The parked record is served from lane 1's queue without a new upstream
  // pull; lane 0 then finds its own next record (key2).
  auto r1 = router.lane(1).pull();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->key, 1u);
  EXPECT_EQ(source.stats().pulled, 2u);
  auto r2 = router.lane(0).pull();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->key, 2u);
  EXPECT_FALSE(router.lane(0).exhausted());
}

testbed::Scenario multi_partition_scenario() {
  testbed::Scenario sc;
  sc.seed = 77;
  sc.num_messages = 200;
  sc.message_size = 200;
  sc.source_mode = testbed::SourceMode::kOnDemand;
  sc.semantics = DeliverySemantics::kExactlyOnce;
  sc.message_timeout = seconds(120);
  sc.partitions = 4;
  sc.partitioner = PartitionerKind::kRoundRobin;
  return sc;
}

TEST(MultiPartitionExperiment, RoundRobinBalancesAndConservesTheCensus) {
  const auto result = testbed::run_experiment(multi_partition_scenario());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.census.delivered, 200u);
  EXPECT_EQ(result.census.lost, 0u);
  EXPECT_EQ(result.census.duplicated, 0u);
  EXPECT_EQ(result.report.scenario.int_or("partitions"), 4);
  EXPECT_EQ(result.report.scenario.str_or("partitioner"), "round_robin");
  // Round-robin over a clean network: exactly N/4 records per partition.
  double total = 0.0;
  for (int p = 0; p < 4; ++p) {
    const auto records =
        result.report.summary.at("partition_records_" + std::to_string(p));
    EXPECT_EQ(records, 50.0) << "partition " << p;
    total += records;
  }
  EXPECT_EQ(total, 200.0);
}

TEST(MultiPartitionExperiment, KeyedRoutingCoversEveryPartition) {
  auto sc = multi_partition_scenario();
  sc.partitioner = PartitionerKind::kKeyed;
  sc.partitions = 2;
  const auto result = testbed::run_experiment(sc);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.census.delivered, 200u);
  double total = 0.0;
  for (int p = 0; p < 2; ++p) {
    const auto records =
        result.report.summary.at("partition_records_" + std::to_string(p));
    EXPECT_GT(records, 0.0) << "partition " << p << " starved";
    total += records;
  }
  EXPECT_EQ(total, 200.0);
}

// Exactly-once under loss-driven retries: broker dedup state is per
// partition log, so per-partition producer sequence spaces must keep the
// census duplicate-free across all partitions at once.
TEST(MultiPartitionExperiment, PerPartitionSequencesDeduplicateUnderLoss) {
  auto sc = multi_partition_scenario();
  // TCP rides out plain loss; a tight per-request ack timeout is what
  // forces producer-level retries (and thus re-sent batches to dedup).
  sc.packet_loss = 0.25;
  sc.request_timeout = millis(120);
  sc.retries_override = 50;
  const auto result = testbed::run_experiment(sc);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.report.metric("kafka_producer_batches_retried_total"), 0.0)
      << "loss never forced a retry; the dedup path was not exercised";
  EXPECT_EQ(result.census.duplicated, 0u);
  EXPECT_EQ(result.census.lost, 0u);
  EXPECT_EQ(result.offset_gap_violations, 0u);
}

TEST(MultiPartitionExperiment, GroupHappyPathDrainsEverythingOnce) {
  auto sc = multi_partition_scenario();
  sc.partitions = 2;
  sc.group_size = 2;
  sc.group_commit_mode = CommitMode::kCommitAfterDeliver;
  const auto result = testbed::run_experiment(sc);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.group_drained);
  // No faults: every committed record delivered exactly once, commits all
  // accepted, nobody fenced, one generation per member join wave.
  EXPECT_EQ(result.group_unique_delivered, 200u);
  EXPECT_EQ(result.group_duplicate_deliveries, 0u);
  EXPECT_EQ(result.group_same_generation_dups, 0u);
  EXPECT_EQ(result.group_lost, 0u);
  EXPECT_EQ(result.group_commits_fenced, 0u);
  EXPECT_GT(result.group_commits, 0u);
  EXPECT_GE(result.group_records_fetched, 200u);
  EXPECT_EQ(result.report.scenario.int_or("group_size"), 2);
  EXPECT_EQ(result.report.summary.at("group_lost"), 0.0);
  EXPECT_EQ(result.report.summary.at("group_drained"), 1.0);
  // Committed offsets reached each partition's high watermark.
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(
        result.report.summary.at("partition_committed_" + std::to_string(p)),
        result.report.summary.at("partition_records_" + std::to_string(p)))
        << "partition " << p;
  }
}

TEST(MultiPartitionExperiment, SinglePartitionSummaryOmitsGroupKeys) {
  // A single-partition run reports its one partition like any other, but
  // without a group no group keys leak into the report.
  testbed::Scenario sc;
  sc.seed = 5;
  sc.num_messages = 50;
  sc.source_mode = testbed::SourceMode::kOnDemand;
  const auto result = testbed::run_experiment(sc);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.report.scenario.int_or("partitions"), 1);
  EXPECT_EQ(result.report.summary.at("partition_records_0"), 50.0);
  EXPECT_EQ(result.report.summary.count("group_drained"), 0u);
  EXPECT_EQ(result.report.summary.count("partition_committed_0"), 0u);
}

}  // namespace
}  // namespace ks::kafka
