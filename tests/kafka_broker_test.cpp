// Broker, source, cluster and consumer tests.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "kafka/cluster.hpp"
#include "kafka_test_rig.hpp"

namespace ks::kafka {
namespace {

using testutil::Rig;
using testutil::RigConfig;

TEST(Source, OnDemandProducesAllKeys) {
  sim::Simulation sim(1);
  Source source(sim, {.total_messages = 5, .message_size = 77});
  for (Key k = 0; k < 5; ++k) {
    auto r = source.pull();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key, k);
    EXPECT_EQ(r->value_size, 77);
  }
  EXPECT_FALSE(source.pull().has_value());
  EXPECT_TRUE(source.exhausted());
}

TEST(Source, RealTimeEmitsOnSchedule) {
  sim::Simulation sim(1);
  Source source(sim, {.total_messages = 10, .emit_interval = millis(10)});
  source.start();
  // The first message is emitted immediately, then one per interval.
  sim.run(millis(35));
  EXPECT_EQ(source.buffered(), 4u);  // t=0,10,20,30 (fifth at t=40).
  auto r = source.pull();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->created_at, 0);  // Stamped at emission.
}

TEST(Source, RingOverrunDropsOldest) {
  sim::Simulation sim(1);
  Source source(sim, {.total_messages = 100,
                      .emit_interval = millis(1),
                      .buffer_capacity = 10});
  source.start();
  sim.run(seconds(1));
  EXPECT_EQ(source.buffered(), 10u);
  EXPECT_EQ(source.stats().overrun_dropped, 90u);
  auto r = source.pull();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->key, 90u);  // Oldest survivors only.
}

TEST(Source, SizeJitterStaysPositive) {
  sim::Simulation sim(1);
  Source source(sim, {.total_messages = 1000,
                      .message_size = 10,
                      .size_jitter = 50});
  while (auto r = source.pull()) {
    EXPECT_GE(r->value_size, 1);
    EXPECT_LE(r->value_size, 60);
  }
}

TEST(Broker, ServesFetchAfterProduce) {
  RigConfig config;
  config.messages = 100;
  Rig rig(config);
  rig.run();
  ASSERT_EQ(rig.log().log_end_offset(), 100);

  // Attach a consumer over a second connection.
  net::DuplexLink clink(rig.sim, {.bandwidth_bps = 100e6},
                        std::make_shared<net::ConstantDelay>(millis(1)),
                        std::make_shared<net::NoLoss>(),
                        std::make_shared<net::ConstantDelay>(millis(1)),
                        std::make_shared<net::NoLoss>(), "consumer");
  tcp::Pair cconn(rig.sim, {}, clink, "consumer");
  rig.broker.attach(cconn.server);

  Consumer consumer(rig.sim, {}, cconn.client, /*partition=*/0);
  std::vector<Key> keys;
  consumer.on_record = [&](const FetchedRecord& r) { keys.push_back(r.key); };
  bool drained = false;
  consumer.on_drained = [&] { drained = true; };
  consumer.start();
  consumer.drain_until(100);
  rig.sim.run(rig.sim.now() + seconds(30));

  EXPECT_TRUE(drained);
  ASSERT_EQ(keys.size(), 100u);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(keys[k], k);
  EXPECT_GT(rig.broker.stats().fetch_requests, 0u);
}

TEST(Broker, BadRegimeSlowsService) {
  // Same workload with and without regimes: the stalled broker takes
  // longer to drain the same produce stream.
  auto run_with = [](bool regimes) {
    RigConfig config;
    config.messages = 2000;
    config.source_interval = millis(1);
    config.broker.request_overhead = micros(800);
    config.broker.regime.enabled = regimes;
    config.broker.regime.mean_good = millis(100);
    config.broker.regime.mean_bad = millis(100);
    config.broker.bad_slowdown = 50.0;
    Rig rig(config);
    rig.run(seconds(1200));
    return rig.sim.now() - seconds(10);  // Strip the fixed drain tail.
  };
  EXPECT_GT(run_with(true), run_with(false) * 3 / 2);
}

TEST(Broker, StatsCountRequests) {
  RigConfig config;
  config.messages = 500;
  config.producer.batch_size = 5;
  Rig rig(config);
  rig.run();
  EXPECT_EQ(rig.broker.stats().records_appended, 500u);
  EXPECT_GE(rig.broker.stats().produce_requests, 100u);
  EXPECT_GT(rig.broker.stats().bytes_appended, 0);
}

TEST(Broker, OnAppendObserverFires) {
  RigConfig config;
  config.messages = 50;
  Rig rig(config);
  std::set<Key> seen;
  rig.broker.on_append = [&](std::int32_t partition, const Record& r,
                             std::int64_t offset) {
    EXPECT_EQ(partition, 0);
    EXPECT_GE(offset, 0);
    seen.insert(r.key);
  };
  rig.run();
  EXPECT_EQ(seen.size(), 50u);
}

TEST(Source, FirstKeyOffsetsRange) {
  sim::Simulation sim(1);
  Source source(sim, {.total_messages = 3, .first_key = 100});
  EXPECT_EQ(source.pull()->key, 100u);
  EXPECT_EQ(source.pull()->key, 101u);
  EXPECT_EQ(source.pull()->key, 102u);
  EXPECT_FALSE(source.pull().has_value());
  EXPECT_TRUE(source.exhausted());
}

TEST(Broker, FailStopsServiceResumeContinues) {
  RigConfig config;
  config.messages = 300;
  config.source_interval = millis(2);
  config.producer.message_timeout = seconds(300);
  Rig rig(config);
  rig.broker.start();
  rig.source.start();
  rig.producer.start();
  rig.sim.at(millis(100), [&] { rig.broker.fail(); });
  rig.sim.run_for(millis(400));
  EXPECT_TRUE(rig.broker.is_down());
  const auto appended_during_outage = rig.broker.stats().records_appended;
  rig.sim.run_for(millis(300));
  EXPECT_EQ(rig.broker.stats().records_appended, appended_during_outage);
  rig.broker.resume();
  while (!rig.producer.finished() && rig.sim.now() < seconds(120)) {
    rig.sim.run_for(millis(200));
  }
  rig.sim.run_for(seconds(5));
  EXPECT_EQ(rig.log().log_end_offset(), 300);  // Nothing lost, just late.
}

TEST(Cluster, TopicPartitionsRoundRobin) {
  sim::Simulation sim(1);
  Cluster cluster(sim, {.num_brokers = 3});
  cluster.create_topic("t", 5);
  const auto& refs = cluster.topic("t");
  ASSERT_EQ(refs.size(), 5u);
  EXPECT_EQ(refs[0].leader, 0);
  EXPECT_EQ(refs[1].leader, 1);
  EXPECT_EQ(refs[2].leader, 2);
  EXPECT_EQ(refs[3].leader, 0);
  // Partition ids are cluster-global and unique.
  std::set<std::int32_t> ids;
  for (const auto& r : refs) ids.insert(r.id);
  EXPECT_EQ(ids.size(), 5u);
}

TEST(Cluster, UnknownTopicThrows) {
  sim::Simulation sim(1);
  Cluster cluster(sim, {.num_brokers = 1});
  EXPECT_THROW(cluster.topic("nope"), std::out_of_range);
}

TEST(Cluster, CensusCountsKeyMultiplicity) {
  sim::Simulation sim(1);
  Cluster cluster(sim, {.num_brokers = 2});
  cluster.create_topic("t", 1);
  auto& log = cluster.leader_of("t", 0).create_partition(
      cluster.partition_id("t", 0));
  std::vector<Record> batch = {{0, 10, 0, 0}, {1, 10, 0, 0}, {1, 10, 0, 0}};
  log.append(batch, 0);
  const auto census = cluster.census("t", 4);
  EXPECT_EQ(census.delivered, 1u);   // Key 0.
  EXPECT_EQ(census.duplicated, 1u);  // Key 1 twice.
  EXPECT_EQ(census.lost, 2u);        // Keys 2, 3.
  EXPECT_DOUBLE_EQ(census.p_loss(), 0.5);
  EXPECT_DOUBLE_EQ(census.p_duplicate(), 0.25);
  EXPECT_EQ(census.appended_records, 3u);
}

TEST(Consumer, PollsWhenCaughtUpThenDrains) {
  RigConfig config;
  config.messages = 200;
  config.source_interval = millis(2);
  Rig rig(config);

  net::DuplexLink clink(rig.sim, {.bandwidth_bps = 100e6},
                        std::make_shared<net::ConstantDelay>(millis(1)),
                        std::make_shared<net::NoLoss>(),
                        std::make_shared<net::ConstantDelay>(millis(1)),
                        std::make_shared<net::NoLoss>(), "consumer");
  tcp::Pair cconn(rig.sim, {}, clink, "consumer");
  rig.broker.attach(cconn.server);
  Consumer consumer(rig.sim, {}, cconn.client, 0);
  std::vector<std::int64_t> offsets;
  consumer.on_record = [&](const FetchedRecord& r) {
    offsets.push_back(r.offset);
  };
  bool drained = false;
  consumer.on_drained = [&] { drained = true; };

  // Start consumer BEFORE the producer finishes: it must tail the log.
  rig.broker.start();
  rig.source.start();
  rig.producer.start();
  consumer.start();
  while (!rig.producer.finished() && rig.sim.now() < seconds(300)) {
    rig.sim.run(rig.sim.now() + millis(100));
  }
  consumer.drain_until(rig.log().log_end_offset());
  rig.sim.run(rig.sim.now() + seconds(30));

  EXPECT_TRUE(drained);
  ASSERT_EQ(offsets.size(), 200u);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i], static_cast<std::int64_t>(i));
  }
}

}  // namespace
}  // namespace ks::kafka
