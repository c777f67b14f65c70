// End-to-end integration tests across the full stack: cluster + NetEm +
// TCP + producer + consumer, checked against the paper's measurement
// methodology (consumer-side key census).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "kafka/cluster.hpp"
#include "kafka/consumer.hpp"
#include "kafka/producer.hpp"
#include "kafka/source.hpp"
#include "net/netem.hpp"
#include "sim/simulation.hpp"
#include "tcp/endpoint.hpp"
#include "testbed/experiment.hpp"

namespace ks {
namespace {

// Full pipeline with a real consumer draining over TCP: the consumer's view
// must match the cluster-side census exactly.
TEST(Integration, ConsumerCensusMatchesLogCensus) {
  sim::Simulation sim(7);
  kafka::Cluster cluster(sim, {.num_brokers = 3});
  cluster.create_topic("t", 1);
  auto& leader = cluster.leader_of("t", 0);
  const auto partition = cluster.partition_id("t", 0);

  net::DuplexLink plink(sim, {.bandwidth_bps = 100e6},
                        std::make_shared<net::ConstantDelay>(millis(2)),
                        std::make_shared<net::BernoulliLoss>(0.15),
                        std::make_shared<net::ConstantDelay>(millis(2)),
                        std::make_shared<net::NoLoss>(), "p");
  tcp::Pair pconn(sim, {}, plink, "p");
  leader.attach(pconn.server);

  kafka::Source source(sim, {.total_messages = 1000, .message_size = 150});
  auto pc = kafka::ProducerConfig::at_least_once();
  pc.message_timeout = seconds(300);
  kafka::Producer producer(sim, pc, pconn.client, source, partition);

  cluster.start();
  producer.start();
  while (!producer.finished() && sim.now() < seconds(600)) {
    sim.run(sim.now() + millis(200));
  }
  ASSERT_TRUE(producer.finished());
  sim.run(sim.now() + seconds(10));

  // Consume everything over a clean link.
  net::DuplexLink clink(sim, {.bandwidth_bps = 100e6},
                        std::make_shared<net::ConstantDelay>(millis(1)),
                        std::make_shared<net::NoLoss>(),
                        std::make_shared<net::ConstantDelay>(millis(1)),
                        std::make_shared<net::NoLoss>(), "c");
  tcp::Pair cconn(sim, {}, clink, "c");
  leader.attach(cconn.server);
  kafka::Consumer consumer(sim, {}, cconn.client, partition);
  std::vector<std::uint32_t> counts(1000, 0);
  consumer.on_record = [&](const kafka::FetchedRecord& r) {
    ASSERT_LT(r.key, 1000u);
    ++counts[r.key];
  };
  bool drained = false;
  consumer.on_drained = [&] { drained = true; };
  consumer.start();
  consumer.drain_until(leader.partition(partition)->log_end_offset());
  sim.run(sim.now() + seconds(60));
  ASSERT_TRUE(drained);

  std::uint64_t delivered = 0, duplicated = 0, lost = 0;
  for (auto c : counts) {
    if (c == 0) ++lost;
    else if (c == 1) ++delivered;
    else ++duplicated;
  }
  const auto census = cluster.census("t", 1000);
  EXPECT_EQ(delivered, census.delivered);
  EXPECT_EQ(duplicated, census.duplicated);
  EXPECT_EQ(lost, census.lost);
  // At-least-once with generous timeout on a recoverable network: no loss.
  EXPECT_EQ(lost, 0u);
}

TEST(Integration, ExactlyOnceEliminatesDuplicatesUnderRetries) {
  testbed::Scenario sc;
  sc.num_messages = 2500;
  sc.packet_loss = 0.2;
  sc.network_delay = millis(40);
  sc.message_timeout = millis(2500);
  sc.request_timeout = millis(500);
  sc.seed = 11;

  sc.semantics = kafka::DeliverySemantics::kAtLeastOnce;
  const auto alo = testbed::run_experiment(sc);
  sc.semantics = kafka::DeliverySemantics::kExactlyOnce;
  const auto eos = testbed::run_experiment(sc);

  EXPECT_GT(alo.census.duplicated, 0u) << "scenario too gentle to retry";
  EXPECT_EQ(eos.census.duplicated, 0u);
  EXPECT_GT(eos.report.metric("kafka_broker_batches_deduplicated_total"), 0.0);
}

TEST(Integration, AtLeastOnceBeatsAtMostOnceUnderFaults) {
  testbed::Scenario sc;
  sc.num_messages = 6000;
  sc.packet_loss = 0.19;
  sc.network_delay = millis(100);
  sc.message_timeout = millis(2000);
  sc.seed = 12;

  double amo_loss = 0.0, alo_loss = 0.0;
  for (std::uint64_t seed : {12u, 13u, 14u}) {
    sc.seed = seed;
    sc.semantics = kafka::DeliverySemantics::kAtMostOnce;
    amo_loss += testbed::run_experiment(sc).p_loss;
    sc.semantics = kafka::DeliverySemantics::kAtLeastOnce;
    alo_loss += testbed::run_experiment(sc).p_loss;
  }
  EXPECT_LT(alo_loss, amo_loss);
}

TEST(Integration, BatchingReducesLossUnderHeavyLoss) {
  testbed::Scenario sc;
  sc.num_messages = 6000;
  sc.packet_loss = 0.3;
  sc.message_timeout = millis(2000);
  sc.source_interval = micros(4000);
  sc.semantics = kafka::DeliverySemantics::kAtLeastOnce;

  double b1 = 0.0, b10 = 0.0;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    sc.seed = seed;
    sc.batch_size = 1;
    b1 += testbed::run_experiment(sc).p_loss;
    sc.batch_size = 10;
    b10 += testbed::run_experiment(sc).p_loss;
  }
  EXPECT_LT(b10, b1);
}

TEST(Integration, PollingIntervalCuresOverload) {
  testbed::Scenario sc;
  sc.num_messages = 5000;
  sc.source_mode = testbed::SourceMode::kOnDemand;
  sc.message_timeout = millis(500);
  sc.semantics = kafka::DeliverySemantics::kAtMostOnce;

  double full = 0.0, paced = 0.0;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    sc.seed = seed;
    sc.poll_interval = 0;
    full += testbed::run_experiment(sc).p_loss;
    sc.poll_interval = millis(50);
    paced += testbed::run_experiment(sc).p_loss;
  }
  EXPECT_LT(paced, full);
}

TEST(Integration, MultiPartitionClusterServesParallelProducers) {
  sim::Simulation sim(9);
  kafka::Cluster cluster(sim, {.num_brokers = 3});
  cluster.create_topic("t", 3);  // One partition per broker.

  struct ProducerSlot {
    std::unique_ptr<net::DuplexLink> link;
    std::unique_ptr<tcp::Pair> conn;
    std::unique_ptr<kafka::Source> source;
    std::unique_ptr<kafka::Producer> producer;
  };
  std::vector<ProducerSlot> slots;
  for (int p = 0; p < 3; ++p) {
    ProducerSlot slot;
    slot.link = std::make_unique<net::DuplexLink>(
        sim, net::Link::Config{.bandwidth_bps = 100e6},
        std::make_shared<net::ConstantDelay>(millis(1)),
        std::make_shared<net::NoLoss>(),
        std::make_shared<net::ConstantDelay>(millis(1)),
        std::make_shared<net::NoLoss>(), "p" + std::to_string(p));
    slot.conn = std::make_unique<tcp::Pair>(sim, tcp::Config{}, *slot.link,
                                            "p" + std::to_string(p));
    cluster.leader_of("t", p).attach(slot.conn->server);
    slot.source = std::make_unique<kafka::Source>(
        sim, kafka::Source::Config{.total_messages = 500,
                                   .message_size = 100});
    auto pc = kafka::ProducerConfig::at_least_once();
    pc.producer_id = static_cast<std::uint64_t>(p + 1);
    slot.producer = std::make_unique<kafka::Producer>(
        sim, pc, slot.conn->client, *slot.source,
        cluster.partition_id("t", p));
    slots.push_back(std::move(slot));
  }
  cluster.start();
  for (auto& s : slots) s.producer->start();
  auto all_done = [&] {
    for (auto& s : slots) {
      if (!s.producer->finished()) return false;
    }
    return true;
  };
  while (!all_done() && sim.now() < seconds(300)) {
    sim.run(sim.now() + millis(200));
  }
  EXPECT_TRUE(all_done());
  // Every partition holds its 500 records.
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.leader_of("t", p)
                  .partition(cluster.partition_id("t", p))
                  ->log_end_offset(),
              500);
  }
}

// Tentpole acceptance: a faulty-network run returns a populated RunReport
// whose cross-layer numbers reconcile with the census.
TEST(Observability, RunReportPopulatedAndCrossLayerConsistent) {
  testbed::Scenario sc;
  sc.num_messages = 3000;
  sc.packet_loss = 0.19;
  sc.network_delay = millis(50);
  sc.message_timeout = millis(2000);
  sc.semantics = kafka::DeliverySemantics::kAtLeastOnce;
  sc.seed = 41;
  const auto r = testbed::run_experiment(sc);
  const auto& rep = r.report;

  // Every layer registered metrics and the sampler produced time series.
  EXPECT_FALSE(rep.metrics.empty());
  EXPECT_FALSE(rep.series.empty());
  EXPECT_FALSE(rep.histograms.empty());
  ASSERT_TRUE(rep.summary.count("p_loss"));
  EXPECT_DOUBLE_EQ(rep.summary.at("p_loss"), r.p_loss);

  // The report agrees with the event count the result carries.
  EXPECT_DOUBLE_EQ(rep.metric("sim_events_total"),
                   static_cast<double>(r.events));

  // Under 19% injected loss the producer's TCP connection must be
  // retransmitting, and the link must attribute drops to its loss model.
  EXPECT_GT(
      rep.metric("tcp_retransmissions_total{conn=\"prod0-conn0:client\"}"),
      0.0);
  EXPECT_GT(rep.metric("link_packets_dropped_total"), 0.0);

  // Census reconciliation: every lost key has a recorded pre-append cause.
  EXPECT_LE(static_cast<double>(r.census.lost),
            rep.metric("kafka_source_overruns_total") +
                rep.metric("kafka_producer_records_expired_total") +
                rep.metric("kafka_producer_records_failed_total") +
                rep.metric("kafka_producer_records_dropped_queue_full_total"));

  // The sampled message trace captured lifecycles.
  EXPECT_GT(rep.trace_sample_every, 0u);
  EXPECT_FALSE(rep.trace.empty());

  // And the artifact serializes to JSON on disk.
  const std::string path = testing::TempDir() + "ks_run_report.json";
  ASSERT_TRUE(rep.write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char first = 0;
  ASSERT_EQ(std::fread(&first, 1, 1, f), 1u);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(first, '{');
}

// On a healthy, lightly loaded link the transport layer must be silent:
// no retransmissions, no RTOs, no link drops — and the report agrees.
TEST(Observability, CleanLinkReportsNoRetransmissions) {
  testbed::Scenario sc;
  sc.num_messages = 1000;
  // Well under the ~294 msg/s serialization ceiling for 200 B messages, so
  // the producer keeps up and nothing is lost upstream either.
  sc.source_interval = millis(5);
  sc.broker_regimes = false;
  sc.seed = 42;
  const auto r = testbed::run_experiment(sc);

  EXPECT_DOUBLE_EQ(r.report.metric("tcp_retransmissions_total"), 0.0);
  EXPECT_DOUBLE_EQ(r.report.metric("tcp_rto_events_total"), 0.0);
  EXPECT_DOUBLE_EQ(r.report.metric("link_packets_dropped_total"), 0.0);
  EXPECT_EQ(r.census.lost, 0u);
  EXPECT_DOUBLE_EQ(r.p_loss, 0.0);
}

// Disabling the sampler must still produce the final snapshot, just no
// series.
TEST(Observability, SamplerCanBeDisabledPerScenario) {
  testbed::Scenario sc;
  sc.num_messages = 500;
  sc.source_interval = millis(5);
  sc.broker_regimes = false;
  sc.sample_interval = 0;
  sc.seed = 43;
  const auto r = testbed::run_experiment(sc);
  EXPECT_TRUE(r.report.series.empty());
  EXPECT_FALSE(r.report.metrics.empty());
}

}  // namespace
}  // namespace ks
