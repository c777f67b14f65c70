// Testbed tests: scenario features, experiment invariants, determinism,
// the Fig. 3 collector, and workload presets.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "kpi/online_controller.hpp"
#include "testbed/calibration.hpp"
#include "testbed/collector.hpp"
#include "testbed/experiment.hpp"
#include "testbed/workloads.hpp"

namespace ks::testbed {
namespace {

TEST(Scenario, NormalFeatureVector) {
  Scenario sc;
  sc.timeliness = seconds(2);
  sc.message_timeout = millis(1500);
  sc.poll_interval = millis(20);
  sc.semantics = kafka::DeliverySemantics::kAtMostOnce;
  sc.batch_size = 3;
  const auto f = sc.normal_features();
  ASSERT_EQ(f.size(), Scenario::normal_feature_names().size());
  EXPECT_DOUBLE_EQ(f[0], 2000.0);
  EXPECT_DOUBLE_EQ(f[1], 1500.0);
  EXPECT_DOUBLE_EQ(f[2], 20.0);
  EXPECT_DOUBLE_EQ(f[3], 0.0);
  EXPECT_DOUBLE_EQ(f[4], 3.0);
}

TEST(Scenario, AbnormalFeatureVector) {
  Scenario sc;
  sc.message_size = 250;
  sc.network_delay = millis(100);
  sc.packet_loss = 0.19;
  sc.semantics = kafka::DeliverySemantics::kAtLeastOnce;
  sc.batch_size = 5;
  const auto f = sc.abnormal_features();
  ASSERT_EQ(f.size(), Scenario::abnormal_feature_names().size());
  EXPECT_DOUBLE_EQ(f[0], 250.0);
  EXPECT_DOUBLE_EQ(f[1], 100.0);
  EXPECT_DOUBLE_EQ(f[2], 0.19);
  EXPECT_DOUBLE_EQ(f[3], 1.0);
  EXPECT_DOUBLE_EQ(f[4], 5.0);
}

TEST(Calibration, FullLoadIntervalGrowsWithSize) {
  EXPECT_GT(full_load_interval(1000), full_load_interval(100));
  EXPECT_EQ(full_load_interval(0), kSerializeBase);
}

TEST(Calibration, MaxSimTimeCoversFullLoadEmission) {
  // Below the break-even N the fixed cap holds.
  EXPECT_EQ(max_sim_time(0, 200), kMaxSimTime);
  EXPECT_EQ(max_sim_time(20000, 200), kMaxSimTime);
  EXPECT_EQ(max_sim_time(500000, 200), kMaxSimTime);
  // The paper's N = 10^6 at M = 200 B: twice 10^6 x 3.4 ms.
  EXPECT_EQ(max_sim_time(1000000, 200), seconds(6800));
  EXPECT_EQ(max_sim_time(1000000, 1000),
            2 * 1000000 * full_load_interval(1000));
}

Scenario small_scenario() {
  Scenario sc;
  sc.num_messages = 1500;
  sc.broker_regimes = false;
  sc.seed = 99;
  return sc;
}

TEST(Experiment, HealthyNetworkLosesNothing) {
  const auto r = run_experiment(small_scenario());
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.census.lost, 0u);
  EXPECT_EQ(r.census.duplicated, 0u);
  EXPECT_DOUBLE_EQ(r.p_loss, 0.0);
  EXPECT_DOUBLE_EQ(r.p_duplicate, 0.0);
}

TEST(Experiment, CensusPartsSumToTotal) {
  auto sc = small_scenario();
  sc.packet_loss = 0.25;
  sc.message_timeout = millis(1500);
  const auto r = run_experiment(sc);
  EXPECT_EQ(r.census.delivered + r.census.duplicated + r.census.lost,
            sc.num_messages);
  std::uint64_t case_sum = 0;
  for (auto c : r.cases.cases) case_sum += c;
  EXPECT_EQ(case_sum, sc.num_messages);
}

TEST(Experiment, DeterministicGivenSeed) {
  auto sc = small_scenario();
  sc.packet_loss = 0.15;
  sc.broker_regimes = true;
  const auto a = run_experiment(sc);
  const auto b = run_experiment(sc);
  EXPECT_EQ(a.census.delivered, b.census.delivered);
  EXPECT_EQ(a.census.duplicated, b.census.duplicated);
  EXPECT_EQ(a.census.lost, b.census.lost);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
}

// Allocated bytes per message must not grow with N. A per-message cost
// that rises with the log length shows here at a few thousand messages,
// long before it shows in wall time. Allocation counts repeat exactly for
// a build, so the guard needs no timing bound.
TEST(Experiment, AllocatedBytesPerMessageStayFlat) {
  const auto bytes_per_message = [](std::uint64_t n) {
    Scenario sc;
    sc.num_messages = n;
    const auto r = run_experiment(sc);
    EXPECT_TRUE(r.completed);
    return static_cast<double>(r.report.perf.alloc_bytes) /
           static_cast<double>(n);
  };
  const double small = bytes_per_message(4000);
  if (small == 0.0) GTEST_SKIP() << "allocation counting is off in this build";
  const double large = bytes_per_message(32000);
  EXPECT_LE(large, 1.5 * small)
      << "bytes/msg: " << small << " at N=4000, " << large << " at N=32000";
}

// Allocation budgets (counts, not time) for perfbench's three shapes at
// small N: the wire path allocates one block per segment and per frame
// and nothing else per message, so what is left beside those blocks is
// per-batch producer bookkeeping, the log's stored batches and per-run
// set-up. These runs make 20.3, 48.4 and 394 allocations per message;
// before contiguous TCP queues, inline SACK blocks and message ends, and
// child spans that follow their parent they made 36.6, 97.8 and 935.
double allocs_per_message(const Scenario& sc) {
  const auto r = run_experiment(sc);
  EXPECT_TRUE(r.completed);
  return static_cast<double>(r.report.perf.alloc_count) /
         static_cast<double>(sc.num_messages);
}

TEST(Experiment, AllocationsPerMessageStayWithinBudget) {
  Scenario paper;  // perfbench paper_scale: Scenario defaults.
  paper.seed = 1;
  paper.num_messages = 4000;
  const double paper_allocs = allocs_per_message(paper);
  if (paper_allocs == 0.0) {
    GTEST_SKIP() << "allocation counting is off in this build";
  }
  EXPECT_LT(paper_allocs, 24.0);

  Scenario lossy;  // perfbench lossy_sweep, at-least-once.
  lossy.seed = 1;
  lossy.num_messages = 4000;
  lossy.message_size = 100;
  lossy.network_delay = millis(100);
  lossy.packet_loss = 0.19;
  lossy.message_timeout = millis(2000);
  lossy.request_timeout = millis(1200);
  lossy.source_interval = micros(4000);
  EXPECT_LT(allocs_per_message(lossy), 56.0);

  Scenario group;  // perfbench group_replicated.
  group.seed = 1;
  group.num_messages = 2000;
  group.semantics = kafka::DeliverySemantics::kExactlyOnce;
  group.replication_factor = 3;
  group.min_insync_replicas = 2;
  group.partitions = 4;
  group.partitioner = kafka::PartitionerKind::kKeyed;
  group.group_size = 3;
  group.group_strategy = kafka::AssignmentStrategy::kCooperativeSticky;
  group.group_commit_mode = kafka::CommitMode::kCommitAfterDeliver;
  group.source_mode = SourceMode::kOnDemand;
  EXPECT_LT(allocs_per_message(group), 460.0);
}

TEST(Experiment, SeedChangesRun) {
  auto sc = small_scenario();
  sc.packet_loss = 0.15;
  sc.broker_regimes = true;
  const auto a = run_experiment(sc);
  sc.seed = 100;
  const auto b = run_experiment(sc);
  EXPECT_NE(a.events, b.events);
}

TEST(Experiment, LossHurtsReliability) {
  auto sc = small_scenario();
  sc.message_timeout = millis(1500);
  sc.source_interval = micros(4000);
  sc.num_messages = 4000;
  const auto clean = run_experiment(sc);
  sc.packet_loss = 0.35;
  const auto lossy = run_experiment(sc);
  EXPECT_GT(lossy.p_loss, clean.p_loss + 0.05);
}

TEST(Experiment, ExactlyOnceNeverDuplicates) {
  auto sc = small_scenario();
  sc.semantics = kafka::DeliverySemantics::kExactlyOnce;
  sc.packet_loss = 0.3;
  sc.message_timeout = millis(2000);
  sc.request_timeout = millis(400);
  sc.num_messages = 2000;
  const auto r = run_experiment(sc);
  EXPECT_EQ(r.census.duplicated, 0u);
}

TEST(Experiment, AtMostOnceNeverDuplicates) {
  auto sc = small_scenario();
  sc.semantics = kafka::DeliverySemantics::kAtMostOnce;
  sc.packet_loss = 0.3;
  sc.message_timeout = millis(1500);
  const auto r = run_experiment(sc);
  EXPECT_EQ(r.census.duplicated, 0u);
}

TEST(Experiment, KpiInputsPopulated) {
  const auto r = run_experiment(small_scenario());
  EXPECT_GT(r.service_rate_mu, 0.0);
  EXPECT_GT(r.bandwidth_utilization_phi, 0.0);
  EXPECT_LE(r.bandwidth_utilization_phi, 1.0);
  EXPECT_GT(r.delivered_throughput, 0.0);
  EXPECT_GT(r.mean_latency_ms, 0.0);
}

TEST(Experiment, OnDemandModeHasNoOverruns) {
  auto sc = small_scenario();
  sc.source_mode = SourceMode::kOnDemand;
  const auto r = run_experiment(sc);
  EXPECT_EQ(r.report.metric("kafka_source_overruns_total"), 0.0);
  EXPECT_EQ(r.census.lost, 0u);
}

// The drain consumer, its links and its TCP pairs are destroyed before the
// report is built; the report must still carry their final counts, whatever
// the sampler's schedule.
void expect_drain_counts_reported(const Scenario& sc) {
  const auto r = run_experiment(sc);
  ASSERT_GT(r.consumer_records, 0u);
  EXPECT_EQ(r.report.metric("kafka_consumer_records_total"),
            static_cast<double>(r.consumer_records));
  EXPECT_GT(r.report.metric(
                "tcp_segments_sent_total{conn=\"cons-conn0:client\"}"),
            0.0);
}

TEST(Experiment, ReportKeepsDrainCountsInTheTableIShape) {
  Scenario sc;
  sc.message_size = 100;
  sc.network_delay = millis(100);
  sc.packet_loss = 0.19;
  sc.message_timeout = millis(2000);
  sc.request_timeout = millis(1200);
  sc.source_interval = micros(4000);
  sc.num_messages = 4000;
  sc.seed = 1;
  expect_drain_counts_reported(sc);
}

TEST(Experiment, ReportKeepsDrainCountsWithoutSampling) {
  Scenario sc;
  sc.num_messages = 4000;
  sc.sample_interval = 0;
  expect_drain_counts_reported(sc);
}

// Stage matrix: one scenario per testbed stage or wiring branch, each with
// its message fates and simulated event count pinned. A change to how the
// runner wires a run must leave every number here unchanged.
struct StageFates {
  std::uint64_t delivered = 0, duplicated = 0, lost = 0;
  std::array<std::uint64_t, 6> cases{};
  std::uint64_t acked_lost = 0, group_unique = 0, group_duplicates = 0,
                group_lost = 0, consumer_records = 0, events = 0;
  bool operator==(const StageFates&) const = default;
};

void PrintTo(const StageFates& f, std::ostream* os) {
  *os << "{" << f.delivered << ", " << f.duplicated << ", " << f.lost
      << ", {";
  for (std::size_t i = 0; i < f.cases.size(); ++i) {
    *os << (i ? ", " : "") << f.cases[i];
  }
  *os << "}, " << f.acked_lost << ", " << f.group_unique << ", "
      << f.group_duplicates << ", " << f.group_lost << ", "
      << f.consumer_records << ", " << f.events << "}";
}

FaultAction fault_at(FaultAction::Kind kind, Duration at, int target = 0) {
  FaultAction f;
  f.kind = kind;
  f.at = at;
  f.broker = target;
  f.member = target;
  return f;
}

struct StageCase {
  const char* name;
  void (*shape)(Scenario&);
  StageFates expected;
};

const StageCase kStageMatrix[] = {
    {"defaults", [](Scenario&) {},
     {800, 0, 0, {0, 800, 0, 0, 0, 0}, 0, 0, 0, 0, 800, 13929}},
    {"table1_lossy",
     [](Scenario& sc) {
       sc.message_size = 100;
       sc.network_delay = millis(100);
       sc.packet_loss = 0.19;
       sc.message_timeout = millis(2000);
       sc.request_timeout = millis(1200);
       sc.source_interval = micros(4000);
     },
     {558, 157, 85, {85, 558, 0, 0, 0, 157}, 0, 0, 0, 0, 872, 49988}},
    {"rf3_exactly_once_broker_fail",
     [](Scenario& sc) {
       sc.semantics = kafka::DeliverySemantics::kExactlyOnce;
       sc.replication_factor = 3;
       sc.min_insync_replicas = 2;
       sc.request_timeout = millis(300);
       sc.retries_override = 50;
       sc.message_timeout = seconds(120);
       sc.faults = {fault_at(FaultAction::Kind::kBrokerFail, millis(300)),
                    fault_at(FaultAction::Kind::kBrokerResume, millis(900))};
     },
     {800, 0, 0, {0, 247, 0, 0, 552, 1}, 0, 0, 0, 0, 800, 250927}},
    {"p4_keyed_no_group",
     [](Scenario& sc) {
       sc.partitions = 4;
       sc.partitioner = kafka::PartitionerKind::kKeyed;
     },
     {800, 0, 0, {0, 800, 0, 0, 0, 0}, 0, 0, 0, 0, 183, 17779}},
    {"p4_rf3_group_member_crash",
     [](Scenario& sc) {
       sc.semantics = kafka::DeliverySemantics::kExactlyOnce;
       sc.replication_factor = 3;
       sc.min_insync_replicas = 2;
       sc.partitions = 4;
       sc.group_size = 3;
       sc.source_mode = SourceMode::kOnDemand;
       sc.faults = {
           fault_at(FaultAction::Kind::kConsumerCrash, millis(150), 1),
           fault_at(FaultAction::Kind::kConsumerRestart, millis(900), 1)};
     },
     {800, 0, 0, {0, 772, 0, 0, 28, 0}, 0, 800, 0, 0, 0, 662456}},
    {"rf1_power_loss_restore",
     [](Scenario& sc) {
       auto loss = fault_at(FaultAction::Kind::kPowerLoss, millis(250));
       loss.torn_write = true;
       sc.faults = {loss,
                    fault_at(FaultAction::Kind::kPowerRestore, millis(600))};
     },
     {727, 0, 73, {0, 799, 0, 0, 1, 0}, 73, 0, 0, 0, 727, 14506}},
    {"adaptive_single_connection",
     [](Scenario& sc) {
       sc.packet_loss = 0.2;
       sc.adaptive_enabled = true;
       sc.adaptive_interval = millis(250);
       sc.adaptive_cooldown = seconds(1);
       sc.adaptive_factory = kpi::synthetic_adaptive_factory();
     },
     {800, 0, 0, {0, 800, 0, 0, 0, 0}, 0, 0, 0, 0, 800, 11453}},
    {"observability_off",
     [](Scenario& sc) {
       sc.packet_loss = 0.1;
       sc.health_enabled = false;
       sc.sample_interval = 0;
       sc.spans_enabled = false;
     },
     {800, 0, 0, {0, 800, 0, 0, 0, 0}, 0, 0, 0, 0, 800, 14153}},
};

void PrintTo(const StageCase& c, std::ostream* os) { *os << c.name; }

class StageMatrix : public testing::TestWithParam<StageCase> {};

TEST_P(StageMatrix, FatesArePinned) {
  Scenario sc;
  sc.num_messages = 800;
  sc.seed = 4242;
  GetParam().shape(sc);
  const auto r = run_experiment(sc);
  const StageFates got{r.census.delivered,
                       r.census.duplicated,
                       r.census.lost,
                       r.cases.cases,
                       r.acked_lost,
                       r.group_unique_delivered,
                       r.group_duplicate_deliveries,
                       r.group_lost,
                       r.consumer_records,
                       r.events};
  EXPECT_EQ(got, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(Experiment, StageMatrix,
                         testing::ValuesIn(kStageMatrix),
                         [](const testing::TestParamInfo<StageCase>& info) {
                           return std::string(info.param.name);
                         });

// A replicated drain connects to every broker and follows the partition's
// leader after a failover; all of those connections end with the drain, and
// the report must still carry their final counts.
TEST(Experiment, ReportKeepsDrainCountsAfterABrokerFailover) {
  Scenario sc;
  sc.semantics = kafka::DeliverySemantics::kExactlyOnce;
  sc.replication_factor = 3;
  sc.min_insync_replicas = 2;
  sc.request_timeout = millis(300);
  sc.retries_override = 50;
  sc.message_timeout = seconds(120);
  sc.faults = {fault_at(FaultAction::Kind::kBrokerFail, millis(300)),
               fault_at(FaultAction::Kind::kBrokerResume, millis(900))};
  sc.num_messages = 4000;
  const auto r = run_experiment(sc);
  ASSERT_GT(r.consumer_records, 0u);
  EXPECT_EQ(r.report.metric("kafka_consumer_records_total"),
            static_cast<double>(r.consumer_records));
  double drain_segments = 0.0;
  for (const auto& m : r.report.metrics) {
    if (m.name == "tcp_segments_sent_total" &&
        m.labels.starts_with("conn=\"cons-conn") &&
        m.labels.ends_with(":client\"")) {
      drain_segments += m.value;
    }
  }
  EXPECT_GT(drain_segments, 0.0);
}

/// Records the telemetry of every tick and never reconfigures.
class RecordingDriver : public AdaptiveDriver {
 public:
  explicit RecordingDriver(std::shared_ptr<std::vector<AdaptiveTelemetry>> log)
      : log_(std::move(log)) {}
  Duration interval() const override { return millis(100); }
  Duration cooldown() const override { return seconds(1); }
  AdaptiveDecision tick(TimePoint, const AdaptiveTelemetry& t) override {
    log_->push_back(t);
    return {};
  }

 private:
  std::shared_ptr<std::vector<AdaptiveTelemetry>> log_;
};

// With two partitions there are two producer connections, and the
// controller's transport counters must cover both, not just the first.
TEST(Experiment, AdaptiveTelemetryCoversEveryProducerConnection) {
  auto log = std::make_shared<std::vector<AdaptiveTelemetry>>();
  auto sc = small_scenario();
  sc.num_messages = 800;
  sc.partitions = 2;
  sc.adaptive_enabled = true;
  sc.adaptive_factory = [log](const Scenario&) {
    return std::make_unique<RecordingDriver>(log);
  };
  const auto r = run_experiment(sc);
  ASSERT_FALSE(log->empty());
  const double first = r.report.metric(
      "tcp_segments_sent_total{conn=\"prod0-conn0:client\"}");
  const double second = r.report.metric(
      "tcp_segments_sent_total{conn=\"prod1-conn1:client\"}");
  const auto seen = static_cast<double>(log->back().segments_sent);
  EXPECT_GT(seen, first) << "only the first producer's connection is read";
  EXPECT_LE(seen, first + second);
}

TEST(Collector, GridSizesMatchConfig) {
  auto config = CollectorConfig::quick();
  Collector collector(config);
  const auto reps = static_cast<std::size_t>(config.repeats);
  EXPECT_EQ(collector.normal_grid_size(),
            config.timeouts.size() * config.polls.size() *
                config.timeliness.size() * config.semantics.size() *
                config.batches.size() * reps);
  EXPECT_EQ(collector.abnormal_grid_size(),
            config.sizes.size() * config.delays.size() *
                config.losses.size() * config.batches.size() *
                config.semantics.size() * reps);
}

TEST(Collector, TinyGridProducesDatasets) {
  CollectorConfig config;
  config.num_messages = 400;
  config.timeouts = {millis(500), millis(1500)};
  config.polls = {0};
  config.timeliness = {seconds(1)};
  config.sizes = {100};
  config.delays = {millis(20)};
  config.losses = {0.0, 0.2};
  config.batches = {1};
  config.semantics = {kafka::DeliverySemantics::kAtLeastOnce};
  Collector collector(config);

  std::size_t progress = 0;
  collector.on_progress = [&](std::size_t done, std::size_t total) {
    progress = done;
    EXPECT_LE(done, total);
  };
  auto normal = collector.collect_normal();
  EXPECT_EQ(normal.size(), 2u);
  EXPECT_EQ(normal.x.cols(), 5u);
  EXPECT_EQ(normal.y.cols(), 2u);
  EXPECT_EQ(progress, 2u);

  auto abnormal = collector.collect_abnormal();
  EXPECT_EQ(abnormal.size(), 2u);
  EXPECT_EQ(abnormal.x.cols(), 5u);
  for (std::size_t r = 0; r < abnormal.size(); ++r) {
    EXPECT_GE(abnormal.y(r, 0), 0.0);
    EXPECT_LE(abnormal.y(r, 0), 1.0);
  }
  // The collector totals the work of every run it made.
  EXPECT_EQ(collector.runs(), 4u);
  EXPECT_GT(collector.sim_seconds(), 0.0);
  EXPECT_GT(collector.sim_events(), 4u * config.num_messages);
}

TEST(Workloads, PresetsAreDistinctAndWeighted) {
  const auto sm = social_media();
  const auto web = web_access_records();
  const auto game = game_traffic();
  for (const auto& w : {sm, web, game}) {
    double sum = 0.0;
    for (double v : w.weights) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9) << w.name;
    EXPECT_GT(w.message_size, 0);
    EXPECT_GT(w.emit_interval, 0);
  }
  EXPECT_LT(game.message_size, web.message_size);
  EXPECT_LT(web.message_size, sm.message_size);
  EXPECT_GT(web.weights[2], sm.weights[2]);  // Web logs value completeness.
  EXPECT_LT(game.timeliness, web.timeliness);
}

}  // namespace
}  // namespace ks::testbed
