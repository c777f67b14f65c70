// Determinism regression: the simulation is a pure function of the
// scenario seed. Three fixed seeds x all three delivery-semantics
// presets, each run twice; the exported canonical RunReport JSON (which
// excludes only host wall-clock metrics) must be byte-identical.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "kpi/online_controller.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "testbed/experiment.hpp"

namespace ks::testbed {
namespace {

// A deliberately eventful configuration: packet loss, delay, broker
// service regimes, sampler and trace all on, so determinism is checked
// across every subsystem that emits into the report.
Scenario make_scenario(std::uint64_t seed, kafka::DeliverySemantics sem) {
  Scenario sc;
  sc.seed = seed;
  sc.semantics = sem;
  sc.num_messages = 500;
  sc.message_size = 300;
  sc.batch_size = 3;
  sc.message_timeout = millis(1200);
  sc.network_delay = millis(20);
  sc.packet_loss = 0.12;
  sc.broker_regimes = true;
  sc.sample_interval = millis(200);
  sc.trace_sample_every = 10;
  sc.trace_capacity = 8192;
  return sc;
}

TEST(Determinism, SameSeedByteIdenticalCanonicalReport) {
  const std::uint64_t seeds[] = {7, 0x1234, 987654321};
  const kafka::DeliverySemantics presets[] = {
      kafka::DeliverySemantics::kAtMostOnce,
      kafka::DeliverySemantics::kAtLeastOnce,
      kafka::DeliverySemantics::kExactlyOnce,
  };
  for (const auto seed : seeds) {
    for (const auto sem : presets) {
      SCOPED_TRACE(std::string("seed=") + std::to_string(seed) +
                   " semantics=" + kafka::to_string(sem));
      const auto first = run_experiment(make_scenario(seed, sem));
      const auto second = run_experiment(make_scenario(seed, sem));
      const auto json_a = first.report.canonical_json();
      const auto json_b = second.report.canonical_json();
      ASSERT_FALSE(json_a.empty());
      EXPECT_EQ(json_a, json_b);
      // The census (and thus P_l/P_d) must agree too, not just the report.
      EXPECT_EQ(first.census.delivered, second.census.delivered);
      EXPECT_EQ(first.census.duplicated, second.census.duplicated);
      EXPECT_EQ(first.census.lost, second.census.lost);
      EXPECT_EQ(first.events, second.events);
    }
  }
}

// Replication, elections and producer failover run on extra RNG-forked
// links and timer-driven fetch sessions; a replicated run with a leader
// fail-stop mid-stream must replay bit for bit too.
TEST(Determinism, ReplicatedFailoverRunIsByteIdentical) {
  Scenario sc = make_scenario(0x1234, kafka::DeliverySemantics::kExactlyOnce);
  sc.replication_factor = 3;
  sc.min_insync_replicas = 2;
  sc.request_timeout = millis(300);
  sc.retries_override = 50;
  sc.message_timeout = seconds(120);
  FaultAction fail;
  fail.kind = FaultAction::Kind::kBrokerFail;
  fail.broker = 0;
  fail.at = millis(80);
  sc.faults.push_back(fail);
  FaultAction resume = fail;
  resume.kind = FaultAction::Kind::kBrokerResume;
  resume.at = millis(700);
  sc.faults.push_back(resume);

  const auto first = run_experiment(sc);
  const auto second = run_experiment(sc);
  ASSERT_GE(first.report.metric("kafka_cluster_elections_total"), 1.0);
  EXPECT_EQ(first.acked_lost, 0u);
  EXPECT_EQ(first.report.canonical_json(), second.report.canonical_json());
  // The Perfetto trace export is sim-time-only and must replay bit for bit
  // too (spans + cluster timeline, including the election above).
  EXPECT_EQ(first.report.perfetto_json(), second.report.perfetto_json());
  EXPECT_FALSE(first.report.spans.empty());
  EXPECT_FALSE(first.report.timeline.empty());
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.census.delivered, second.census.delivered);
  for (const char* name :
       {"kafka_cluster_elections_total", "kafka_producer_failovers_total"}) {
    EXPECT_EQ(first.report.metric(name), second.report.metric(name)) << name;
  }
}

// The consumer-group stage stacks more RNG consumers on top: partition
// routing, per-member fetch/process timers, coordinator deadlines, a
// rebalance triggered by a member crash/restart and a mid-run GC pause.
// The whole thing — per-partition census, group counters, rebalance
// timeline events — must still be a pure function of the seed.
TEST(Determinism, MultiPartitionGroupRunIsByteIdentical) {
  Scenario sc = make_scenario(0xF00D, kafka::DeliverySemantics::kExactlyOnce);
  sc.num_messages = 260;
  sc.source_mode = SourceMode::kOnDemand;
  sc.message_timeout = seconds(120);
  sc.partitions = 4;
  sc.partitioner = kafka::PartitionerKind::kKeyed;
  sc.group_size = 3;
  sc.group_commit_mode = kafka::CommitMode::kCommitAfterDeliver;
  sc.group_strategy = kafka::AssignmentStrategy::kCooperativeSticky;

  FaultAction crash;
  crash.kind = FaultAction::Kind::kConsumerCrash;
  crash.member = 1;
  crash.at = millis(150);
  sc.faults.push_back(crash);
  FaultAction restart = crash;
  restart.kind = FaultAction::Kind::kConsumerRestart;
  restart.at = millis(900);
  sc.faults.push_back(restart);
  FaultAction pause;
  pause.kind = FaultAction::Kind::kConsumerPause;
  pause.member = 2;
  pause.at = millis(400);
  pause.delay = millis(600);  // Past the session timeout: eviction.
  sc.faults.push_back(pause);

  const auto first = run_experiment(sc);
  const auto second = run_experiment(sc);
  ASSERT_TRUE(first.completed);
  ASSERT_GT(first.group_rebalances, 0u) << "faults caused no rebalance";
  EXPECT_EQ(first.report.canonical_json(), second.report.canonical_json());
  EXPECT_EQ(first.report.perfetto_json(), second.report.perfetto_json());
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.group_unique_delivered, second.group_unique_delivered);
  EXPECT_EQ(first.group_duplicate_deliveries,
            second.group_duplicate_deliveries);
  EXPECT_EQ(first.group_lost, second.group_lost);
  EXPECT_EQ(first.group_rebalances, second.group_rebalances);
  EXPECT_EQ(first.group_evictions, second.group_evictions);
  EXPECT_EQ(first.group_commits, second.group_commits);
  EXPECT_EQ(first.report.group_lost_keys, second.report.group_lost_keys);
  // The rebalance story made it into the canonical export: group timeline
  // events are part of what replays byte-for-byte.
  bool saw_rebalance_event = false;
  for (const auto& e : first.report.timeline) {
    if (std::string_view(obs::to_string(e.kind)).starts_with("group_")) {
      saw_rebalance_event = true;
    }
  }
  EXPECT_TRUE(saw_rebalance_event)
      << "no group_* events in the cluster timeline";
}

// The health section is sim-time-driven and lives inside canonical_json():
// replay byte-identity covers the detector's series, verdicts and alert
// ledger. The monitor must also be passive — toggling it cannot change a
// single message fate or simulated event.
TEST(Determinism, HealthSectionIsCanonicalAndTheMonitorIsPassive) {
  Scenario sc = make_scenario(0xBEA7, kafka::DeliverySemantics::kAtLeastOnce);
  sc.num_messages = 300;
  sc.source_mode = SourceMode::kOnDemand;
  sc.partitions = 2;
  sc.group_size = 2;
  sc.group_commit_mode = kafka::CommitMode::kCommitAfterDeliver;
  // A permanent member crash: frozen commits with growing lag, so the
  // detector has something to say in the canonical export.
  FaultAction crash;
  crash.kind = FaultAction::Kind::kConsumerCrash;
  crash.member = 0;
  crash.at = millis(200);
  sc.faults.push_back(crash);

  const auto first = run_experiment(sc);
  const auto second = run_experiment(sc);
  ASSERT_GT(first.health_ticks, 0u);
  ASSERT_GT(first.health_alerts_opened, 0u)
      << "crash raised no health alert; the canonical comparison would "
         "cover an empty section";
  EXPECT_EQ(first.report.canonical_json(), second.report.canonical_json());
  const auto canonical = first.report.canonical_json();
  EXPECT_NE(canonical.find("\"health\""), std::string::npos);
  EXPECT_NE(canonical.find("lag_stall"), std::string::npos);

  // Passivity: the same run with the monitor off reaches identical
  // message fates (the probe timer adds simulated events, but observes
  // without mutating, so every model outcome is unchanged).
  Scenario off = sc;
  off.health_enabled = false;
  const auto dark = run_experiment(off);
  EXPECT_EQ(dark.health_ticks, 0u);
  EXPECT_EQ(dark.census.delivered, first.census.delivered);
  EXPECT_EQ(dark.group_unique_delivered, first.group_unique_delivered);
  EXPECT_EQ(dark.group_duplicate_deliveries,
            first.group_duplicate_deliveries);
  EXPECT_EQ(dark.group_commits, first.group_commits);
  EXPECT_TRUE(dark.report.health.alerts.empty());
}

TEST(Determinism, CanonicalJsonExcludesOnlyWallClockMetrics) {
  const auto result =
      run_experiment(make_scenario(42, kafka::DeliverySemantics::kAtLeastOnce));
  const auto full = result.report.to_json();
  const auto canonical = result.report.canonical_json();
  // Wall-clock metrics exist in the full export but never in the
  // canonical one (they differ between identical replays by nature).
  EXPECT_NE(full.find("sim_wall"), std::string::npos);
  EXPECT_EQ(canonical.find("sim_wall"), std::string::npos);
  EXPECT_TRUE(obs::is_wall_clock_metric("sim_wall_time_us_total"));
  EXPECT_TRUE(obs::is_wall_clock_metric("sim_wall_us_per_sim_s"));
  EXPECT_FALSE(obs::is_wall_clock_metric("producer_records_acked_total"));
}

// The online controller's decisions are part of the canonical replay:
// same seed, same estimates, same reconfigurations, byte-identical JSON.
// And with the controller off the run must be byte-identical to a plain
// scenario that never heard of the adaptive knobs (strict passivity).
TEST(Determinism, AdaptiveRunIsCanonicalAndControllerOffIsPassive) {
  Scenario sc = make_scenario(0xADA, kafka::DeliverySemantics::kAtLeastOnce);
  sc.packet_loss = 0.25;  // Stormy: the controller should want to move.
  sc.adaptive_enabled = true;
  sc.adaptive_interval = millis(250);
  sc.adaptive_cooldown = seconds(1);
  sc.adaptive_factory = kpi::synthetic_adaptive_factory();

  const auto first = run_experiment(sc);
  const auto second = run_experiment(sc);
  ASSERT_GT(first.adaptive_ticks, 0u);
  EXPECT_EQ(first.adaptive_evaluations,
            first.adaptive_reconfigurations + first.adaptive_suppressed);
  EXPECT_EQ(first.report.canonical_json(), second.report.canonical_json());
  EXPECT_EQ(first.adaptive_reconfigurations, second.adaptive_reconfigurations);
  const auto canonical = first.report.canonical_json();
  EXPECT_NE(canonical.find("\"adaptive_ticks\""), std::string::npos);
  if (first.adaptive_evaluations > 0) {
    // Every evaluated decision lands on the timeline for ks_explain.
    EXPECT_NE(canonical.find("reconfigure"), std::string::npos);
  }

  // Passivity: controller off == a scenario that never set the knobs.
  Scenario off = sc;
  off.adaptive_enabled = false;
  const Scenario plain =
      make_scenario(0xADA, kafka::DeliverySemantics::kAtLeastOnce);
  Scenario plain_stormy = plain;
  plain_stormy.packet_loss = 0.25;
  const auto dark = run_experiment(off);
  const auto baseline = run_experiment(plain_stormy);
  EXPECT_EQ(dark.adaptive_ticks, 0u);
  EXPECT_EQ(dark.adaptive_reconfigurations, 0u);
  EXPECT_EQ(dark.report.canonical_json(), baseline.report.canonical_json());
  EXPECT_EQ(dark.report.canonical_json().find("adaptive"),
            std::string::npos);
}

// The perf section (wall-clock, peak RSS, profiler breakdown) is host
// metadata: always present in the full export, never in the canonical
// one — and arming the profiler must not perturb the simulation at all.
TEST(Determinism, PerfSectionIsHostOnlyAndProfilingIsPassive) {
  Scenario sc = make_scenario(7, kafka::DeliverySemantics::kAtLeastOnce);
  const auto off = run_experiment(sc);
  obs::profiler().enable(true);
  const auto on = run_experiment(sc);
  obs::profiler().enable(false);

  EXPECT_NE(off.report.to_json().find("\"perf\""), std::string::npos);
  EXPECT_EQ(off.report.canonical_json().find("\"perf\""), std::string::npos);
  EXPECT_GT(off.report.perf.wall_us, 0u);
  EXPECT_GT(off.report.perf.peak_rss_kb, 0);
  EXPECT_FALSE(off.report.perf.profiled);
  EXPECT_TRUE(off.report.perf.sections.empty());

  EXPECT_TRUE(on.report.perf.profiled);
  ASSERT_FALSE(on.report.perf.sections.empty());
  // The event loop ran under the profiler, so dispatch must have counted.
  bool dispatch_counted = false;
  for (const auto& s : on.report.perf.sections) {
    if (s.name == std::string("sim.event_dispatch") && s.calls > 0) {
      dispatch_counted = true;
    }
  }
  EXPECT_TRUE(dispatch_counted);

  // Profiler on vs off: byte-identical canonical replay.
  EXPECT_EQ(off.report.canonical_json(), on.report.canonical_json());
}

}  // namespace
}  // namespace ks::testbed
