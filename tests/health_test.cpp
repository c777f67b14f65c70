// Unit tests for the Burrow-style health evaluator: verdict state machine
// (OK / WARN / STALL / STOP), alert open/resolve lifecycle and timeline
// mirroring, the rule-based cluster detectors, and the text rendering.
// All driven directly through the probe interface with synthetic numbers,
// no simulation behind it. The ks_health binary is launched from the build
// tree (KS_TOOLS_DIR, injected by CMake) to show hostile artifacts are
// rejected before rendering.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/health.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"

namespace ks::obs {
namespace {

HealthConfig small_config() {
  HealthConfig c;
  c.interval = 10;
  c.lag_window = 4;
  c.stall_ticks = 3;
  c.stop_ticks = 2;
  c.cold_start_ticks = 8;
  c.under_replicated_ticks = 2;
  c.flap_window = 6;
  c.flap_threshold = 3;
  c.flush_stall_ticks = 3;
  return c;
}

// One probe+evaluate tick for a single partition.
void tick(HealthMonitor& m, TimePoint t, std::int64_t committed,
          std::int64_t hw, bool owned = true) {
  m.begin_tick(t);
  m.observe_partition(0, committed, hw, owned);
  m.evaluate(t);
}

TEST(HealthMonitor, AdvancingCommitsStayOkEvenWithLargeLag) {
  HealthMonitor m(small_config(), nullptr);
  for (int i = 0; i < 20; ++i) {
    // Commits advance every tick; lag is huge but constant.
    tick(m, i * 10, /*committed=*/i + 1, /*hw=*/i + 1000);
  }
  EXPECT_EQ(m.verdict(0), LagVerdict::kOk);
  EXPECT_TRUE(m.alerts().empty());
}

TEST(HealthMonitor, MonotoneLagGrowthUnderLiveCommitsIsWarnNotAlert) {
  HealthMonitor m(small_config(), nullptr);
  for (int i = 0; i < 20; ++i) {
    // Commits advance, but the HW pulls away twice as fast every tick.
    tick(m, i * 10, i + 1, 2 * i + 10);
  }
  EXPECT_EQ(m.verdict(0), LagVerdict::kWarn);
  EXPECT_TRUE(m.alerts().empty()) << "WARN must never open an alert";
}

TEST(HealthMonitor, FrozenCommitsWithLagStallAfterConfiguredTicks) {
  ClusterTimeline timeline(64);
  HealthMonitor m(small_config(), &timeline);
  tick(m, 0, 5, 5);    // Commits start.
  tick(m, 10, 6, 6);   // ...and advance: ever_committed.
  // Committed freezes while the HW keeps moving.
  tick(m, 20, 6, 8);   // frozen 1
  tick(m, 30, 6, 10);  // frozen 2: growing lag may WARN, but no STALL yet.
  EXPECT_NE(m.verdict(0), LagVerdict::kStall) << "one tick early";
  EXPECT_TRUE(m.alerts().empty());
  tick(m, 40, 6, 12);  // frozen 3 = stall_ticks
  EXPECT_EQ(m.verdict(0), LagVerdict::kStall);
  ASSERT_EQ(m.alerts().size(), 1u);
  EXPECT_EQ(m.alerts()[0].detector, HealthDetector::kLagStall);
  EXPECT_EQ(m.alerts()[0].opened, 40);
  EXPECT_EQ(m.alerts()[0].resolved, -1);

  // Commits resume: the alert resolves and the verdict returns to OK.
  tick(m, 50, 12, 12);
  EXPECT_EQ(m.verdict(0), LagVerdict::kOk);
  EXPECT_EQ(m.alerts()[0].resolved, 50);
  EXPECT_EQ(m.alerts_resolved(), 1u);
  EXPECT_EQ(m.open_alerts(), 0u);

  // Both lifecycle edges were mirrored onto the timeline.
  bool open_seen = false;
  bool resolve_seen = false;
  for (const auto& e : timeline.events()) {
    if (e.kind == ClusterEventKind::kHealthAlertOpen) open_seen = true;
    if (e.kind == ClusterEventKind::kHealthAlertResolved) resolve_seen = true;
  }
  EXPECT_TRUE(open_seen);
  EXPECT_TRUE(resolve_seen);
}

TEST(HealthMonitor, UnownedPartitionWithLagEscalatesToStop) {
  HealthMonitor m(small_config(), nullptr);
  tick(m, 0, 4, 4);
  tick(m, 10, 5, 5);
  tick(m, 20, 5, 9, /*owned=*/false);  // unowned 1
  tick(m, 30, 5, 9, /*owned=*/false);  // unowned 2 = stop_ticks
  EXPECT_EQ(m.verdict(0), LagVerdict::kStop);
  ASSERT_FALSE(m.alerts().empty());
  EXPECT_EQ(m.alerts().back().detector, HealthDetector::kLagStop);
  // Re-ownership with resumed commits resolves the STOP alert.
  tick(m, 40, 9, 9, /*owned=*/true);
  EXPECT_EQ(m.verdict(0), LagVerdict::kOk);
  EXPECT_EQ(m.open_alerts(), 0u);
}

TEST(HealthMonitor, ColdPartitionStallsOnlyAfterTheLongGrace) {
  HealthMonitor m(small_config(), nullptr);
  // Commits never start; lag present from the first tick.
  for (int i = 0; i < 7; ++i) {
    tick(m, i * 10, 0, 10);
    EXPECT_EQ(m.verdict(0), LagVerdict::kOk) << "tick " << i;
  }
  tick(m, 70, 0, 10);  // cold_ticks reaches cold_start_ticks = 8.
  EXPECT_EQ(m.verdict(0), LagVerdict::kStall);
}

TEST(HealthMonitor, PersistentUnderReplicationAlertsAndResolves) {
  HealthMonitor m(small_config(), nullptr);
  m.begin_tick(0);
  m.observe_isr(0, 3, 3);
  m.evaluate(0);
  m.begin_tick(10);
  m.observe_isr(0, 2, 3);  // under 1
  m.evaluate(10);
  EXPECT_TRUE(m.alerts().empty());
  m.begin_tick(20);
  m.observe_isr(0, 2, 3);  // under 2 = under_replicated_ticks
  m.evaluate(20);
  ASSERT_EQ(m.alerts().size(), 1u);
  EXPECT_EQ(m.alerts()[0].detector, HealthDetector::kUnderReplicated);
  m.begin_tick(30);
  m.observe_isr(0, 3, 3);  // Follower caught back up.
  m.evaluate(30);
  EXPECT_EQ(m.open_alerts(), 0u);
}

TEST(HealthMonitor, IsrOscillationTripsTheFlappingDetector) {
  HealthMonitor m(small_config(), nullptr);
  // ISR size alternates every tick: transitions accumulate in the window.
  for (int i = 0; i < 6; ++i) {
    m.begin_tick(i * 10);
    m.observe_isr(0, (i % 2 == 0) ? 3 : 2, 3);
    m.evaluate(i * 10);
  }
  bool flapping = false;
  for (const auto& a : m.alerts()) {
    if (a.detector == HealthDetector::kIsrFlapping) flapping = true;
  }
  EXPECT_TRUE(flapping);
}

TEST(HealthMonitor, ParkedAcksOverFrozenWatermarksIsFlushStall) {
  HealthMonitor m(small_config(), nullptr);
  for (int i = 0; i < 5; ++i) {
    m.begin_tick(i * 10);
    // Acks parked while the broker's high watermarks never move.
    m.observe_broker(1, /*parked_acks=*/4, /*hw_sum=*/100);
    m.evaluate(i * 10);
  }
  bool stall = false;
  for (const auto& a : m.alerts()) {
    if (a.detector == HealthDetector::kFlushStall && a.broker == 1) {
      stall = true;
    }
  }
  EXPECT_TRUE(stall);
  // Watermark movement (flush completed) resolves it.
  m.begin_tick(50);
  m.observe_broker(1, 4, 120);
  m.evaluate(50);
  EXPECT_EQ(m.open_alerts(), 0u);
}

TEST(HealthMonitor, ExportCarriesVerdictsAlertsSeriesAndSketch) {
  HealthMonitor m(small_config(), nullptr);
  m.observe_latency(0, 150);
  m.observe_latency(0, 30000);
  tick(m, 0, 5, 5);
  tick(m, 10, 6, 6);
  tick(m, 20, 6, 9);
  tick(m, 30, 6, 9);
  tick(m, 40, 6, 9);  // STALL.

  const auto h = m.export_health();
  EXPECT_EQ(h.ticks, 5u);
  EXPECT_EQ(h.interval_us, 10u);
  ASSERT_EQ(h.verdicts.size(), 1u);
  EXPECT_EQ(h.verdicts[0].verdict, LagVerdict::kStall);
  EXPECT_EQ(h.verdicts[0].worst, LagVerdict::kStall);
  EXPECT_EQ(h.verdicts[0].lag, 3);
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].detector, HealthDetector::kLagStall);
  EXPECT_EQ(h.alerts[0].resolved, -1);
  ASSERT_EQ(h.sketches.size(), 1u);
  EXPECT_EQ(h.sketches[0].count, 2u);
  bool lag_series = false;
  for (const auto& s : h.series) {
    if (s.name == "group_lag_p0") lag_series = true;
  }
  EXPECT_TRUE(lag_series);

  // The renderer narrates the same facts.
  RunReport report;
  report.health = h;
  const auto text = render_health_text(report);
  EXPECT_NE(text.find("STALL"), std::string::npos);
  EXPECT_NE(text.find("lag_stall"), std::string::npos);
  EXPECT_NE(text.find("group_lag_p0"), std::string::npos);
}

TEST(HealthRender, QuantilesComeStraightFromTheBuckets) {
  RunReport report;
  report.health.enabled = true;
  HealthReport::Sketch sketch;
  sketch.name = "e2e_ack_to_deliver_us";
  sketch.count = 3;
  sketch.buckets.assign(kLatencySketchBuckets, 0);
  sketch.buckets.front() = 2;
  sketch.buckets.back() = 1;
  report.health.sketches.push_back(sketch);
  // A 10^12-sample sketch renders as fast as a small one: nothing replays
  // the samples.
  sketch.count = 1000000000000;
  sketch.buckets.front() = sketch.count;
  sketch.buckets.back() = 0;
  report.health.sketches.push_back(sketch);
  const auto text = render_health_text(report);
  EXPECT_NE(text.find("3 samples, p50 <= 100 us, p99 > 5000000 us "
                      "(overflow)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("1000000000000 samples, p50 <= 100 us, p99 <= 100 us"),
            std::string::npos)
      << text;
}

/// Exit status of `ks_health <path>` with its output discarded; -1 when it
/// did not exit normally (a crash or a sanitizer abort).
int ks_health_exit_status(const std::string& path) {
  const std::string cmd =
      std::string(KS_TOOLS_DIR) + "/ks_health " + path + " >/dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
  if (raw == -1 || !WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
}

std::string write_artifact(const std::string& name, const std::string& json) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream(path) << json;
  return path;
}

TEST(HealthCli, RejectsASeriesWithALongerTimeArray) {
  // The sparkline indexed count/sum by t_us and read past their end.
  const auto path = write_artifact(
      "health_series_over_read.json",
      R"({"health":{"enabled":true,"interval_us":60000,"ticks":3,)"
      R"("series":[{"name":"group_lag_p0","interval_us":60000,"dropped":0,)"
      R"("t_us":[0,60000,120000,180000],"count":[1],"min":[1],"max":[1],)"
      R"("sum":[1]}]}})");
  EXPECT_EQ(ks_health_exit_status(path), 1);
}

TEST(HealthCli, RejectsASketchWhoseBucketsDoNotSumToItsCount) {
  // The renderer replayed every bucket count as observe() calls: 10^12 of
  // them here.
  const auto path = write_artifact(
      "health_sketch_replay.json",
      R"({"health":{"enabled":true,"interval_us":60000,"ticks":3,)"
      R"("sketches":[{"name":"e2e_ack_to_deliver_us","count":2,)"
      R"("buckets":[1000000000000,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}]}})");
  EXPECT_EQ(ks_health_exit_status(path), 1);
}

}  // namespace
}  // namespace ks::obs
