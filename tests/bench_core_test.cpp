// The measurement harness behind ks_bench: DistStat math, the run_bench
// artifact assembly (schema v2, byte-stable deterministic blocks, profiler
// capture), artifact JSON round-trips, and the noise-aware regression
// rules that gate CI through ks_bench_diff.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_core/artifact.hpp"
#include "bench_core/diff.hpp"
#include "bench_core/registry.hpp"
#include "bench_core/run_bench.hpp"
#include "bench_core/util.hpp"
#include "obs/json_fields.hpp"
#include "obs/profiler.hpp"

namespace ks::bench {
namespace {

TEST(DistStat, SummarizesSamples) {
  const auto d = DistStat::of({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(d.mean, 2.5);
  EXPECT_DOUBLE_EQ(d.median, 2.5);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.stddev, std::sqrt(1.25));
  EXPECT_EQ(d.samples.size(), 4u);

  const auto odd = DistStat::of({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.median, 2.0);

  const auto empty = DistStat::of({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev, 0.0);
}

TEST(DistStat, StatOfIsPopulationStddev) {
  const auto s = stat_of({1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.stddev, 1.0);
}

/// A tiny deterministic bench: no simulation, fixed points and accounting.
void tiny_bench(BenchContext& ctx) {
  ctx.point({{"k", 1.0}}, {{"m", Stat{2.0, 0.25}}});
  ctx.scalar("mae", 0.015);
  ctx.account(/*sim_seconds=*/1.5, /*sim_events=*/100, /*experiments=*/2);
}

TEST(RunBench, AssemblesSchemaV2Artifact) {
  const BenchInfo info{"tiny", "unit-test bench", &tiny_bench, false};
  RunBenchOptions options;
  options.repeat = 3;
  options.warmup = 1;
  options.profile = true;

  const bool profiler_was_on = obs::profiler().enabled();
  const auto artifact = run_bench(info, options);
  // run_bench restores the profiler to its pre-call state.
  EXPECT_EQ(obs::profiler().enabled(), profiler_was_on);

  EXPECT_EQ(artifact.schema_version, kArtifactSchemaVersion);
  EXPECT_EQ(artifact.bench, "tiny");
  EXPECT_EQ(artifact.repeat, 3);
  EXPECT_EQ(artifact.warmup, 1);
  EXPECT_TRUE(artifact.profiled);
  EXPECT_EQ(artifact.wall_s.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(artifact.sim_seconds, 1.5);
  EXPECT_EQ(artifact.sim_events, 100u);
  EXPECT_EQ(artifact.experiments, 2u);
  // Profiled runs carry every hot-path section, even zero-call ones.
  EXPECT_EQ(artifact.sections.size(), obs::kProfKeyCount);
  EXPECT_FALSE(artifact.fingerprint.compiler.empty());
  EXPECT_FALSE(artifact.fingerprint.os.empty());

  ASSERT_EQ(artifact.points.size(), 2u);
  ASSERT_EQ(artifact.points[0].params.size(), 1u);
  EXPECT_EQ(artifact.points[0].params[0].first, "k");
  ASSERT_EQ(artifact.points[0].metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(artifact.points[0].metrics[0].second.mean, 2.0);
  EXPECT_EQ(artifact.points[1].metrics[0].first, "mae");
}

TEST(RunBench, ArtifactJsonRoundTripsByteExact) {
  const BenchInfo info{"tiny", "unit-test bench", &tiny_bench, false};
  RunBenchOptions options;
  options.repeat = 2;
  const auto artifact = run_bench(info, options);
  const std::string json = artifact.to_json();
  const auto parsed = Artifact::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_json(), json);
}

TEST(RunBench, DeterministicBlocksAreByteStableAcrossRuns) {
  const BenchInfo info{"tiny", "unit-test bench", &tiny_bench, false};
  RunBenchOptions options;
  options.repeat = 2;
  const auto a = run_bench(info, options);
  const auto b = run_bench(info, options);
  // Wall timings differ run to run; the deterministic contract (bench,
  // config, points) must not.
  EXPECT_EQ(a.bench, b.bench);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.reps_per_point, b.reps_per_point);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].params, b.points[i].params);
    ASSERT_EQ(a.points[i].metrics.size(), b.points[i].metrics.size());
    for (std::size_t j = 0; j < a.points[i].metrics.size(); ++j) {
      EXPECT_EQ(a.points[i].metrics[j].first, b.points[i].metrics[j].first);
      EXPECT_DOUBLE_EQ(a.points[i].metrics[j].second.mean,
                       b.points[i].metrics[j].second.mean);
    }
  }
}

TEST(RunBench, ArtifactParseRejectsWrongSchema) {
  EXPECT_FALSE(Artifact::parse("{\"schema_version\":1,\"bench\":\"x\"}")
                   .has_value());
  EXPECT_FALSE(Artifact::parse("{\"schema_version\":2}").has_value());
  EXPECT_FALSE(Artifact::parse("garbage").has_value());
  EXPECT_EQ(artifact_filename("fig4"), "BENCH_fig4.json");
}

TEST(RunBench, CommittedBaselinesReserializeByteExact) {
  int baselines = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(KS_BASELINES_DIR)) {
    const std::string path = entry.path().string();
    const auto text = obs::read_file(path);
    ASSERT_TRUE(text.has_value()) << path;
    const auto artifact = Artifact::load(path);
    ASSERT_TRUE(artifact.has_value()) << path;
    EXPECT_EQ(artifact->to_json(), *text) << path;
    ++baselines;
  }
  EXPECT_GT(baselines, 0);
}

/// `format` with its one %s replaced by `value`.
std::string with_value(const char* format, const char* value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

TEST(RunBench, ArtifactParseRejectsIntegersTheirFieldCannotHold) {
  // Each document parses with an in-range integer, so each rejection below
  // is the number's doing.
  const auto parses = [](const std::string& json) {
    return Artifact::parse(json).has_value();
  };
  const char* events =
      R"({"schema_version":2,"bench":"x","timing":{"sim_events":%s}})";
  EXPECT_TRUE(parses(with_value(events, "18446744073709551615")));
  EXPECT_FALSE(parses(with_value(events, "1e300")));
  EXPECT_FALSE(parses(with_value(events, "99999999999999999999999")));
  EXPECT_FALSE(parses(with_value(events, "1.5")));
  EXPECT_FALSE(parses(with_value(events, "-1")));
  const char* repeat =
      R"({"schema_version":2,"bench":"x","config":{"repeat":%s}})";
  EXPECT_TRUE(parses(with_value(repeat, "2147483647")));
  EXPECT_FALSE(parses(with_value(repeat, "3000000000")));
  EXPECT_FALSE(parses(R"({"schema_version":2.5,"bench":"x"})"));
}

TEST(RunBench, ArtifactWriteReportsAFullDisk) {
  if (std::FILE* f = std::fopen("/dev/full", "w")) {
    std::fclose(f);
  } else {
    GTEST_SKIP() << "no /dev/full";
  }
  // Smaller than a 4 KiB stdio buffer, so only fclose sees the failure.
  Artifact a;
  a.bench = "tiny";
  ASSERT_LT(a.to_json().size(), 4096u);
  EXPECT_FALSE(a.write("/dev/full"));
}

/// Synthetic artifact with a controllable timing profile: repeat samples
/// at +/-2% around `wall_mean`, one grid point.
Artifact make_artifact(const std::string& name, double wall_mean) {
  Artifact a;
  a.bench = name;
  a.messages = 4000;
  a.repeat = 3;
  a.reps_per_point = 3;
  a.wall_s = DistStat::of({wall_mean * 0.98, wall_mean, wall_mean * 1.02});
  a.sim_seconds = 10.0;
  a.sim_events = 100000;
  a.experiments = 5;
  const double rate = 100000.0 / wall_mean;
  a.events_per_wall_s = DistStat::of({rate * 0.98, rate, rate * 1.02});
  a.points.push_back(
      {{{"k", 1.0}}, {{"p_loss", Stat{0.01, 0.001}}}});
  return a;
}

// KS_BENCH_MESSAGES is a whole decimal or 0x number: strtoull read "5k"
// as 5 and "zz" as 0 (the bench default), so a typo silently resized
// every run.
TEST(RunBench, MessagesKnobIsAWholeNumber) {
  ::unsetenv("KS_BENCH_MESSAGES");
  EXPECT_EQ(bench::messages_per_run(300), 300u);
  ::setenv("KS_BENCH_MESSAGES", "4000", 1);
  EXPECT_EQ(bench::messages_per_run(300), 4000u);
  ::setenv("KS_BENCH_MESSAGES", "0x10", 1);
  EXPECT_EQ(bench::messages_per_run(300), 16u);
  ::setenv("KS_BENCH_MESSAGES", "0", 1);
  EXPECT_EQ(bench::messages_per_run(300), 300u) << "0 keeps the default";
  for (const char* bad : {"5k", "zz", "-1", " 300", "1e4"}) {
    ::setenv("KS_BENCH_MESSAGES", bad, 1);
    EXPECT_THROW(bench::messages_per_run(300), std::invalid_argument) << bad;
  }
  ::unsetenv("KS_BENCH_MESSAGES");
}

TEST(Diff, IdenticalSetsProduceNoFindings) {
  const auto a = make_artifact("b1", 1.0);
  const auto report = diff_artifacts({a}, {a});
  EXPECT_TRUE(report.findings.empty());
  EXPECT_FALSE(report.has_regressions());
  EXPECT_EQ(report.benches_compared, 1);
  EXPECT_EQ(report.timing_metrics_compared, 2);
  EXPECT_EQ(report.point_metrics_compared, 1);
}

TEST(Diff, FlagsClearSlowdownAsRegression) {
  const auto base = make_artifact("b1", 1.0);
  const auto slow = make_artifact("b1", 2.0);
  const auto report = diff_artifacts({base}, {slow});
  ASSERT_FALSE(report.findings.empty());
  EXPECT_TRUE(report.has_regressions());
  bool wall_flagged = false, rate_flagged = false;
  for (const auto& f : report.findings) {
    EXPECT_EQ(f.kind, FindingKind::kTimingRegression);
    if (f.metric == "wall_s") {
      wall_flagged = true;
      EXPECT_NEAR(f.delta_rel, 1.0, 1e-9);
    }
    if (f.metric == "events_per_wall_s") rate_flagged = true;
  }
  EXPECT_TRUE(wall_flagged);
  EXPECT_TRUE(rate_flagged);
  // A 2x speedup is informational, never failing.
  const auto improved = diff_artifacts({slow}, {base});
  EXPECT_FALSE(improved.has_regressions());
  ASSERT_FALSE(improved.findings.empty());
  EXPECT_EQ(improved.findings[0].kind, FindingKind::kTimingImprovement);
}

TEST(Diff, NoiseGateSuppressesWobbleWithinStddev) {
  // 15% slower on the mean, but the repeat samples are so noisy that
  // 3 * combined-stddev dwarfs the delta: not a finding.
  auto base = make_artifact("b1", 1.0);
  base.wall_s = DistStat::of({0.8, 1.0, 1.2});
  auto cur = make_artifact("b1", 1.0);
  cur.wall_s = DistStat::of({0.92, 1.15, 1.38});
  const auto report = diff_artifacts({base}, {cur});
  EXPECT_FALSE(report.has_regressions());
  for (const auto& f : report.findings) {
    EXPECT_NE(f.metric, "wall_s");
  }
}

TEST(Diff, DeterministicPointDriftIsAFindingAtAnyMagnitude) {
  const auto base = make_artifact("b1", 1.0);
  auto cur = make_artifact("b1", 1.0);
  cur.points[0].metrics[0].second.mean = 0.0100001;  // 0.001% drift.
  const auto report = diff_artifacts({base}, {cur});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, FindingKind::kResultDrift);
  EXPECT_TRUE(report.has_regressions());
}

TEST(Diff, MissingPointMetricFailsAndNewMetricDoesNot) {
  const auto base = make_artifact("b1", 1.0);
  auto dropped = base;
  dropped.points[0].metrics.clear();
  const auto missing = diff_artifacts({base}, {dropped});
  ASSERT_EQ(missing.findings.size(), 1u);
  EXPECT_EQ(missing.findings[0].kind, FindingKind::kResultDrift);
  EXPECT_EQ(missing.findings[0].detail, "metric missing from current run");
  EXPECT_TRUE(missing.has_regressions(/*warn_only=*/true));

  auto added = base;
  added.points[0].metrics.push_back({"p_new", Stat{1.0, 0.0}});
  EXPECT_TRUE(diff_artifacts({base}, {added}).findings.empty());
}

TEST(Diff, MissingBenchFailsAndNewBenchDoesNot) {
  const auto b1 = make_artifact("b1", 1.0);
  const auto b2 = make_artifact("b2", 1.0);
  const auto missing = diff_artifacts({b1, b2}, {b1});
  ASSERT_EQ(missing.findings.size(), 1u);
  EXPECT_EQ(missing.findings[0].kind, FindingKind::kMissingBench);
  EXPECT_EQ(missing.findings[0].bench, "b2");
  EXPECT_TRUE(missing.has_regressions());

  const auto added = diff_artifacts({b1}, {b1, b2});
  EXPECT_TRUE(added.findings.empty());
}

// --warn-only downgrades timing regressions alone: they depend on the
// host, while drift and a missing bench are deterministic.
TEST(Diff, WarnOnlyStillFailsOnDriftAndMissingBench) {
  const auto base = make_artifact("b1", 1.0);
  const auto slow = make_artifact("b1", 2.0);
  const auto timing = diff_artifacts({base}, {slow});
  EXPECT_TRUE(timing.has_regressions());
  EXPECT_FALSE(timing.has_regressions(/*warn_only=*/true));

  auto slow_drifted = slow;
  slow_drifted.points[0].metrics[0].second.mean = 0.02;
  EXPECT_TRUE(diff_artifacts({base}, {slow_drifted}).has_regressions(true));

  const auto missing = diff_artifacts({base, make_artifact("b2", 1.0)}, {base});
  EXPECT_TRUE(missing.has_regressions(true));
}

TEST(Diff, ShapeAndFingerprintChangesAreInformational) {
  const auto base = make_artifact("b1", 1.0);
  auto other_host = make_artifact("b1", 2.0);
  other_host.fingerprint.host = "elsewhere";
  auto report = diff_artifacts({base}, {other_host});
  // Timing still compares (same run shape) and flags; the fingerprint
  // change is reported alongside but is not itself failing.
  bool fingerprint_seen = false;
  for (const auto& f : report.findings) {
    if (f.kind == FindingKind::kFingerprintChange) fingerprint_seen = true;
  }
  EXPECT_TRUE(fingerprint_seen);

  auto resized = make_artifact("b1", 5.0);
  resized.messages = 800;  // Different run shape: skip, don't flag timing.
  report = diff_artifacts({base}, {resized});
  EXPECT_FALSE(report.has_regressions());
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, FindingKind::kFingerprintChange);
  EXPECT_EQ(report.findings[0].metric, "config");
}

TEST(Diff, RenderListsFindingsWorstFirst) {
  const auto base = make_artifact("b1", 1.0);
  auto cur = make_artifact("b1", 2.0);
  cur.points[0].metrics[0].second.mean = 0.02;
  const auto report = diff_artifacts({base}, {cur});
  ASSERT_GE(report.findings.size(), 2u);
  // Every failing finding sorts ahead of informational ones and the
  // rendered table carries the kind labels.
  const auto text = render_diff(report);
  EXPECT_NE(text.find("timing-regression"), std::string::npos);
  EXPECT_NE(text.find("result-drift"), std::string::npos);
  const auto empty = render_diff(diff_artifacts({base}, {base}));
  EXPECT_NE(empty.find("no findings"), std::string::npos);
}

}  // namespace
}  // namespace ks::bench
