// The full RunReport JSON parser (obs/report_parse.hpp) must be an exact
// inverse of RunReport::to_json(): parse-then-serialize is byte-identical,
// including uint64 values above 2^53 (span ids, the kNoKey sentinel) that
// a double-only number representation would corrupt.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "obs/json_parse.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/report_parse.hpp"
#include "obs/span.hpp"
#include "testbed/experiment.hpp"

namespace ks::obs {
namespace {

TEST(ReportParse, MetricKindFromStringInvertsToString) {
  for (const auto kind : {MetricKind::kCounter, MetricKind::kGauge,
                          MetricKind::kHistogram}) {
    const auto parsed = metric_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(metric_kind_from_string("summary").has_value());
  EXPECT_FALSE(metric_kind_from_string("").has_value());
}

TEST(ReportParse, IntegerTokensKeepExact64BitValues) {
  const auto doc = parse_json(
      "{\"big\":18446744073709551615,\"neg\":-9223372036854775808,"
      "\"frac\":1.5}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->uint_or("big"), ~std::uint64_t{0});
  EXPECT_EQ(doc->int_or("neg"),
            std::numeric_limits<std::int64_t>::min());
  const auto* frac = doc->find("frac");
  ASSERT_NE(frac, nullptr);
  EXPECT_FALSE(frac->integral);
  EXPECT_DOUBLE_EQ(frac->number, 1.5);
}

/// A report exercising every section, with awkward values: empty and
/// non-empty labels/notes, a kNoKey span, ids past 2^53, negative
/// timeline payloads.
RunReport make_full_report() {
  RunReport report;
  report.summary["p_loss"] = 0.0123456789012345;
  report.summary["duration_s"] = 18.0;
  report.metrics.push_back({"acked_total", "", MetricKind::kCounter, 500.0});
  report.metrics.push_back(
      {"inflight", "conn=\"prod:client\"", MetricKind::kGauge, 3.0});
  report.histograms.push_back(
      {"latency_us", "stage=\"e2e\"", 499, 1234.5, 1100.0, 4000.0, 9000.0});
  Sampler::Series series;
  series.name = "acked_total";
  series.kind = MetricKind::kCounter;
  series.t = {100000, 200000};
  series.v = {10.0, 20.0};
  report.series.push_back(series);
  report.trace_sample_every = 10;
  report.trace_dropped = 2;
  report.trace.push_back({150000, 40, "produce.enqueue", 0});
  report.trace.push_back({160000, 40, "broker.append", 1});
  report.span_sample_every = 1;
  report.spans_dropped = 0;
  report.spans.push_back(
      {(1ull << 60) + 7, 0, kNoKey, "election", kTrackControl, -5, 100, 900});
  report.spans.push_back({2, 1, 40, "produce", kTrackProducer, 0, 150, 450});
  report.timeline_dropped = 1;
  report.timeline.push_back(
      {120000, "leader_elected", 2, 0, -1, 7, "isr shrank"});
  report.timeline.push_back({130000, "isr_change", 1, 0, 3, 2, ""});
  report.acked_lost_keys = {41, (1ull << 55) + 3};
  report.lost_keys = {44};
  report.perf.wall_us = 123456;
  report.perf.peak_rss_kb = 5652;
  report.perf.profiled = true;
  report.perf.alloc_count = 288307;
  report.perf.alloc_bytes = (1ull << 54) + 99;
  report.perf.sections.push_back({"sim.event_dispatch", 99019, 46411254});
  report.perf.sections.push_back({"tcp.segment", 39995, 7000000});
  return report;
}

TEST(ReportParse, HandBuiltReportRoundTripsByteExact) {
  const RunReport report = make_full_report();
  const std::string json = report.to_json();
  const auto parsed = report_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_json(), json);

  // Spot-check exactness where doubles would have lost bits.
  ASSERT_EQ(parsed->spans.size(), 2u);
  EXPECT_EQ(parsed->spans[0].key, kNoKey);
  EXPECT_EQ(parsed->spans[0].id, (1ull << 60) + 7);
  EXPECT_EQ(parsed->perf.alloc_bytes, (1ull << 54) + 99);
  EXPECT_EQ(parsed->acked_lost_keys[1], (1ull << 55) + 3);
  EXPECT_TRUE(parsed->perf.profiled);
}

TEST(ReportParse, CanonicalJsonRoundTripsByteExact) {
  const RunReport report = make_full_report();
  const std::string canonical = report.canonical_json();
  const auto parsed = report_from_json(canonical);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->canonical_json(), canonical);
  // The canonical export has no perf section, so the parsed report's perf
  // stays default.
  EXPECT_EQ(parsed->perf.wall_us, 0u);
  EXPECT_FALSE(parsed->perf.profiled);
}

TEST(ReportParse, ExperimentReportRoundTripsByteExact) {
  testbed::Scenario sc;
  sc.seed = 7;
  sc.num_messages = 300;
  sc.message_size = 300;
  sc.packet_loss = 0.1;
  sc.network_delay = millis(20);
  sc.sample_interval = millis(200);
  sc.trace_sample_every = 5;
  sc.trace_capacity = 8192;
  sc.spans_enabled = true;
  sc.span_sample_every = 5;
  sc.span_capacity = 8192;
  profiler().enable(true);
  const auto result = testbed::run_experiment(sc);
  profiler().enable(false);

  const std::string json = result.report.to_json();
  const auto parsed = report_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_json(), json);
  EXPECT_EQ(parsed->canonical_json(), result.report.canonical_json());
  // The parsed report is queryable like the original.
  EXPECT_EQ(parsed->metric("kafka_producer_records_acked_total"),
            result.report.metric("kafka_producer_records_acked_total"));
  EXPECT_FALSE(parsed->metrics.empty());
  EXPECT_FALSE(parsed->series.empty());
  EXPECT_GT(parsed->perf.wall_us, 0u);
}

TEST(ReportParse, HealthSectionWithAlertsRoundTripsByteExact) {
  // A grouped run with a permanent member crash populates every part of
  // the health section: series, sketch, alert ledger, verdicts.
  testbed::Scenario sc;
  sc.seed = 13;
  sc.num_messages = 300;
  sc.partitions = 2;
  sc.group_size = 2;
  testbed::FaultAction crash;
  crash.kind = testbed::FaultAction::Kind::kConsumerCrash;
  crash.member = 0;
  crash.at = millis(200);
  sc.faults.push_back(crash);
  const auto result = testbed::run_experiment(sc);
  ASSERT_FALSE(result.report.health.alerts.empty());
  ASSERT_FALSE(result.report.health.verdicts.empty());

  const std::string json = result.report.to_json();
  const auto parsed = report_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_json(), json);
  ASSERT_EQ(parsed->health.alerts.size(), result.report.health.alerts.size());
  EXPECT_EQ(parsed->health.alerts[0].detector,
            result.report.health.alerts[0].detector);
  EXPECT_EQ(parsed->health.alerts[0].opened_us,
            result.report.health.alerts[0].opened_us);
  ASSERT_EQ(parsed->health.verdicts.size(),
            result.report.health.verdicts.size());
  EXPECT_EQ(parsed->health.verdicts[0].verdict,
            result.report.health.verdicts[0].verdict);
  EXPECT_EQ(parsed->health.ticks, result.report.health.ticks);
  EXPECT_EQ(parsed->health.series.size(), result.report.health.series.size());
}

TEST(ReportParse, RejectsMalformedInput) {
  EXPECT_FALSE(report_from_json("not json").has_value());
  EXPECT_FALSE(report_from_json("[1,2,3]").has_value());
  EXPECT_FALSE(
      report_from_json(
          "{\"metrics\":[{\"name\":\"x\",\"kind\":\"nonsense\",\"value\":1}]}")
          .has_value());
  // An empty object is a valid (empty) report, not an error.
  const auto empty = report_from_json("{}");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->metrics.empty());
}

TEST(ReportParse, LoadRunReportReadsWhatWriteJsonWrote) {
  const RunReport report = make_full_report();
  const std::string path =
      testing::TempDir() + "/report_parse_roundtrip.json";
  ASSERT_TRUE(report.write_json(path));
  const auto loaded = load_run_report(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->to_json(), report.to_json());
  EXPECT_FALSE(load_run_report(path + ".missing").has_value());
}

}  // namespace
}  // namespace ks::obs
