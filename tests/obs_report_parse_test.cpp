// The full RunReport JSON parser (obs/report_parse.hpp) must be an exact
// inverse of RunReport::to_json(): parse-then-serialize is byte-identical,
// including uint64 values above 2^53 (span ids, the kNoKey sentinel) that
// a double-only number representation would corrupt.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include "obs/json_parse.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/report_parse.hpp"
#include "obs/span.hpp"
#include "testbed/experiment.hpp"

namespace ks::obs {
namespace {

/// Every value of E in [0, last] maps to a distinct name that
/// enum_from_string<E> maps back to it; the name of an unnamed value ("?")
/// and the empty string map to nothing.
template <typename E>
void expect_names_round_trip(E last) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    const auto value = static_cast<E>(i);
    const std::string name = to_string(value);
    EXPECT_NE(name, "?") << "value " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    const auto parsed = enum_from_string<E>(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, value) << name;
  }
  EXPECT_EQ(std::string(to_string(static_cast<E>(static_cast<int>(last) + 1))),
            "?");
  EXPECT_FALSE(enum_from_string<E>("?").has_value());
  EXPECT_FALSE(enum_from_string<E>("").has_value());
}

TEST(ReportParse, MetricKindFromStringInvertsToString) {
  expect_names_round_trip(MetricKind::kHistogram);
  EXPECT_FALSE(enum_from_string<MetricKind>("summary").has_value());
  expect_names_round_trip(TraceEvent::kDupDetected);
  expect_names_round_trip(SpanKind::kDeliver);
  expect_names_round_trip(ClusterEventKind::kReconfigure);
  expect_names_round_trip(HealthDetector::kFlushStall);
  expect_names_round_trip(LagVerdict::kStop);
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
  report.trace.push_back({150000, 40, TraceEvent::kSendAttempt, 0});
  report.trace.push_back({160000, 40, TraceEvent::kAppended, 1});
  report.span_sample_every = 1;
  report.spans_dropped = 0;
  report.spans.push_back({(1ull << 60) + 7, 0, kNoKey,
                          SpanKind::kBrokerFetch, kTrackControl, -5, 100,
                          900});
  report.spans.push_back({2, 1, 40, SpanKind::kProduceBatch, kTrackProducer,
                          0, 150, 450});
  report.timeline_dropped = 1;
  report.timeline.push_back({120000, ClusterEventKind::kLeaderElected, 2, 0,
                             -1, 7, "isr shrank"});
  report.timeline.push_back(
      {130000, ClusterEventKind::kIsrShrink, 1, 0, 3, 2, ""});
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
  EXPECT_EQ(parsed->health.alerts[0].opened,
            result.report.health.alerts[0].opened);
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

bool parses(const std::string& json) {
  return report_from_json(json).has_value();
}

/// `format` with its one %s replaced by `name`.
std::string with_name(const char* format, const char* name) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, name);
  return buf;
}

TEST(ReportParse, RejectsUnknownEnumNames) {
  // Each document parses with a known name, so each rejection below is the
  // unknown name's doing.
  const char* trace = R"({"trace":{"events":[{"key":1,"event":"%s"}]}})";
  EXPECT_TRUE(parses(with_name(trace, "acked")));
  EXPECT_FALSE(parses(with_name(trace, "emitted")));
  EXPECT_FALSE(parses(with_name(trace, "")));
  const char* spans = R"({"spans":{"events":[{"id":1,"kind":"%s"}]}})";
  EXPECT_TRUE(parses(with_name(spans, "tcp.flight")));
  EXPECT_FALSE(parses(with_name(spans, "tcp_flight")));
  const char* timeline = R"({"timeline":{"events":[{"kind":"%s"}]}})";
  EXPECT_TRUE(parses(with_name(timeline, "isr_shrink")));
  EXPECT_FALSE(parses(with_name(timeline, "isr_change")));
  const char* alert = R"({"health":{"alerts":[{"detector":"%s"}]}})";
  EXPECT_TRUE(parses(with_name(alert, "lag_stall")));
  EXPECT_FALSE(parses(with_name(alert, "lag_stal")));
  const char* verdict =
      R"({"health":{"verdicts":[{"verdict":"%s","worst":"STALL"}]}})";
  EXPECT_TRUE(parses(with_name(verdict, "OK")));
  EXPECT_FALSE(parses(with_name(verdict, "ok")));
  const char* worst =
      R"({"health":{"verdicts":[{"verdict":"OK","worst":"%s"}]}})";
  EXPECT_TRUE(parses(with_name(worst, "STOP")));
  EXPECT_FALSE(parses(with_name(worst, "STOPPED")));
}

/// A health section holding one series with the given array bodies.
std::string health_series(const char* t, const char* count, const char* min,
                          const char* max, const char* sum) {
  return std::string(R"({"health":{"series":[{"name":"s","t_us":[)") + t +
         R"(],"count":[)" + count + R"(],"min":[)" + min + R"(],"max":[)" +
         max + R"(],"sum":[)" + sum + "]}]}}";
}

/// A health section holding one latency sketch.
std::string health_sketch(const char* count, const char* buckets) {
  return std::string(R"({"health":{"sketches":[{"name":"e2e","count":)") +
         count + R"(,"buckets":[)" + buckets + "]}]}}";
}

TEST(ReportParse, RejectsInconsistentHealthSeriesAndSketches) {
  EXPECT_TRUE(parses(health_series("0,10", "1,1", "1,2", "1,2", "1,2")));
  // A t_us array longer than the window arrays made the sparkline read
  // past their end.
  EXPECT_FALSE(parses(health_series("0,10,20", "1,1", "1,2", "1,2", "1,2")));
  EXPECT_FALSE(parses(health_series("0,10", "1", "1,2", "1,2", "1,2")));
  EXPECT_FALSE(parses(health_series("0,10", "1,1", "1", "1,2", "1,2")));
  EXPECT_FALSE(parses(health_series("0,10", "1,1", "1,2", "1,2,3", "1,2")));
  EXPECT_FALSE(parses(health_series("0,10", "1,1", "1,2", "1,2", "")));

  // kLatencySketchBuckets (16) buckets that sum to the count.
  EXPECT_TRUE(parses(health_sketch("3", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2")));
  EXPECT_FALSE(parses(health_sketch("4", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2")));
  EXPECT_FALSE(parses(health_sketch("3", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,2")));
  EXPECT_FALSE(
      parses(health_sketch("3", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,0")));
  // A 10^12 bucket count the old renderer replayed one observe() at a time.
  EXPECT_FALSE(parses(health_sketch("1000000000000", "1000000000000")));
  // Buckets whose sum wraps around 2^64 back onto the count.
  EXPECT_FALSE(parses(health_sketch(
      "1", "18446744073709551615,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0")));
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
