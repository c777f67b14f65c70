// The full RunReport JSON parser (obs/report_parse.hpp) must be an exact
// inverse of RunReport::to_json(): parse-then-serialize is byte-identical,
// including uint64 values above 2^53 (span ids, the kNoKey sentinel) that
// a double-only number representation would corrupt. Hostile input — and,
// in the mutation test, hostile bench artifacts too — must be rejected or
// read to a fixed point, never crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_core/artifact.hpp"
#include "chaos/generator.hpp"
#include "common/rng.hpp"
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

TEST(ReportParse, ScenarioAndProfileNamesInvertToString) {
  expect_names_round_trip(testbed::SourceMode::kOnDemand);
  expect_names_round_trip(testbed::FaultAction::Kind::kFlushStall);
  expect_names_round_trip(chaos::Profile::kDiskFaults);
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
  auto& health = report.health;
  health.enabled = true;
  health.interval_us = 60000;
  health.ticks = 7;
  HealthReport::Series lag;
  lag.name = "group_lag_p0";
  lag.interval_us = 60000;
  lag.dropped = 1;
  lag.t = {0, 120000};
  lag.count = {2, 1};
  lag.min = {-1.5, 0.0};
  lag.max = {4.0, 0.25};
  lag.sum = {2.5, 0.25};
  health.series.push_back(lag);
  HealthReport::Sketch sketch;
  sketch.name = "e2e_ack_to_deliver_us";
  sketch.count = 3;
  sketch.buckets.assign(kLatencySketchBuckets, 0);
  sketch.buckets[0] = 1;
  sketch.buckets[kLatencySketchBuckets - 1] = 2;
  health.sketches.push_back(sketch);
  health.alerts.push_back(
      {HealthDetector::kLagStall, 0, -1, 240000, -1, 4});
  health.alerts.push_back(
      {HealthDetector::kUnderReplicated, 1, 2, 300000, 420000, 3});
  health.verdicts.push_back(
      {0, LagVerdict::kStall, LagVerdict::kStop, 12, 40, 52});
  return report;
}

/// make_full_report().to_json(), as the hand-written writer of an earlier
/// version produced it: the field lists must keep every byte.
const char* const kFullReportJson =
      R"({"summary":{"duration_s":18,"p_loss":0.012345678901234501},"metric)"
      R"(s":[{"name":"acked_total","kind":"counter","value":500},{"name":"i)"
      R"(nflight","labels":"conn=\"prod:client\"","kind":"gauge","value":3})"
      R"(],"histograms":[{"name":"latency_us","labels":"stage=\"e2e\"","cou)"
      R"(nt":499,"mean_us":1234.5,"p50_us":1100,"p99_us":4000,"max_us":9000)"
      R"(}],"series":[{"name":"acked_total","kind":"counter","t_us":[100000)"
      R"(,200000],"v":[10,20]}],"trace":{"sample_every":10,"dropped":2,"eve)"
      R"(nts":[{"t_us":150000,"key":40,"event":"send_attempt","detail":0},{)"
      R"("t_us":160000,"key":40,"event":"appended","detail":1}]},"spans":{")"
      R"(sample_every":1,"dropped":0,"events":[{"id":1152921504606846983,"p)"
      R"(arent":0,"key":18446744073709551615,"kind":"broker.fetch","track":)"
      R"(0,"detail":-5,"begin_us":100,"end_us":900},{"id":2,"parent":1,"key)"
      R"(":40,"kind":"produce.batch","track":1,"detail":0,"begin_us":150,"e)"
      R"(nd_us":450}]},"timeline":{"dropped":1,"events":[{"t_us":120000,"ki)"
      R"(nd":"leader_elected","broker":2,"partition":0,"a":-1,"b":7,"note":)"
      R"("isr shrank"},{"t_us":130000,"kind":"isr_shrink","broker":1,"parti)"
      R"(tion":0,"a":3,"b":2}]},"anomalies":{"acked_lost_keys":[41,36028797)"
      R"(018963971],"lost_keys":[44],"group_lost_keys":[]},"health":{"enabl)"
      R"(ed":true,"interval_us":60000,"ticks":7,"series":[{"name":"group_la)"
      R"(g_p0","interval_us":60000,"dropped":1,"t_us":[0,120000],"count":[2)"
      R"(,1],"min":[-1.5,0],"max":[4,0.25],"sum":[2.5,0.25]}],"sketches":[{)"
      R"("name":"e2e_ack_to_deliver_us","count":3,"buckets":[1,0,0,0,0,0,0,)"
      R"(0,0,0,0,0,0,0,0,2]}],"alerts":[{"detector":"lag_stall","partition")"
      R"(:0,"broker":-1,"opened_us":240000,"resolved_us":-1,"windows":4},{")"
      R"(detector":"under_replicated","partition":1,"broker":2,"opened_us":)"
      R"(300000,"resolved_us":420000,"windows":3}],"verdicts":[{"partition")"
      R"(:0,"verdict":"STALL","worst":"STOP","lag":12,"committed":40,"hw":5)"
      R"(2}]},"perf":{"wall_us":123456,"peak_rss_kb":5652,"profiled":true,")"
      R"(alloc_count":288307,"alloc_bytes":18014398509482083,"sections":[{")"
      R"(name":"sim.event_dispatch","calls":99019,"total_ns":46411254},{"na)"
      R"(me":"tcp.segment","calls":39995,"total_ns":7000000}]}})";

TEST(ReportParse, FullReportKeepsItsPinnedBytes) {
  EXPECT_EQ(make_full_report().to_json(), kFullReportJson);
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

TEST(ReportParse, RejectsIntegersTheirFieldCannotHold) {
  // Each document parses with an in-range integer, so each rejection below
  // is the number's doing.
  const char* t_us =
      R"({"trace":{"events":[{"t_us":%s,"event":"appended"}]}})";
  EXPECT_TRUE(parses(with_name(t_us, "-9223372036854775808")));
  EXPECT_FALSE(parses(with_name(t_us, "1e300")));
  EXPECT_FALSE(parses(with_name(t_us, "99999999999999999999999")));
  EXPECT_FALSE(parses(with_name(t_us, "1.5")));
  EXPECT_FALSE(parses(with_name(t_us, "1e3")));
  const char* key = R"({"anomalies":{"lost_keys":[%s]}})";
  EXPECT_TRUE(parses(with_name(key, "18446744073709551615")));
  EXPECT_FALSE(parses(with_name(key, "-1")));
  const char* broker =
      R"({"timeline":{"events":[{"kind":"isr_shrink","broker":%s}]}})";
  EXPECT_TRUE(parses(with_name(broker, "2147483647")));
  EXPECT_FALSE(parses(with_name(broker, "3000000000")));
  // A value of another JSON type leaves the field at its default.
  const auto null_time = report_from_json(with_name(t_us, "null"));
  ASSERT_TRUE(null_time.has_value());
  EXPECT_EQ(null_time->trace.at(0).t, 0);
}

TEST(ReportParse, RejectsDeepNestingWithoutExhaustingTheStack) {
  const auto nested = [](int depth) {
    return R"({"summary":)" + std::string(depth, '[') +
           std::string(depth, ']') + "}";
  };
  EXPECT_TRUE(parses(nested(200)));
  // 300,000 brackets overflowed the recursive reader's stack.
  EXPECT_FALSE(parses(nested(300000)));
  EXPECT_FALSE(bench::Artifact::parse(nested(300000)).has_value());
}

TEST(ReportParse, IntAccessorsFallBackWhenTheNumberDoesNotFit) {
  const auto doc = parse_json(
      R"({"huge":1e300,"frac":1.5,"neg":-1,"wide":99999999999999999999999,)"
      R"("ok":42})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->int_or("huge", 7), 7);
  EXPECT_EQ(doc->int_or("frac", 7), 7);
  EXPECT_EQ(doc->int_or("wide", 7), 7);
  EXPECT_EQ(doc->uint_or("huge", 7), 7u);
  EXPECT_EQ(doc->uint_or("neg", 7), 7u);
  EXPECT_EQ(doc->int_or("neg", 7), -1);
  EXPECT_EQ(doc->uint_or("ok", 7), 42u);
}

TEST(ReportParse, WritersReportAFullDisk) {
  if (std::FILE* f = std::fopen("/dev/full", "w")) {
    std::fclose(f);
  } else {
    GTEST_SKIP() << "no /dev/full";
  }
  // Each document is smaller than a 4 KiB stdio buffer, so only fclose
  // sees the failed write.
  const RunReport report = make_full_report();
  ASSERT_LT(report.to_json().size(), 4096u);
  ASSERT_LT(report.perfetto_json().size(), 4096u);
  EXPECT_FALSE(report.write_json("/dev/full"));
  EXPECT_FALSE(report.write_perfetto("/dev/full"));
}

/// A uniform index below `n` (n > 0).
std::size_t below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One mutant of `doc`: a flipped bit, a deleted run of bytes, a
/// truncation, or a number token swapped for a hostile value.
std::string mutate(const std::string& doc, Rng& rng) {
  static const char* const kValues[] = {
      "1e300", "-1", "1.5", "null", "99999999999999999999999", "3000000000",
      "-9223372036854775809", "18446744073709551616", "-0", "1e-320",
      "\"x\"", "true", "[]", "{}"};
  std::string m = doc;
  const std::size_t at = below(rng, m.size());
  switch (below(rng, 4)) {
    case 0: m[at] = static_cast<char>(m[at] ^ (1 << below(rng, 8))); break;
    case 1: m.erase(at, 1 + below(rng, 8)); break;
    case 2: m.resize(at); break;
    default: {
      const std::size_t begin = m.find_first_of("-0123456789", at);
      if (begin == std::string::npos) break;
      const std::size_t end = m.find_first_not_of("+-.0123456789eE", begin);
      m.replace(begin, end - begin,
                kValues[below(rng, std::size(kValues))]);
    }
  }
  return m;
}

/// When `parse` accepts `mutant`, writing what it read and reading that
/// again must reproduce the same bytes. Returns whether it was accepted.
template <class Parse>
bool expect_fixed_point(const std::string& mutant, const Parse& parse) {
  const auto first = parse(mutant);
  if (!first) return false;
  const std::string written = first->to_json();
  const auto second = parse(written);
  EXPECT_TRUE(second.has_value()) << mutant;
  if (second) {
    EXPECT_EQ(second->to_json(), written) << mutant;
  }
  return true;
}

/// Bare scenarios that together hold every FaultAction::Kind, with values
/// off the defaults in every group of fields.
std::vector<testbed::Scenario> hand_built_scenarios() {
  using K = testbed::FaultAction::Kind;
  const auto fault = [](TimePoint at, K kind) {
    testbed::FaultAction f;
    f.at = at;
    f.kind = kind;
    return f;
  };
  testbed::Scenario net;
  net.seed = ~std::uint64_t{0};
  net.message_size_jitter = 40;
  net.source_mode = testbed::SourceMode::kOnDemand;
  net.network_delay = millis(15);
  net.packet_loss = 0.0123456789012345;
  net.semantics = kafka::DeliverySemantics::kAtMostOnce;
  auto ge = fault(0, K::kGilbertElliott);
  ge.delay = millis(15);
  ge.ge.loss_bad = 0.25;
  auto netem = fault(seconds(2), K::kNetem);
  netem.delay = millis(100);
  netem.loss = 0.08;
  auto line_rate = fault(seconds(3), K::kBandwidth);
  line_rate.bandwidth_bps = 10e6;
  net.faults = {ge, netem, line_rate};

  testbed::Scenario disk;
  disk.replication_factor = 3;
  disk.min_insync_replicas = 2;
  disk.unclean_leader_election = true;
  disk.flush_messages = 1;
  disk.flush_interval = millis(50);
  auto power_loss = fault(seconds(1), K::kPowerLoss);
  power_loss.broker = 1;
  power_loss.torn_write = true;
  auto corrupt = fault(seconds(2), K::kDiskCorrupt);
  corrupt.broker = 2;
  corrupt.disk_seed = 0xDEADBEEFCAFEF00Du;
  auto stall = fault(seconds(3), K::kFlushStall);
  stall.delay = millis(300);
  disk.faults = {fault(0, K::kBrokerFail), fault(seconds(1), K::kBrokerResume),
                 power_loss, fault(seconds(2), K::kPowerRestore), corrupt,
                 stall};

  testbed::Scenario group;
  group.partitions = 4;
  group.partitioner = kafka::PartitionerKind::kRoundRobin;
  group.group_size = 3;
  group.group_commit_mode = kafka::CommitMode::kCommitBeforeDeliver;
  group.group_strategy = kafka::AssignmentStrategy::kEager;
  group.group_static_membership = true;
  group.adaptive_enabled = true;
  group.adaptive_interval = millis(400);
  auto crash = fault(seconds(1), K::kConsumerCrash);
  crash.member = 2;
  auto pause = fault(seconds(2), K::kConsumerPause);
  pause.member = 1;
  pause.delay = millis(900);
  group.faults = {crash, fault(seconds(3), K::kConsumerRestart), pause,
                  fault(seconds(4), K::kGroupScaleOut)};
  return {net, disk, group};
}

TEST(ReaderMutation, MutantsNeverCrashAndReadBackToAFixedPoint) {
  std::vector<std::string> seeds{make_full_report().to_json()};
  const auto scenarios = hand_built_scenarios();
  std::set<testbed::FaultAction::Kind> kinds;
  for (const auto& sc : scenarios) {
    for (const auto& f : sc.faults) kinds.insert(f.kind);
    seeds.push_back(testbed::to_json(sc));
  }
  EXPECT_EQ(kinds.size(),
            static_cast<std::size_t>(testbed::FaultAction::Kind::kFlushStall) +
                1)
      << "the seed scenarios miss a fault kind";
  RunReport with_scenario = make_full_report();
  with_scenario.scenario = *parse_json(seeds.back());
  seeds.push_back(with_scenario.to_json());
  std::vector<std::filesystem::path> baselines;
  for (const auto& entry :
       std::filesystem::directory_iterator(KS_BASELINES_DIR)) {
    baselines.push_back(entry.path());
  }
  std::sort(baselines.begin(), baselines.end());
  for (const auto& path : baselines) {
    const auto text = read_file(path.string());
    ASSERT_TRUE(text.has_value()) << path;
    seeds.push_back(*text);
  }
  ASSERT_GT(seeds.size(), 1u);

  const auto report = [](const std::string& s) { return report_from_json(s); };
  const auto artifact = [](const std::string& s) {
    return bench::Artifact::parse(s);
  };
  // The scenario reader takes a parsed document; testbed::to_json writes.
  struct ScenarioDoc {
    testbed::Scenario scenario;
    std::string to_json() const { return testbed::to_json(scenario); }
  };
  const auto scenario =
      [](const std::string& s) -> std::optional<ScenarioDoc> {
    const auto doc = parse_json(s);
    if (!doc) return std::nullopt;
    auto sc = testbed::scenario_from_json(*doc);
    if (!sc) return std::nullopt;
    return ScenarioDoc{std::move(*sc)};
  };
  Rng rng(0xF1E1D5);
  int reports = 0, artifacts = 0, scenario_docs = 0;
  for (const auto& seed : seeds) {
    for (int i = 0; i < 1000; ++i) {
      const std::string mutant = mutate(seed, rng);
      reports += expect_fixed_point(mutant, report);
      artifacts += expect_fixed_point(mutant, artifact);
      scenario_docs += expect_fixed_point(mutant, scenario);
    }
  }
  // Every reader accepts part of the mutants, so every fixed point ran.
  EXPECT_GT(reports, 0);
  EXPECT_GT(artifacts, 0);
  EXPECT_GT(scenario_docs, 0);
}

}  // namespace
}  // namespace ks::obs
