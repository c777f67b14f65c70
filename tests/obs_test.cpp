// Unit tests for src/obs/: metrics registry + handles, collectors, the
// sim-time sampler, the bounded message trace and the exporters.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace ks::obs {
namespace {

TEST(MetricsRegistry, CounterIncrementAndRead) {
  MetricsRegistry reg;
  Counter c = reg.counter("requests_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);
}

TEST(MetricsRegistry, DefaultHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(3.0);
  h.observe(millis(1));
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.get(), nullptr);
}

TEST(MetricsRegistry, SameNameAndLabelsShareACell) {
  MetricsRegistry reg;
  Counter a = reg.counter("x_total", {{"conn", "c1"}});
  Counter b = reg.counter("x_total", {{"conn", "c1"}});
  Counter other = reg.counter("x_total", {{"conn", "c2"}});
  a.inc(5);
  b.inc(2);
  other.inc(1);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(other.value(), 1u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("depth");
  g.set(4.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(MetricsRegistry, HistogramObserves) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("lat_us");
  h.observe(millis(2));
  h.observe(millis(4));
  ASSERT_NE(h.get(), nullptr);
  EXPECT_EQ(h.get()->count(), 2u);
}

TEST(MetricsRegistry, HandlesStayValidAsRegistryGrows) {
  MetricsRegistry reg;
  Counter first = reg.counter("first_total");
  first.inc();
  for (int i = 0; i < 200; ++i) {
    reg.counter("c" + std::to_string(i));
    reg.gauge("g" + std::to_string(i));
  }
  first.inc();
  EXPECT_EQ(first.value(), 2u);  // Deque cells: no reallocation moved it.
}

TEST(MetricsRegistry, CollectorPublishesOnCollect) {
  MetricsRegistry reg;
  std::uint64_t source = 0;
  Counter mirror = reg.counter("mirrored_total");
  CollectorHandle h = reg.add_collector([&] { mirror.set(source); });
  source = 42;
  EXPECT_EQ(mirror.value(), 0u);  // Not yet collected.
  reg.collect();
  EXPECT_EQ(mirror.value(), 42u);
}

TEST(MetricsRegistry, CollectorHandleDeregistersOnDestruction) {
  MetricsRegistry reg;
  int calls = 0;
  {
    CollectorHandle h = reg.add_collector([&] { ++calls; });
    reg.collect();
    EXPECT_EQ(calls, 1);
  }
  reg.collect();  // Handle gone: collector must not fire (or dangle).
  EXPECT_EQ(calls, 1);
}

TEST(MetricsRegistry, CollectorHandleMoveTransfersOwnership) {
  MetricsRegistry reg;
  int calls = 0;
  CollectorHandle outer;
  {
    CollectorHandle inner = reg.add_collector([&] { ++calls; });
    outer = std::move(inner);
  }
  reg.collect();
  EXPECT_EQ(calls, 1);  // Moved-to handle kept the registration alive.
}

TEST(MetricsRegistry, VisitSeesAllKindsWithFullNames) {
  MetricsRegistry reg;
  reg.counter("a_total");
  reg.gauge("b", {{"k", "v"}});
  reg.histogram("c_us");
  std::vector<std::string> names;
  reg.visit([&](const MetricsRegistry::MetricInfo& m) {
    names.push_back(m.full_name());
  });
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a_total");
  EXPECT_EQ(names[1], "b{k=\"v\"}");
  EXPECT_EQ(names[2], "c_us");
}

TEST(Sampler, BuildsAlignedSeries) {
  MetricsRegistry reg;
  Counter c = reg.counter("events_total");
  Gauge g = reg.gauge("depth");
  Sampler sampler(reg, millis(10));
  c.inc(1);
  g.set(2.0);
  sampler.sample(millis(10));
  c.inc(1);
  g.set(5.0);
  sampler.sample(millis(20));

  EXPECT_EQ(sampler.samples_taken(), 2u);
  ASSERT_EQ(sampler.series().size(), 2u);
  const auto& cs = sampler.series()[0];
  EXPECT_EQ(cs.name, "events_total");
  ASSERT_EQ(cs.v.size(), 2u);
  EXPECT_DOUBLE_EQ(cs.v[0], 1.0);
  EXPECT_DOUBLE_EQ(cs.v[1], 2.0);
  EXPECT_EQ(cs.t[0], millis(10));
  EXPECT_EQ(cs.t[1], millis(20));
}

TEST(Sampler, RunsCollectorsBeforeSnapshot) {
  MetricsRegistry reg;
  std::uint64_t source = 7;
  Counter mirror = reg.counter("m_total");
  CollectorHandle h = reg.add_collector([&] { mirror.set(source); });
  Sampler sampler(reg);
  sampler.sample(0);
  ASSERT_EQ(sampler.series().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.series()[0].v[0], 7.0);
}

TEST(Sampler, WatchPrefixNarrowsSelection) {
  MetricsRegistry reg;
  reg.counter("tcp_segments_total");
  reg.counter("kafka_batches_total");
  Sampler sampler(reg);
  sampler.watch("tcp_");
  sampler.sample(0);
  ASSERT_EQ(sampler.series().size(), 1u);
  EXPECT_EQ(sampler.series()[0].name, "tcp_segments_total");
}

TEST(Sampler, LateMetricsJoinWithShorterSeries) {
  MetricsRegistry reg;
  Counter a = reg.counter("a_total");
  Sampler sampler(reg);
  a.inc();
  sampler.sample(millis(1));
  Counter b = reg.counter("b_total");
  b.inc(3);
  sampler.sample(millis(2));
  ASSERT_EQ(sampler.series().size(), 2u);
  EXPECT_EQ(sampler.series()[0].v.size(), 2u);
  ASSERT_EQ(sampler.series()[1].v.size(), 1u);
  EXPECT_EQ(sampler.series()[1].t[0], millis(2));
}

TEST(Sampler, CsvHasHeaderAndOneRowPerSample) {
  MetricsRegistry reg;
  Counter c = reg.counter("n_total");
  Sampler sampler(reg);
  c.inc();
  sampler.sample(1000);
  c.inc();
  sampler.sample(2000);
  const std::string csv = sampler.to_csv();
  EXPECT_NE(csv.find("time_us,n_total"), std::string::npos);
  EXPECT_NE(csv.find("1000,1"), std::string::npos);
  EXPECT_NE(csv.find("2000,2"), std::string::npos);
}

TEST(MessageTrace, RecordsOnlySampledKeys) {
  MessageTrace trace(16, 10);  // Keys 0, 10, 20, ...
  trace.record(1, 10, TraceEvent::kSendAttempt);
  trace.record(2, 11, TraceEvent::kSendAttempt);
  EXPECT_TRUE(trace.sampled(10));
  EXPECT_FALSE(trace.sampled(11));
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.entries()[0].key, 10u);
}

TEST(MessageTrace, ZeroSampleEveryDisables) {
  MessageTrace trace(16, 0);
  EXPECT_FALSE(trace.enabled());
  trace.record(1, 0, TraceEvent::kSendAttempt);
  EXPECT_EQ(trace.size(), 0u);
}

TEST(MessageTrace, RingOverwritesOldestAndCountsDropped) {
  MessageTrace trace(4, 1);
  for (std::uint64_t k = 0; k < 10; ++k) {
    trace.record(static_cast<TimePoint>(k), k, TraceEvent::kAppended);
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  EXPECT_EQ(trace.recorded(), 10u);
  const auto entries = trace.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().key, 6u);  // Oldest retained.
  EXPECT_EQ(entries.back().key, 9u);   // Newest.
}

TEST(MessageTrace, EventsForFiltersOneLifecycle) {
  MessageTrace trace(64, 1);
  trace.record(1, 5, TraceEvent::kSendAttempt, 1);
  trace.record(2, 6, TraceEvent::kSendAttempt, 1);
  trace.record(3, 5, TraceEvent::kRetry, 2);
  trace.record(4, 5, TraceEvent::kAcked, 2);
  const auto life = trace.events_for(5);
  ASSERT_EQ(life.size(), 3u);
  EXPECT_EQ(life[0].event, TraceEvent::kSendAttempt);
  EXPECT_EQ(life[1].event, TraceEvent::kRetry);
  EXPECT_EQ(life[2].event, TraceEvent::kAcked);
  EXPECT_EQ(life[2].detail, 2);
}

TEST(JsonWriter, NestedStructuresAndEscaping) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("he said \"hi\"\n");
  w.key("xs");
  w.begin_array();
  w.value(1);
  w.value(2.5);
  w.value(true);
  w.raw("{\"k\":null}");
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"he said \\\"hi\\\"\\n\","
            "\"xs\":[1,2.5,true,{\"k\":null}]}");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Exporters, PrometheusTextContainsTypeAndValues) {
  MetricsRegistry reg;
  Counter c = reg.counter("requests_total", {{"conn", "a"}});
  c.inc(3);
  Gauge g = reg.gauge("depth");
  g.set(1.5);
  Histogram h = reg.histogram("lat_us");
  h.observe(millis(1));
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total{conn=\"a\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);
}

TEST(Exporters, RunReportCarriesMetricsSeriesAndTrace) {
  MetricsRegistry reg;
  Counter c = reg.counter("events_total");
  c.inc(2);
  Histogram h = reg.histogram("lat_us");
  h.observe(millis(3));
  Sampler sampler(reg);
  sampler.sample(millis(1));
  MessageTrace trace(16, 1);
  trace.record(millis(1), 7, TraceEvent::kAcked, 1);

  const RunReport report = build_run_report(reg, &sampler, &trace);
  EXPECT_DOUBLE_EQ(report.metric("events_total"), 2.0);
  ASSERT_FALSE(report.histograms.empty());
  EXPECT_EQ(report.histograms[0].count, 1u);
  ASSERT_FALSE(report.series.empty());
  ASSERT_EQ(report.trace.size(), 1u);
  EXPECT_EQ(report.trace[0].event, "acked");

  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"events_total\""), std::string::npos);
}

TEST(Exporters, RunReportCollectsBeforeSnapshot) {
  MetricsRegistry reg;
  std::uint64_t source = 13;
  Counter mirror = reg.counter("m_total");
  CollectorHandle h = reg.add_collector([&] { mirror.set(source); });
  const RunReport report = build_run_report(reg);
  EXPECT_DOUBLE_EQ(report.metric("m_total"), 13.0);
  EXPECT_THROW(report.metric("missing"), std::out_of_range);
}

TEST(Exporters, RunReportMetricSumsBareNamesOverLabelSets) {
  MetricsRegistry reg;
  reg.counter("sent_total", {{"conn", "a"}}).inc(3);
  reg.counter("sent_total", {{"conn", "b"}}).inc(4);
  const RunReport report = build_run_report(reg);
  EXPECT_DOUBLE_EQ(report.metric("sent_total"), 7.0);
  EXPECT_DOUBLE_EQ(report.metric("sent_total{conn=\"b\"}"), 4.0);
  EXPECT_THROW(report.metric("sent_total{conn=\"c\"}"), std::out_of_range);
}

// The self-profiler is a process-wide singleton; tests restore its state
// so order does not matter.
class ProfilerTest : public testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = profiler().enabled();
    profiler().enable(false);
    profiler().reset();
  }
  void TearDown() override {
    profiler().reset();
    profiler().enable(was_enabled_);
  }
  bool was_enabled_ = false;
};

TEST_F(ProfilerTest, DisabledScopeRecordsNothing) {
  { ProfScope scope(ProfKey::kTcpSegment); }
  const auto snap = profiler().snapshot();
  EXPECT_EQ(snap.section(ProfKey::kTcpSegment).calls, 0u);
}

TEST_F(ProfilerTest, EnabledScopeCountsCallsAndTime) {
  profiler().enable(true);
  for (int i = 0; i < 3; ++i) {
    ProfScope scope(ProfKey::kBrokerProduce);
  }
  const auto snap = profiler().snapshot();
  EXPECT_EQ(snap.section(ProfKey::kBrokerProduce).calls, 3u);
  EXPECT_EQ(snap.section(ProfKey::kBrokerFetch).calls, 0u);
}

TEST_F(ProfilerTest, ScopeArmsAtConstructionNotDestruction) {
  // Enabling mid-scope must not record: the scope sampled the clock only
  // if the profiler was on when it opened.
  profiler().enable(false);
  {
    ProfScope scope(ProfKey::kInvariantCheck);
    profiler().enable(true);
  }
  EXPECT_EQ(profiler().snapshot().section(ProfKey::kInvariantCheck).calls,
            0u);
}

TEST_F(ProfilerTest, SnapshotSinceSubtractsPairwise) {
  profiler().enable(true);
  { ProfScope scope(ProfKey::kEventDispatch); }
  const auto mid = profiler().snapshot();
  { ProfScope scope(ProfKey::kEventDispatch); }
  { ProfScope scope(ProfKey::kEventDispatch); }
  const auto delta = profiler().snapshot().since(mid);
  EXPECT_EQ(delta.section(ProfKey::kEventDispatch).calls, 2u);
}

TEST_F(ProfilerTest, EveryKeyHasAStableName) {
  for (std::size_t i = 0; i < kProfKeyCount; ++i) {
    const char* name = to_string(static_cast<ProfKey>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?");
  }
}

TEST_F(ProfilerTest, PeakRssIsPositiveAndMonotone) {
  const auto first = peak_rss_kb();
  EXPECT_GT(first, 0);
  EXPECT_GE(peak_rss_kb(), first);
}

}  // namespace
}  // namespace ks::obs
