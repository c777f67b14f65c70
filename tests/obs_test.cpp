// Unit tests for src/obs/: metrics registry + bindings, the sim-time
// sampler, the bounded message trace and the exporters.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/ring.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace ks::obs {
namespace {

/// The value the registry currently reports for `full_name`.
double value_of(const MetricsRegistry& reg, const std::string& full_name) {
  double v = -1.0;
  reg.visit([&](const MetricsRegistry::MetricInfo& m) {
    if (m.full_name() == full_name) v = m.value();
  });
  return v;
}

TEST(MetricsRegistry, BindingReadsCurrentValues) {
  MetricsRegistry reg;
  std::uint64_t requests = 0;
  double depth = 0.0;
  MetricsBinding binding(reg);
  binding.counter("requests_total", {}, &requests);
  binding.gauge("depth", {}, [&] { return depth; });
  EXPECT_EQ(value_of(reg, "requests_total"), 0.0);
  requests = 10;
  depth = 2.5;
  EXPECT_EQ(value_of(reg, "requests_total"), 10.0);
  EXPECT_EQ(value_of(reg, "depth"), 2.5);
}

TEST(MetricsRegistry, DefaultHandlesAreInert) {
  Histogram h;
  h.observe(millis(1));
  EXPECT_EQ(h.get(), nullptr);
}

TEST(MetricsRegistry, SameNameAndLabelsAreSeparateEntries) {
  MetricsRegistry reg;
  const std::uint64_t a = 5, b = 2, other = 1;
  MetricsBinding first(reg), second(reg);
  first.counter("x_total", {{"conn", "c1"}}, &a);
  second.counter("x_total", {{"conn", "c1"}}, &b);
  second.counter("x_total", {{"conn", "c2"}}, &other);
  EXPECT_EQ(reg.size(), 3u);
  const RunReport report = build_run_report(reg);
  EXPECT_DOUBLE_EQ(report.metric("x_total{conn=\"c1\"}"), 7.0);
  EXPECT_DOUBLE_EQ(report.metric("x_total"), 8.0);
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
  Histogram first = reg.histogram("first_us");
  first.observe(millis(1));
  const std::uint64_t v = 0;
  MetricsBinding binding(reg);
  for (int i = 0; i < 200; ++i) {
    binding.counter("c" + std::to_string(i), {}, &v);
    reg.histogram("h" + std::to_string(i));
  }
  first.observe(millis(1));  // Deque cells: no reallocation moved it.
  EXPECT_EQ(first.get()->count(), 2u);
  EXPECT_EQ(value_of(reg, "first_us"), 2.0);
}

TEST(MetricsRegistry, DestroyedBindingFreezesLastValue) {
  MetricsRegistry reg;
  int reads = 0;
  {
    std::uint64_t sent = 0;
    MetricsBinding binding(reg);
    binding.counter("sent_total", {}, [&] {
      ++reads;
      return static_cast<double>(sent);
    });
    sent = 42;
  }
  const int reads_at_death = reads;
  EXPECT_EQ(value_of(reg, "sent_total"), 42.0);
  EXPECT_EQ(reads, reads_at_death);  // Never called into the dead owner.
}

TEST(MetricsRegistry, MovedBindingKeepsOwnership) {
  MetricsRegistry reg;
  std::uint64_t sent = 1;
  std::optional<MetricsBinding> outer;
  {
    MetricsBinding inner(reg);
    inner.counter("sent_total", {}, &sent);
    outer.emplace(std::move(inner));
  }
  sent = 9;  // The moved-from binding froze nothing: still read live.
  EXPECT_EQ(value_of(reg, "sent_total"), 9.0);
  outer.reset();
  sent = 11;
  EXPECT_EQ(value_of(reg, "sent_total"), 9.0);
}

TEST(MetricsRegistry, VisitSeesAllKindsWithFullNames) {
  MetricsRegistry reg;
  MetricsBinding binding(reg);
  binding.counter("a_total", {}, [] { return 0.0; });
  binding.gauge("b", {{"k", "v"}}, [] { return 0.0; });
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
  std::uint64_t events = 0;
  double depth = 0.0;
  MetricsBinding binding(reg);
  binding.counter("events_total", {}, &events);
  binding.gauge("depth", {}, &depth);
  Sampler sampler(reg, millis(10));
  events = 1;
  depth = 2.0;
  sampler.sample(millis(10));
  events = 2;
  depth = 5.0;
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

TEST(Sampler, WatchPrefixNarrowsSelection) {
  MetricsRegistry reg;
  MetricsBinding binding(reg);
  binding.counter("tcp_segments_total", {}, [] { return 0.0; });
  binding.counter("kafka_batches_total", {}, [] { return 0.0; });
  Sampler sampler(reg);
  sampler.watch("tcp_");
  sampler.sample(0);
  ASSERT_EQ(sampler.series().size(), 1u);
  EXPECT_EQ(sampler.series()[0].name, "tcp_segments_total");
}

TEST(Sampler, LateMetricsJoinWithShorterSeries) {
  MetricsRegistry reg;
  const std::uint64_t a = 1, b = 3;
  MetricsBinding binding(reg);
  binding.counter("a_total", {}, &a);
  Sampler sampler(reg);
  sampler.sample(millis(1));
  binding.counter("b_total", {}, &b);
  sampler.sample(millis(2));
  ASSERT_EQ(sampler.series().size(), 2u);
  EXPECT_EQ(sampler.series()[0].v.size(), 2u);
  ASSERT_EQ(sampler.series()[1].v.size(), 1u);
  EXPECT_EQ(sampler.series()[1].t[0], millis(2));
}

TEST(Sampler, CsvHasHeaderAndOneRowPerSample) {
  MetricsRegistry reg;
  std::uint64_t n = 0;
  MetricsBinding binding(reg);
  binding.counter("n_total", {}, &n);
  Sampler sampler(reg);
  n = 1;
  sampler.sample(1000);
  n = 2;
  sampler.sample(2000);
  const std::string csv = sampler.to_csv();
  EXPECT_NE(csv.find("time_us,n_total"), std::string::npos);
  EXPECT_NE(csv.find("1000,1"), std::string::npos);
  EXPECT_NE(csv.find("2000,2"), std::string::npos);
}

std::vector<int> contents(const Ring<int>& ring) {
  std::vector<int> out;
  for (std::size_t i = 0; i < ring.size(); ++i) out.push_back(ring[i]);
  return out;
}

TEST(Ring, FillsThenOverwritesOldestFirst) {
  Ring<int> ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 3u);
  for (int v = 1; v <= 3; ++v) ring.push_back(v);
  EXPECT_EQ(contents(ring), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ring.back(), 3);
  EXPECT_EQ(ring.evicted(), 0u);

  // Wrap past the end twice over: always the newest three, oldest first.
  for (int v = 4; v <= 8; ++v) {
    ring.push_back(v);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.back(), v);
    EXPECT_EQ(ring[0], v - 2);
  }
  EXPECT_EQ(contents(ring), (std::vector<int>{6, 7, 8}));
  EXPECT_EQ(ring.to_vector(), contents(ring));
  EXPECT_EQ(ring.evicted(), 5u);

  // Writes through indexing and back() land on the entry they name.
  ring[0] = 60;
  ring.back() = 80;
  EXPECT_EQ(ring.to_vector(), (std::vector<int>{60, 7, 80}));
}

TEST(Ring, CapacityOneKeepsTheNewest) {
  Ring<int> ring(1);
  ring.push_back(1);
  EXPECT_EQ(ring.evicted(), 0u);
  ring.push_back(2);
  ring.push_back(3);
  EXPECT_EQ(ring.to_vector(), (std::vector<int>{3}));
  EXPECT_EQ(ring.back(), 3);
  EXPECT_EQ(ring.evicted(), 2u);
  // Capacity 0 is treated as 1.
  EXPECT_EQ(Ring<int>(0).capacity(), 1u);
}

TEST(Ring, ClearEmptiesAndRestartsTheCount) {
  Ring<int> ring(2);
  for (int v = 1; v <= 5; ++v) ring.push_back(v);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.evicted(), 0u);
  EXPECT_EQ(ring.capacity(), 2u);
  ring.push_back(7);
  ring.push_back(8);
  ring.push_back(9);
  EXPECT_EQ(ring.to_vector(), (std::vector<int>{8, 9}));
  EXPECT_EQ(ring.evicted(), 1u);
}

TEST(Ring, AllocatesNothingUpFrontAndReservesAtMostItsCapacity) {
  const auto setup = profiler().snapshot();
  auto probe = std::make_unique<int>(0);
  if (profiler().snapshot().since(setup).alloc_bytes == 0) {
    GTEST_SKIP() << "allocation counting is off in this build";
  }
  const auto start = profiler().snapshot();
  Ring<std::uint64_t> big(std::size_t{1} << 30);  // 8 GiB if allocated.
  EXPECT_EQ(profiler().snapshot().since(start).alloc_bytes, 0u);
  big.reserve(1024);
  EXPECT_EQ(profiler().snapshot().since(start).alloc_bytes,
            1024 * sizeof(std::uint64_t));
  Ring<std::uint64_t> small(4);
  small.reserve(1024);
  EXPECT_EQ(profiler().snapshot().since(start).alloc_bytes,
            (1024 + 4) * sizeof(std::uint64_t));
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
  w.begin_object();
  w.key("k");
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_object();
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
  const std::uint64_t requests = 3;
  const double depth = 1.5;
  MetricsBinding binding(reg);
  binding.counter("requests_total", {{"conn", "a"}}, &requests);
  binding.gauge("depth", {}, &depth);
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
  const std::uint64_t events = 2;
  MetricsBinding binding(reg);
  binding.counter("events_total", {}, &events);
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
  EXPECT_EQ(report.trace[0].event, TraceEvent::kAcked);

  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"events_total\""), std::string::npos);
}

// A stage that ends before the report (the drain consumer) keeps its final
// counts, read after its last sampler tick.
TEST(Exporters, RunReportKeepsFinalValuesOfDestroyedComponents) {
  MetricsRegistry reg;
  Sampler sampler(reg);
  {
    std::uint64_t records = 5;
    MetricsBinding binding(reg);
    binding.counter("records_total", {}, &records);
    sampler.sample(millis(1));
    records = 13;
  }
  sampler.sample(millis(2));
  const RunReport report = build_run_report(reg, &sampler);
  EXPECT_DOUBLE_EQ(report.metric("records_total"), 13.0);
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_DOUBLE_EQ(report.series[0].v.back(), 13.0);
  EXPECT_THROW(report.metric("missing"), std::out_of_range);
}

TEST(Exporters, RunReportMetricSumsBareNamesOverLabelSets) {
  MetricsRegistry reg;
  const std::uint64_t a = 3, b = 4;
  MetricsBinding binding(reg);
  binding.counter("sent_total", {{"conn", "a"}}, &a);
  binding.counter("sent_total", {{"conn", "b"}}, &b);
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
