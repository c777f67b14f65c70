#include "obs/report_parse.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "obs/json_parse.hpp"

namespace ks::obs {

namespace {

/// The enum value named by `obj[key]`; nullopt for an unknown name.
template <typename E>
std::optional<E> enum_at(const JsonValue& obj, std::string_view key) {
  return enum_from_string<E>(obj.str_or(key));
}

/// The serializer omits empty `labels`/`note` keys, so every string read
/// here defaults to "" — absence and emptiness round-trip to the same
/// report, which re-serializes identically. Each parse_* returns false on
/// input report_from_json() rejects.
bool parse_metrics(const JsonValue& arr, RunReport& report) {
  for (const auto& m : arr.array) {
    const auto kind = enum_at<MetricKind>(m, "kind");
    if (!kind) return false;
    report.metrics.push_back(RunReport::Metric{
        m.str_or("name"), m.str_or("labels"), *kind, m.num_or("value")});
  }
  return true;
}

void parse_histograms(const JsonValue& arr, RunReport& report) {
  for (const auto& h : arr.array) {
    report.histograms.push_back(RunReport::HistogramSummary{
        h.str_or("name"), h.str_or("labels"), h.uint_or("count"),
        h.num_or("mean_us"), h.num_or("p50_us"), h.num_or("p99_us"),
        h.num_or("max_us")});
  }
}

bool parse_series(const JsonValue& arr, RunReport& report) {
  for (const auto& s : arr.array) {
    const auto kind = enum_at<MetricKind>(s, "kind");
    if (!kind) return false;
    Sampler::Series series;
    series.name = s.str_or("name");
    series.kind = *kind;
    if (const auto* t = s.find("t_us"); t != nullptr && t->is_array()) {
      for (const auto& v : t->array) {
        series.t.push_back(static_cast<TimePoint>(
            v.integral ? v.integer : static_cast<std::int64_t>(v.number)));
      }
    }
    if (const auto* v = s.find("v"); v != nullptr && v->is_array()) {
      for (const auto& e : v->array) series.v.push_back(e.number);
    }
    report.series.push_back(std::move(series));
  }
  return true;
}

bool parse_trace(const JsonValue& obj, RunReport& report) {
  report.trace_sample_every = obj.uint_or("sample_every");
  report.trace_dropped = obj.uint_or("dropped");
  if (const auto* events = obj.find("events");
      events != nullptr && events->is_array()) {
    for (const auto& e : events->array) {
      const auto event = enum_at<TraceEvent>(e, "event");
      if (!event) return false;
      report.trace.push_back(MessageTrace::Entry{
          static_cast<TimePoint>(e.int_or("t_us")), e.uint_or("key"), *event,
          static_cast<std::int32_t>(e.int_or("detail"))});
    }
  }
  return true;
}

bool parse_spans(const JsonValue& obj, RunReport& report) {
  report.span_sample_every = obj.uint_or("sample_every");
  report.spans_dropped = obj.uint_or("dropped");
  if (const auto* events = obj.find("events");
      events != nullptr && events->is_array()) {
    for (const auto& s : events->array) {
      const auto kind = enum_at<SpanKind>(s, "kind");
      if (!kind) return false;
      report.spans.push_back(Span{
          s.uint_or("id"), s.uint_or("parent"), s.uint_or("key"), *kind,
          static_cast<std::int32_t>(s.int_or("track")), s.int_or("detail"),
          static_cast<TimePoint>(s.int_or("begin_us")),
          static_cast<TimePoint>(s.int_or("end_us"))});
    }
  }
  return true;
}

bool parse_timeline(const JsonValue& obj, RunReport& report) {
  report.timeline_dropped = obj.uint_or("dropped");
  if (const auto* events = obj.find("events");
      events != nullptr && events->is_array()) {
    for (const auto& e : events->array) {
      const auto kind = enum_at<ClusterEventKind>(e, "kind");
      if (!kind) return false;
      report.timeline.push_back(ClusterEvent{
          static_cast<TimePoint>(e.int_or("t_us")), *kind,
          static_cast<std::int32_t>(e.int_or("broker")),
          static_cast<std::int32_t>(e.int_or("partition")), e.int_or("a"),
          e.int_or("b"), e.str_or("note")});
    }
  }
  return true;
}

void parse_key_list(const JsonValue& obj, const char* name,
                    std::vector<std::uint64_t>& out) {
  const auto* arr = obj.find(name);
  if (arr == nullptr || !arr->is_array()) return;
  for (const auto& k : arr->array) {
    if (!k.is_number()) continue;
    out.push_back(k.integral ? k.uinteger
                             : static_cast<std::uint64_t>(k.number));
  }
}

/// True when `buckets` has one count per sketch bucket and they sum to
/// `count` (checked without overflow).
bool sketch_consistent(const std::vector<std::uint64_t>& buckets,
                       std::uint64_t count) {
  if (buckets.size() != kLatencySketchBuckets) return false;
  std::uint64_t sum = 0;
  for (const auto b : buckets) {
    if (b > count - sum) return false;
    sum += b;
  }
  return sum == count;
}

bool parse_health(const JsonValue& obj, RunReport& report) {
  auto& h = report.health;
  h.enabled = obj.bool_or("enabled");
  h.interval_us = obj.uint_or("interval_us");
  h.ticks = obj.uint_or("ticks");
  const auto ints = [](const JsonValue* arr, std::vector<std::int64_t>& out) {
    if (arr == nullptr || !arr->is_array()) return;
    for (const auto& v : arr->array) {
      out.push_back(v.integral ? v.integer
                               : static_cast<std::int64_t>(v.number));
    }
  };
  const auto uints = [](const JsonValue* arr,
                        std::vector<std::uint64_t>& out) {
    if (arr == nullptr || !arr->is_array()) return;
    for (const auto& v : arr->array) {
      out.push_back(v.integral ? v.uinteger
                               : static_cast<std::uint64_t>(v.number));
    }
  };
  const auto nums = [](const JsonValue* arr, std::vector<double>& out) {
    if (arr == nullptr || !arr->is_array()) return;
    for (const auto& v : arr->array) out.push_back(v.number);
  };
  if (const auto* series = obj.find("series");
      series != nullptr && series->is_array()) {
    for (const auto& s : series->array) {
      HealthReport::Series entry;
      entry.name = s.str_or("name");
      entry.interval_us = s.uint_or("interval_us");
      entry.dropped = s.uint_or("dropped");
      ints(s.find("t_us"), entry.t);
      uints(s.find("count"), entry.count);
      nums(s.find("min"), entry.min);
      nums(s.find("max"), entry.max);
      nums(s.find("sum"), entry.sum);
      const std::size_t n = entry.t.size();
      if (entry.count.size() != n || entry.min.size() != n ||
          entry.max.size() != n || entry.sum.size() != n) {
        return false;
      }
      h.series.push_back(std::move(entry));
    }
  }
  if (const auto* sketches = obj.find("sketches");
      sketches != nullptr && sketches->is_array()) {
    for (const auto& s : sketches->array) {
      HealthReport::Sketch entry;
      entry.name = s.str_or("name");
      entry.count = s.uint_or("count");
      uints(s.find("buckets"), entry.buckets);
      if (!sketch_consistent(entry.buckets, entry.count)) return false;
      h.sketches.push_back(std::move(entry));
    }
  }
  if (const auto* alerts = obj.find("alerts");
      alerts != nullptr && alerts->is_array()) {
    for (const auto& a : alerts->array) {
      const auto detector = enum_at<HealthDetector>(a, "detector");
      if (!detector) return false;
      h.alerts.push_back(HealthAlert{
          *detector, static_cast<std::int32_t>(a.int_or("partition")),
          static_cast<std::int32_t>(a.int_or("broker")),
          static_cast<TimePoint>(a.int_or("opened_us")),
          static_cast<TimePoint>(a.int_or("resolved_us")),
          a.uint_or("windows")});
    }
  }
  if (const auto* verdicts = obj.find("verdicts");
      verdicts != nullptr && verdicts->is_array()) {
    for (const auto& v : verdicts->array) {
      const auto verdict = enum_at<LagVerdict>(v, "verdict");
      const auto worst = enum_at<LagVerdict>(v, "worst");
      if (!verdict || !worst) return false;
      h.verdicts.push_back(HealthReport::Verdict{
          static_cast<std::int32_t>(v.int_or("partition")), *verdict, *worst,
          v.int_or("lag"), v.int_or("committed"), v.int_or("hw")});
    }
  }
  return true;
}

void parse_perf(const JsonValue& obj, RunReport& report) {
  report.perf.wall_us = obj.uint_or("wall_us");
  report.perf.peak_rss_kb = obj.int_or("peak_rss_kb");
  report.perf.profiled = obj.bool_or("profiled");
  report.perf.alloc_count = obj.uint_or("alloc_count");
  report.perf.alloc_bytes = obj.uint_or("alloc_bytes");
  if (const auto* sections = obj.find("sections");
      sections != nullptr && sections->is_array()) {
    for (const auto& s : sections->array) {
      report.perf.sections.push_back(RunReport::Perf::Section{
          s.str_or("name"), s.uint_or("calls"), s.uint_or("total_ns")});
    }
  }
}

}  // namespace

std::optional<RunReport> report_from_json(std::string_view text) {
  const auto doc = parse_json(text);
  if (!doc || !doc->is_object()) return std::nullopt;

  RunReport report;
  if (const auto* summary = doc->find("summary");
      summary != nullptr && summary->is_object()) {
    for (const auto& [k, v] : summary->object) {
      if (v.is_number()) report.summary[k] = v.number;
    }
  }
  if (const auto* metrics = doc->find("metrics");
      metrics != nullptr && metrics->is_array() &&
      !parse_metrics(*metrics, report)) {
    return std::nullopt;
  }
  if (const auto* histograms = doc->find("histograms");
      histograms != nullptr && histograms->is_array()) {
    parse_histograms(*histograms, report);
  }
  if (const auto* series = doc->find("series");
      series != nullptr && series->is_array() &&
      !parse_series(*series, report)) {
    return std::nullopt;
  }
  if (const auto* trace = doc->find("trace");
      trace != nullptr && trace->is_object() && !parse_trace(*trace, report)) {
    return std::nullopt;
  }
  if (const auto* spans = doc->find("spans");
      spans != nullptr && spans->is_object() && !parse_spans(*spans, report)) {
    return std::nullopt;
  }
  if (const auto* timeline = doc->find("timeline");
      timeline != nullptr && timeline->is_object() &&
      !parse_timeline(*timeline, report)) {
    return std::nullopt;
  }
  if (const auto* anomalies = doc->find("anomalies");
      anomalies != nullptr && anomalies->is_object()) {
    parse_key_list(*anomalies, "acked_lost_keys", report.acked_lost_keys);
    parse_key_list(*anomalies, "lost_keys", report.lost_keys);
    parse_key_list(*anomalies, "group_lost_keys", report.group_lost_keys);
  }
  if (const auto* health = doc->find("health");
      health != nullptr && health->is_object() &&
      !parse_health(*health, report)) {
    return std::nullopt;
  }
  if (const auto* perf = doc->find("perf");
      perf != nullptr && perf->is_object()) {
    parse_perf(*perf, report);
  }
  return report;
}

std::optional<RunReport> load_run_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return report_from_json(buf.str());
}

}  // namespace ks::obs
