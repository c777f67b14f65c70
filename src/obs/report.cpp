#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/json_fields.hpp"
#include "obs/profiler.hpp"
#include "obs/report_parse.hpp"

namespace ks::obs {

double RunReport::metric(const std::string& name) const {
  const bool labelled = name.find('{') != std::string::npos;
  double sum = 0.0;
  bool found = false;
  for (const auto& m : metrics) {
    const bool match =
        labelled ? !m.labels.empty() && m.name + '{' + m.labels + '}' == name
                 : m.name == name;
    if (!match) continue;
    sum += m.value;
    found = true;
  }
  if (!found) throw std::out_of_range("RunReport: no metric named " + name);
  return sum;
}

// The report's JSON form: one field list per record, walked by both
// to_json() and report_from_json() (obs/json_fields.hpp).

template <class V>
void fields(V& v, RunReport::Metric& m) {
  v("name", m.name);
  v.optional("labels", m.labels);
  v("kind", m.kind);
  v("value", m.value);
}

template <class V>
void fields(V& v, RunReport::HistogramSummary& h) {
  v("name", h.name);
  v.optional("labels", h.labels);
  v("count", h.count);
  v("mean_us", h.mean_us);
  v("p50_us", h.p50_us);
  v("p99_us", h.p99_us);
  v("max_us", h.max_us);
}

template <class V>
void fields(V& v, Sampler::Series& s) {
  v("name", s.name);
  v("kind", s.kind);
  v("t_us", s.t);
  v("v", s.v);
}

template <class V>
void fields(V& v, MessageTrace::Entry& e) {
  v("t_us", e.t);
  v("key", e.key);
  v("event", e.event);
  v("detail", e.detail);
}

template <class V>
void fields(V& v, Span& s) {
  v("id", s.id);
  v("parent", s.parent);
  v("key", s.key);
  v("kind", s.kind);
  v("track", s.track);
  v("detail", s.detail);
  v("begin_us", s.begin);
  v("end_us", s.end);
}

template <class V>
void fields(V& v, ClusterEvent& e) {
  v("t_us", e.t);
  v("kind", e.kind);
  v("broker", e.broker);
  v("partition", e.partition);
  v("a", e.a);
  v("b", e.b);
  v.optional("note", e.note);
}

template <class V>
void fields(V& v, HealthReport::Series& s) {
  v("name", s.name);
  v("interval_us", s.interval_us);
  v("dropped", s.dropped);
  v("t_us", s.t);
  v("count", s.count);
  v("min", s.min);
  v("max", s.max);
  v("sum", s.sum);
}

template <class V>
void fields(V& v, HealthReport::Sketch& s) {
  v("name", s.name);
  v("count", s.count);
  v("buckets", s.buckets);
}

template <class V>
void fields(V& v, HealthAlert& a) {
  v("detector", a.detector);
  v("partition", a.partition);
  v("broker", a.broker);
  v("opened_us", a.opened);
  v("resolved_us", a.resolved);
  v("windows", a.windows_to_detect);
}

template <class V>
void fields(V& v, HealthReport::Verdict& d) {
  v("partition", d.partition);
  v("verdict", d.verdict);
  v("worst", d.worst);
  v("lag", d.lag);
  v("committed", d.committed);
  v("hw", d.hw);
}

template <class V>
void fields(V& v, HealthReport& h) {
  v("enabled", h.enabled);
  v("interval_us", h.interval_us);
  v("ticks", h.ticks);
  v("series", h.series);
  v("sketches", h.sketches);
  v("alerts", h.alerts);
  v("verdicts", h.verdicts);
}

template <class V>
void fields(V& v, RunReport::Perf& p) {
  v("wall_us", p.wall_us);
  v("peak_rss_kb", p.peak_rss_kb);
  v("profiled", p.profiled);
  v("alloc_count", p.alloc_count);
  v("alloc_bytes", p.alloc_bytes);
  v("sections", p.sections);
}

/// The canonical form leaves out the host-dependent parts (wall-clock
/// metrics and their series, and the whole perf section, key and all) and
/// the scenario section.
template <class V>
void fields(V& v, RunReport& r) {
  const auto host = [&v](const auto& m) {
    return v.canonical && is_wall_clock_metric(m.name);
  };
  if (!v.canonical) v.optional("scenario", r.scenario);
  v("summary", r.summary);
  v("metrics", r.metrics, host);
  v("histograms", r.histograms);
  v("series", r.series, host);
  v.object("trace", [&] {
    v("sample_every", r.trace_sample_every);
    v("dropped", r.trace_dropped);
    v("events", r.trace);
  });
  v.object("spans", [&] {
    v("sample_every", r.span_sample_every);
    v("dropped", r.spans_dropped);
    v("events", r.spans);
  });
  v.object("timeline", [&] {
    v("dropped", r.timeline_dropped);
    v("events", r.timeline);
  });
  v.object("anomalies", [&] {
    v("acked_lost_keys", r.acked_lost_keys);
    v("lost_keys", r.lost_keys);
    v("group_lost_keys", r.group_lost_keys);
  });
  v("health", r.health);
  if (!v.canonical) v("perf", r.perf);
}

bool is_wall_clock_metric(const std::string& name) noexcept {
  return name.rfind("sim_wall", 0) == 0;
}

std::string RunReport::to_json() const { return encode_json(*this); }

std::string RunReport::canonical_json() const {
  return encode_json(*this, /*canonical=*/true);
}

bool RunReport::write_json(const std::string& path) const {
  return write_file(path, to_json());
}

namespace {

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

}  // namespace

std::optional<RunReport> report_from_json(std::string_view text) {
  RunReport report;
  if (!decode_json(text, report)) return std::nullopt;
  for (const auto& s : report.health.series) {
    const std::size_t n = s.t.size();
    if (s.count.size() != n || s.min.size() != n || s.max.size() != n ||
        s.sum.size() != n) {
      return std::nullopt;
    }
  }
  for (const auto& s : report.health.sketches) {
    if (!sketch_consistent(s.buckets, s.count)) return std::nullopt;
  }
  return report;
}

std::optional<RunReport> load_run_report(const std::string& path) {
  const auto text = read_file(path);
  if (!text) return std::nullopt;
  return report_from_json(*text);
}

namespace {

/// Human names for the Perfetto tracks (tids) in span.hpp.
std::string track_name(std::int32_t track) {
  switch (track) {
    case kTrackControl: return "cluster control plane";
    case kTrackProducer: return "producer";
    case kTrackConsumer: return "consumer";
    case kTrackNet: return "network";
    default: break;
  }
  if (track >= 10) return "broker " + std::to_string(track - 10);
  return "track " + std::to_string(track);
}

}  // namespace

std::string RunReport::perfetto_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();

  // Thread-name metadata so the UI labels each lane.
  std::vector<std::int32_t> tracks;
  for (const auto& s : spans) tracks.push_back(s.track);
  tracks.push_back(kTrackControl);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  for (const auto track : tracks) {
    w.begin_object();
    w.key("ph");
    w.value("M");
    w.key("name");
    w.value("thread_name");
    w.key("pid");
    w.value(1);
    w.key("tid");
    w.value(track);
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(track_name(track));
    w.end_object();
    w.end_object();
  }

  for (const auto& s : spans) {
    w.begin_object();
    w.key("name");
    w.value(to_string(s.kind));
    w.key("cat");
    w.value("span");
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(static_cast<std::int64_t>(s.begin));
    w.key("dur");
    w.value(static_cast<std::int64_t>(s.end - s.begin));
    w.key("pid");
    w.value(1);
    w.key("tid");
    w.value(s.track);
    w.key("args");
    w.begin_object();
    w.key("id");
    w.value(s.id);
    w.key("parent");
    w.value(s.parent);
    if (s.key != kNoKey) {
      w.key("key");
      w.value(s.key);
    }
    w.key("detail");
    w.value(s.detail);
    w.end_object();
    w.end_object();
  }

  for (const auto& e : timeline) {
    w.begin_object();
    w.key("name");
    w.value(to_string(e.kind));
    w.key("cat");
    w.value("cluster");
    w.key("ph");
    w.value("i");
    w.key("s");
    w.value("g");  // Global instant: draws a full-height marker.
    w.key("ts");
    w.value(static_cast<std::int64_t>(e.t));
    w.key("pid");
    w.value(1);
    w.key("tid");
    w.value(kTrackControl);
    w.key("args");
    w.begin_object();
    w.key("broker");
    w.value(e.broker);
    w.key("partition");
    w.value(e.partition);
    w.key("a");
    w.value(e.a);
    w.key("b");
    w.value(e.b);
    if (!e.note.empty()) {
      w.key("note");
      w.value(e.note);
    }
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  return w.str();
}

bool RunReport::write_perfetto(const std::string& path) const {
  return write_file(path, perfetto_json());
}

RunReport build_run_report(const MetricsRegistry& registry,
                           const Sampler* sampler, const MessageTrace* trace,
                           const SpanTracer* tracer,
                           const ClusterTimeline* timeline) {
  ProfScope prof(ProfKey::kReportBuild);
  RunReport report;
  registry.visit([&](const MetricsRegistry::MetricInfo& m) {
    if (m.kind == MetricKind::kHistogram) {
      const LatencyHistogram& h = *m.hist;
      report.histograms.push_back(RunReport::HistogramSummary{
          m.name, m.label_text, h.count(), h.mean(),
          static_cast<double>(h.p50()), static_cast<double>(h.p99()),
          static_cast<double>(h.max_seen())});
      return;
    }
    report.metrics.push_back(
        RunReport::Metric{m.name, m.label_text, m.kind, m.value()});
  });
  if (sampler != nullptr) report.series = sampler->series();
  if (trace != nullptr) {
    report.trace_sample_every = trace->sample_every();
    report.trace_dropped = trace->dropped();
    report.trace = trace->entries();
  }
  if (tracer != nullptr) {
    report.span_sample_every = tracer->sample_every();
    report.spans_dropped = tracer->dropped();
    report.spans = tracer->spans();
  }
  if (timeline != nullptr) {
    report.timeline_dropped = timeline->dropped();
    report.timeline = timeline->events();
  }
  return report;
}

std::string prometheus_text(const MetricsRegistry& registry) {
  std::string out;
  char buf[64];
  const auto emit = [&](const std::string& name, const std::string& labels,
                        double v) {
    out += name;
    if (!labels.empty()) {
      out += '{';
      out += labels;
      out += '}';
    }
    std::snprintf(buf, sizeof(buf), " %.17g\n", v);
    out += buf;
  };
  registry.visit([&](const MetricsRegistry::MetricInfo& m) {
    if (m.kind == MetricKind::kHistogram) {
      out += "# TYPE " + m.name + " summary\n";
      const LatencyHistogram& h = *m.hist;
      emit(m.name + "_count", m.label_text, static_cast<double>(h.count()));
      emit(m.name + "_sum", m.label_text,
           h.mean() * static_cast<double>(h.count()));
      const std::string q50 = m.label_text.empty()
                                  ? std::string("quantile=\"0.5\"")
                                  : m.label_text + ",quantile=\"0.5\"";
      const std::string q99 = m.label_text.empty()
                                  ? std::string("quantile=\"0.99\"")
                                  : m.label_text + ",quantile=\"0.99\"";
      emit(m.name, q50, static_cast<double>(h.p50()));
      emit(m.name, q99, static_cast<double>(h.p99()));
      return;
    }
    out += "# TYPE " + m.name + ' ' +
           (m.kind == MetricKind::kCounter ? "counter\n" : "gauge\n");
    emit(m.name, m.label_text, m.value());
  });
  return out;
}

}  // namespace ks::obs
