#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/profiler.hpp"

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

std::string RunReport::to_json() const { return json_impl(true); }

std::string RunReport::json_impl(bool include_perf) const {
  JsonWriter w;
  w.begin_object();

  w.key("summary");
  w.begin_object();
  for (const auto& [k, v] : summary) {
    w.key(k);
    w.value(v);
  }
  w.end_object();

  w.key("metrics");
  w.begin_array();
  for (const auto& m : metrics) {
    w.begin_object();
    w.key("name");
    w.value(m.name);
    if (!m.labels.empty()) {
      w.key("labels");
      w.value(m.labels);
    }
    w.key("kind");
    w.value(to_string(m.kind));
    w.key("value");
    w.value(m.value);
    w.end_object();
  }
  w.end_array();

  w.key("histograms");
  w.begin_array();
  for (const auto& h : histograms) {
    w.begin_object();
    w.key("name");
    w.value(h.name);
    if (!h.labels.empty()) {
      w.key("labels");
      w.value(h.labels);
    }
    w.key("count");
    w.value(h.count);
    w.key("mean_us");
    w.value(h.mean_us);
    w.key("p50_us");
    w.value(h.p50_us);
    w.key("p99_us");
    w.value(h.p99_us);
    w.key("max_us");
    w.value(h.max_us);
    w.end_object();
  }
  w.end_array();

  w.key("series");
  w.begin_array();
  for (const auto& s : series) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("kind");
    w.value(to_string(s.kind));
    w.key("t_us");
    w.begin_array();
    for (const auto t : s.t) w.value(static_cast<std::int64_t>(t));
    w.end_array();
    w.key("v");
    w.begin_array();
    for (const auto v : s.v) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("trace");
  w.begin_object();
  w.key("sample_every");
  w.value(trace_sample_every);
  w.key("dropped");
  w.value(trace_dropped);
  w.key("events");
  w.begin_array();
  for (const auto& e : trace) {
    w.begin_object();
    w.key("t_us");
    w.value(static_cast<std::int64_t>(e.t));
    w.key("key");
    w.value(e.key);
    w.key("event");
    w.value(e.event);
    w.key("detail");
    w.value(e.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("spans");
  w.begin_object();
  w.key("sample_every");
  w.value(span_sample_every);
  w.key("dropped");
  w.value(spans_dropped);
  w.key("events");
  w.begin_array();
  for (const auto& s : spans) {
    w.begin_object();
    w.key("id");
    w.value(s.id);
    w.key("parent");
    w.value(s.parent);
    w.key("key");
    w.value(s.key);
    w.key("kind");
    w.value(s.kind);
    w.key("track");
    w.value(s.track);
    w.key("detail");
    w.value(s.detail);
    w.key("begin_us");
    w.value(static_cast<std::int64_t>(s.begin));
    w.key("end_us");
    w.value(static_cast<std::int64_t>(s.end));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("timeline");
  w.begin_object();
  w.key("dropped");
  w.value(timeline_dropped);
  w.key("events");
  w.begin_array();
  for (const auto& e : timeline) {
    w.begin_object();
    w.key("t_us");
    w.value(static_cast<std::int64_t>(e.t));
    w.key("kind");
    w.value(e.kind);
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
  }
  w.end_array();
  w.end_object();

  w.key("anomalies");
  w.begin_object();
  w.key("acked_lost_keys");
  w.begin_array();
  for (const auto k : acked_lost_keys) w.value(k);
  w.end_array();
  w.key("lost_keys");
  w.begin_array();
  for (const auto k : lost_keys) w.value(k);
  w.end_array();
  w.key("group_lost_keys");
  w.begin_array();
  for (const auto k : group_lost_keys) w.value(k);
  w.end_array();
  w.end_object();

  w.key("health");
  w.begin_object();
  w.key("enabled");
  w.value(health.enabled);
  w.key("interval_us");
  w.value(health.interval_us);
  w.key("ticks");
  w.value(health.ticks);
  w.key("series");
  w.begin_array();
  for (const auto& s : health.series) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("interval_us");
    w.value(s.interval_us);
    w.key("dropped");
    w.value(s.dropped);
    w.key("t_us");
    w.begin_array();
    for (const auto t : s.t) w.value(t);
    w.end_array();
    w.key("count");
    w.begin_array();
    for (const auto c : s.count) w.value(c);
    w.end_array();
    w.key("min");
    w.begin_array();
    for (const auto v : s.min) w.value(v);
    w.end_array();
    w.key("max");
    w.begin_array();
    for (const auto v : s.max) w.value(v);
    w.end_array();
    w.key("sum");
    w.begin_array();
    for (const auto v : s.sum) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("sketches");
  w.begin_array();
  for (const auto& s : health.sketches) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("count");
    w.value(s.count);
    w.key("buckets");
    w.begin_array();
    for (const auto b : s.buckets) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("alerts");
  w.begin_array();
  for (const auto& a : health.alerts) {
    w.begin_object();
    w.key("detector");
    w.value(a.detector);
    w.key("partition");
    w.value(a.partition);
    w.key("broker");
    w.value(a.broker);
    w.key("opened_us");
    w.value(a.opened_us);
    w.key("resolved_us");
    w.value(a.resolved_us);
    w.key("windows");
    w.value(a.windows);
    w.end_object();
  }
  w.end_array();
  w.key("verdicts");
  w.begin_array();
  for (const auto& v : health.verdicts) {
    w.begin_object();
    w.key("partition");
    w.value(v.partition);
    w.key("verdict");
    w.value(v.verdict);
    w.key("worst");
    w.value(v.worst);
    w.key("lag");
    w.value(v.lag);
    w.key("committed");
    w.value(v.committed);
    w.key("hw");
    w.value(v.hw);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  if (include_perf) {
    w.key("perf");
    w.begin_object();
    w.key("wall_us");
    w.value(perf.wall_us);
    w.key("peak_rss_kb");
    w.value(perf.peak_rss_kb);
    w.key("profiled");
    w.value(perf.profiled);
    w.key("alloc_count");
    w.value(perf.alloc_count);
    w.key("alloc_bytes");
    w.value(perf.alloc_bytes);
    w.key("sections");
    w.begin_array();
    for (const auto& s : perf.sections) {
      w.begin_object();
      w.key("name");
      w.value(s.name);
      w.key("calls");
      w.value(s.calls);
      w.key("total_ns");
      w.value(s.total_ns);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
  return w.str();
}

bool is_wall_clock_metric(const std::string& name) noexcept {
  return name.rfind("sim_wall", 0) == 0;
}

std::string RunReport::canonical_json() const {
  RunReport canon = *this;
  std::erase_if(canon.metrics, [](const Metric& m) {
    return is_wall_clock_metric(m.name);
  });
  std::erase_if(canon.series, [](const Sampler::Series& s) {
    return is_wall_clock_metric(s.name);
  });
  return canon.json_impl(false);
}

bool RunReport::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
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
    w.value(s.kind);
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
    w.value(e.kind);
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
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = perfetto_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

RunReport build_run_report(MetricsRegistry& registry, const Sampler* sampler,
                           const MessageTrace* trace, const SpanTracer* tracer,
                           const ClusterTimeline* timeline) {
  ProfScope prof(ProfKey::kReportBuild);
  registry.collect();
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
    for (const auto& e : trace->entries()) {
      report.trace.push_back(
          RunReport::TraceEntry{e.t, e.key, to_string(e.event), e.detail});
    }
  }
  if (tracer != nullptr) {
    report.span_sample_every = tracer->sample_every();
    report.spans_dropped = tracer->dropped();
    for (const auto& s : tracer->spans()) {
      report.spans.push_back(RunReport::SpanEntry{
          s.id, s.parent, s.key, to_string(s.kind), s.track, s.detail,
          s.begin, s.end});
    }
  }
  if (timeline != nullptr) {
    report.timeline_dropped = timeline->dropped();
    for (const auto& e : timeline->events()) {
      report.timeline.push_back(RunReport::TimelineEntry{
          e.t, to_string(e.kind), e.broker, e.partition, e.a, e.b, e.note});
    }
  }
  return report;
}

std::string prometheus_text(MetricsRegistry& registry) {
  registry.collect();
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
