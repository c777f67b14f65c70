// Structured run artifacts: the RunReport every experiment returns, plus
// text exporters (Prometheus exposition, CSV time series, JSON).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/health.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace ks::obs {

/// Everything observable about one simulation run, in plain data: run-level
/// summary scalars, the final value of every registered metric, histogram
/// summaries, and each recorder's own records (sampled series, the
/// message-lifecycle trace, spans, the cluster timeline, the health
/// section). Enum-typed fields become names only in the JSON field lists
/// (report.cpp).
struct RunReport {
  struct Metric {
    std::string name;
    std::string labels;  ///< Rendered `key="value",...`; may be empty.
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;
  };

  struct HistogramSummary {
    std::string name;
    std::string labels;
    std::uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
  };

  /// Host-side performance metadata for the run: wall-clock cost, process
  /// peak RSS, allocation counters and the self-profiler's hot-path
  /// breakdown (see obs/profiler.hpp). Everything here depends on the host
  /// machine, so the whole section stays out of canonical_json() — replay
  /// byte-determinism is untouched (asserted by determinism_test).
  struct Perf {
    std::uint64_t wall_us = 0;       ///< run_experiment wall-clock duration.
    std::int64_t peak_rss_kb = 0;    ///< Process peak RSS at run end.
    bool profiled = false;           ///< Self-profiler was enabled.
    std::uint64_t alloc_count = 0;   ///< operator new calls during the run.
    std::uint64_t alloc_bytes = 0;
    /// Hot-path breakdown, profiler key order; empty when not profiled.
    std::vector<ProfileSection> sections;
  };

  /// The Scenario the run was made from, as testbed::to_json() wrote it
  /// (read it back with testbed::scenario_from_json). This layer sits below
  /// the testbed, so it keeps the section as an opaque JSON object; null
  /// (and left out of the JSON) for a report built by hand. Like perf, it
  /// stays out of canonical_json(): runs of different scenarios may still
  /// compare equal there (a controller that stays off, a schedule replayed
  /// by an oracle).
  JsonValue scenario;
  /// Run-level scalars (p_loss, duration_s, ...), keyed by name; insertion
  /// order is irrelevant, a map keeps the JSON deterministic.
  std::map<std::string, double> summary;
  HealthReport health;
  Perf perf;
  std::vector<Metric> metrics;
  std::vector<HistogramSummary> histograms;
  std::vector<Sampler::Series> series;
  std::vector<MessageTrace::Entry> trace;
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_sample_every = 0;
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;
  std::uint64_t span_sample_every = 0;
  std::vector<ClusterEvent> timeline;
  std::uint64_t timeline_dropped = 0;
  /// Keys the run ended badly for (capped samples, trace-sampled keys
  /// first so ks_explain has material): acked-then-missing, and missing.
  std::vector<std::uint64_t> acked_lost_keys;
  std::vector<std::uint64_t> lost_keys;
  /// Keys a consumer group's committed offset passed over without ever
  /// delivering (commit-before-deliver crash signature).
  std::vector<std::uint64_t> group_lost_keys;

  /// Final value of a metric: `name{labels}` selects one label set, a bare
  /// name sums over all of its label sets. Throws std::out_of_range for a
  /// name no component registered.
  double metric(const std::string& name) const;

  std::string to_json() const;

  /// to_json() minus host-dependent values (wall-clock metrics and their
  /// series, plus the whole perf section): two runs of the same seed
  /// produce byte-identical canonical JSON, which is what the determinism
  /// and chaos-replay checks compare.
  std::string canonical_json() const;

  bool write_json(const std::string& path) const;

  /// Chrome/Perfetto trace-event JSON ("X" complete events for spans on
  /// per-actor tracks, "i" instant events for the cluster timeline). All
  /// timestamps are sim-time microseconds, so the export is byte-identical
  /// across replays of the same seed.
  std::string perfetto_json() const;

  bool write_perfetto(const std::string& path) const;
};

/// True for metrics whose value depends on host wall-clock time rather
/// than the simulation (excluded from canonical_json()).
bool is_wall_clock_metric(const std::string& name) noexcept;

/// Snapshot `registry` (live components are read, dead ones keep their
/// frozen values) plus optional sampler series, trace, spans and timeline
/// into a report. Callers add summary scalars afterwards. Close open spans
/// (SpanTracer::close_open) before calling.
RunReport build_run_report(const MetricsRegistry& registry,
                           const Sampler* sampler = nullptr,
                           const MessageTrace* trace = nullptr,
                           const SpanTracer* tracer = nullptr,
                           const ClusterTimeline* timeline = nullptr);

/// Prometheus text exposition of the registry's current values.
/// Histograms export _count/_sum plus quantile gauges.
std::string prometheus_text(const MetricsRegistry& registry);

}  // namespace ks::obs
