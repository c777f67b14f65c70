// Structured run artifacts: the RunReport every experiment returns, plus
// text exporters (Prometheus exposition, CSV time series, JSON).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace ks::obs {

/// Everything observable about one simulation run, in plain data: run-level
/// summary scalars, the final value of every registered metric, histogram
/// summaries, sampled time series and the message-lifecycle trace.
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

  struct TraceEntry {
    TimePoint t = 0;
    std::uint64_t key = 0;
    std::string event;
    std::int32_t detail = 0;
  };

  /// One completed causal span (see obs/span.hpp); `kind` is the exported
  /// name string so reports stay readable without the enum.
  struct SpanEntry {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t key = 0;  ///< kNoKey for spans not tied to a message.
    std::string kind;
    std::int32_t track = 0;
    std::int64_t detail = 0;
    TimePoint begin = 0;
    TimePoint end = 0;
  };

  /// One control-plane event (see obs/timeline.hpp).
  struct TimelineEntry {
    TimePoint t = 0;
    std::string kind;
    std::int32_t broker = -1;
    std::int32_t partition = -1;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::string note;
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
    struct Section {
      std::string name;
      std::uint64_t calls = 0;
      std::uint64_t total_ns = 0;
    };
    /// Hot-path breakdown, profiler key order; empty when not profiled.
    std::vector<Section> sections;
  };

  /// Online health monitor output (see obs/health.hpp). Everything here is
  /// sim-time-driven, so unlike perf the whole section lives inside
  /// canonical_json() — replay byte-identity includes the detector's
  /// verdicts and alert ledger.
  struct Health {
    bool enabled = false;
    std::uint64_t interval_us = 0;  ///< Probe/evaluation tick.
    std::uint64_t ticks = 0;        ///< Evaluation ticks run.

    /// One probe series: fixed-interval windows, parallel arrays. Window
    /// start times are t_us; gaps mean no probe landed in that window.
    struct Series {
      std::string name;
      std::uint64_t interval_us = 0;
      std::uint64_t dropped = 0;
      std::vector<std::int64_t> t;
      std::vector<std::uint64_t> count;
      std::vector<double> min;
      std::vector<double> max;
      std::vector<double> sum;
    };
    std::vector<Series> series;

    /// Fixed-bucket latency sketch (bounds: obs/timeseries.hpp).
    struct Sketch {
      std::string name;
      std::uint64_t count = 0;
      std::vector<std::uint64_t> buckets;
    };
    std::vector<Sketch> sketches;

    /// Alert ledger, open order. resolved_us == -1: open at run end.
    struct Alert {
      std::string detector;
      std::int32_t partition = -1;
      std::int32_t broker = -1;
      std::int64_t opened_us = 0;
      std::int64_t resolved_us = -1;
      std::uint64_t windows = 0;  ///< Ticks from onset to detection.
    };
    std::vector<Alert> alerts;

    /// Final per-partition lag verdicts (grouped runs only).
    struct Verdict {
      std::int32_t partition = -1;
      std::string verdict;  ///< Verdict at run end.
      std::string worst;    ///< Worst verdict seen during the run.
      std::int64_t lag = 0;
      std::int64_t committed = 0;
      std::int64_t hw = 0;
    };
    std::vector<Verdict> verdicts;
  };

  /// Run-level scalars (p_loss, duration_s, ...), keyed by name; insertion
  /// order is irrelevant, a map keeps the JSON deterministic.
  std::map<std::string, double> summary;
  Health health;
  Perf perf;
  std::vector<Metric> metrics;
  std::vector<HistogramSummary> histograms;
  std::vector<Sampler::Series> series;
  std::vector<TraceEntry> trace;
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_sample_every = 0;
  std::vector<SpanEntry> spans;
  std::uint64_t spans_dropped = 0;
  std::uint64_t span_sample_every = 0;
  std::vector<TimelineEntry> timeline;
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

  /// Serializer behind to_json()/canonical_json(); the canonical form
  /// omits the host-dependent perf section entirely (key and all).
  std::string json_impl(bool include_perf) const;

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

/// Snapshot `registry` (collectors are run) plus optional sampler series,
/// trace, spans and timeline into a report. Callers add summary scalars
/// afterwards. Close open spans (SpanTracer::close_open) before calling.
RunReport build_run_report(MetricsRegistry& registry,
                           const Sampler* sampler = nullptr,
                           const MessageTrace* trace = nullptr,
                           const SpanTracer* tracer = nullptr,
                           const ClusterTimeline* timeline = nullptr);

/// Prometheus text exposition of the registry's current values (collectors
/// are run first). Histograms export _count/_sum plus quantile gauges.
std::string prometheus_text(MetricsRegistry& registry);

}  // namespace ks::obs
