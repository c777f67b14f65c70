// Full inverse of RunReport::to_json(): rebuild every section of a report
// from its JSON export (summary, metrics, histograms, series, trace, spans,
// timeline, anomalies, health, perf). Reports parsed from a to_json()
// string re-serialize byte-identically (asserted by obs_report_parse_test),
// so saved artifacts are first-class inputs to every offline tool.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "obs/report.hpp"

namespace ks::obs {

/// Inverse of the to_string() overload of every enum a report writes by
/// name (MetricKind, TraceEvent, SpanKind, ClusterEventKind,
/// HealthDetector, LagVerdict). It scans the enum's values 0..255 — each
/// of these enums is numbered from 0 and to_string() answers "?" for a
/// value it does not name — so a value added later is found without a
/// second table. nullopt for a name no value carries.
template <typename E>
std::optional<E> enum_from_string(std::string_view s) noexcept {
  if (s == "?") return std::nullopt;
  for (int i = 0; i < 256; ++i) {
    const auto e = static_cast<E>(i);
    if (s == to_string(e)) return e;
  }
  return std::nullopt;
}

/// Parse a to_json() (or canonical_json()) document back into a RunReport.
/// Unknown keys are ignored; missing sections default to empty. Returns
/// nullopt when `text` is not a JSON object, when an enum field (metric or
/// series kind, trace event, span kind, timeline kind, health detector or
/// verdict) carries a name no value has, when a health series' arrays
/// differ in length, or when a latency sketch does not hold
/// kLatencySketchBuckets buckets that sum to its count.
std::optional<RunReport> report_from_json(std::string_view text);

/// Read `path` and parse it with report_from_json(). Returns nullopt on IO
/// or parse failure (no diagnostics — callers own the error message).
std::optional<RunReport> load_run_report(const std::string& path);

}  // namespace ks::obs
