// Reading a RunReport back from its JSON export. The reader walks the same
// field lists as RunReport::to_json() (report.cpp, over obs/json_fields.hpp),
// so a report parsed from a to_json() string re-serializes byte-identically
// (asserted by obs_report_parse_test), and saved artifacts are first-class
// inputs to every offline tool.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "obs/json_fields.hpp"
#include "obs/report.hpp"

namespace ks::obs {

/// Parse a to_json() (or canonical_json()) document back into a RunReport,
/// by the reading rule of obs/json_fields.hpp:
///  - an absent key, or a value of another JSON type, leaves the field at
///    its default; unknown keys are ignored;
///  - an enum field (metric or series kind, trace event, span kind,
///    timeline kind, health detector or verdict) must carry a name a value
///    has;
///  - an integer field given a number must get an integer token its type
///    can hold: `1.5`, `1e3` or `-1` in an unsigned field fail.
/// It also returns nullopt when `text` is not a JSON object, when a health
/// series' arrays differ in length, or when a latency sketch does not hold
/// kLatencySketchBuckets buckets that sum to its count.
std::optional<RunReport> report_from_json(std::string_view text);

/// Read `path` and parse it with report_from_json(). Returns nullopt on IO
/// or parse failure (no diagnostics — callers own the error message).
std::optional<RunReport> load_run_report(const std::string& path);

}  // namespace ks::obs
