// BENCH_<name>.json — the versioned, schema'd artifact every registered
// bench emits through the unified ks_bench runner.
//
// The schema is the field lists in artifact.cpp: to_json() and parse() both
// walk them (obs/json_fields.hpp), so each key is spelled once. Schema v2
// (v1, the ad-hoc per-bench points file with embedded RunReports, is gone —
// parse() rejects any other schema_version) reads, in order:
//
//   schema_version, bench, fingerprint, config, timing, profile, points
//
// where points is [ { params: {k: v}, metrics: {k: {mean, stddev}} } ].
//
// Stability contract: `bench`, `config` and `points` are byte-stable
// across runs of the same build and environment knobs (they come from the
// deterministic simulation). `fingerprint`, `timing` and `profile` are
// host-volatile. ks_bench_diff therefore compares points with an exactness
// tolerance and timing with noise-aware thresholds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_core/fingerprint.hpp"
#include "bench_core/runner.hpp"
#include "obs/profiler.hpp"

namespace ks::bench {

inline constexpr int kArtifactSchemaVersion = 2;

/// Distribution summary of a host-time measurement over --repeat runs.
struct DistStat {
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  std::vector<double> samples;

  static DistStat of(std::vector<double> samples);
};

/// One deterministic grid point: sweep parameters and seed-averaged
/// metrics, both in recorded order (which is itself deterministic).
struct ArtifactPoint {
  std::vector<std::pair<std::string, double>> params;
  std::vector<std::pair<std::string, Stat>> metrics;
};

struct Artifact {
  int schema_version = kArtifactSchemaVersion;
  std::string bench;
  Fingerprint fingerprint;

  // config — run shape (deterministic given the environment knobs).
  std::uint64_t messages = 0;  ///< KS_BENCH_MESSAGES-resolved run size.
  bool full = false;           ///< KS_BENCH_FULL grids.
  int repeat = 1;              ///< Timed whole-bench repetitions.
  int warmup = 0;              ///< Discarded warm-up repetitions.
  int reps_per_point = 0;      ///< Seed-averaging reps inside each point.
  bool profiled = false;       ///< Self-profiler armed during the run.

  // timing — host-volatile wall-clock cost over the timed repetitions,
  // plus deterministic work counters from the final repetition.
  DistStat wall_s;
  double sim_seconds = 0.0;      ///< Simulated seconds covered per repeat.
  std::uint64_t sim_events = 0;  ///< Simulation events executed per repeat.
  std::uint64_t experiments = 0; ///< run_experiment invocations per repeat.
  DistStat sim_s_per_wall_s;     ///< Simulation speedup per repeat.
  DistStat events_per_wall_s;    ///< Event throughput per repeat.

  // profile — host-volatile process counters (final timed repetition).
  std::int64_t peak_rss_kb = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::vector<obs::ProfileSection> sections;

  // points — byte-stable deterministic results.
  std::vector<ArtifactPoint> points;

  std::string to_json() const;
  bool write(const std::string& path) const;

  /// Parse one artifact by the reading rule of obs/json_fields.hpp; nullopt
  /// on malformed JSON, a field the rule rejects, a schema_version other
  /// than kArtifactSchemaVersion or an empty bench name.
  static std::optional<Artifact> parse(const std::string& json);
  static std::optional<Artifact> load(const std::string& path);
};

/// Default artifact file name for a bench.
std::string artifact_filename(const std::string& bench);

}  // namespace ks::bench
