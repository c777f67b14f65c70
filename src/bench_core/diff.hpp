// Noise-aware regression diffing over BENCH artifact sets (the library
// behind ks_bench_diff, kept separate so tests can drive it directly).
//
// Two kinds of comparison, matching the artifact's stability contract:
//  - timing blocks are host-volatile: a delta only counts when it exceeds
//    BOTH the relative threshold and the noise gate sigma * combined
//    stddev of the two runs' repeat samples — a 2x slowdown flags, a 3%
//    wobble inside the noise floor does not;
//  - the deterministic points block must match exactly (within a float
//    round-off tolerance): any drift, and any baseline point or metric the
//    current run lacks, means the simulation's results changed, which is a
//    finding of its own (kResultDrift), not noise. A metric only the
//    current run has is not flagged, as a new bench is not.
#pragma once

#include <string>
#include <vector>

#include "bench_core/artifact.hpp"

namespace ks::bench {

struct DiffOptions {
  /// Minimum relative change of a timing metric to be worth flagging.
  double rel_threshold = 0.10;
  /// Noise gate multiplier: |delta| must also exceed
  /// sigma * sqrt(base.stddev^2 + cur.stddev^2).
  double sigma = 3.0;
  /// Relative tolerance for deterministic point metrics (round-off only).
  double det_rel_tolerance = 1e-9;
};

enum class FindingKind {
  kTimingRegression,   ///< Slower / lower throughput beyond the gates.
  kTimingImprovement,  ///< Faster beyond the gates (informational).
  kResultDrift,        ///< Deterministic metrics changed.
  kMissingBench,       ///< Baseline bench absent from the current set.
  kFingerprintChange,  ///< Build identity differs (informational).
};

const char* to_string(FindingKind k) noexcept;

struct Finding {
  FindingKind kind = FindingKind::kTimingRegression;
  std::string bench;
  std::string metric;   ///< e.g. "wall_s", "events_per_wall_s", "p_loss@...".
  double baseline = 0.0;
  double current = 0.0;
  double delta_rel = 0.0;  ///< (current - baseline) / baseline.
  double gate = 0.0;       ///< The threshold the delta had to clear.
  std::string detail;
};

struct DiffReport {
  std::vector<Finding> findings;  ///< Ranked worst-first by |delta_rel|.
  int benches_compared = 0;
  int timing_metrics_compared = 0;
  int point_metrics_compared = 0;

  /// True when any finding should fail a gating run: timing regressions,
  /// result drift, or missing benches. `warn_only` leaves out the timing
  /// regressions, which depend on the host; drift and a missing bench are
  /// deterministic and still count.
  bool has_regressions(bool warn_only = false) const noexcept;
};

/// Compare two artifact sets, keyed by bench name. Benches present only
/// in `current` are ignored (new benches are not regressions).
DiffReport diff_artifacts(const std::vector<Artifact>& baseline,
                          const std::vector<Artifact>& current,
                          const DiffOptions& options = {});

/// Human-readable ranked table of a diff report.
std::string render_diff(const DiffReport& report);

}  // namespace ks::bench
