#include "bench_core/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_core/util.hpp"

namespace ks::bench {

const char* to_string(FindingKind k) noexcept {
  switch (k) {
    case FindingKind::kTimingRegression: return "timing-regression";
    case FindingKind::kTimingImprovement: return "timing-improvement";
    case FindingKind::kResultDrift: return "result-drift";
    case FindingKind::kMissingBench: return "missing-bench";
    case FindingKind::kFingerprintChange: return "fingerprint-change";
  }
  return "?";
}

namespace {

bool failing(FindingKind k) noexcept {
  return k == FindingKind::kTimingRegression ||
         k == FindingKind::kResultDrift || k == FindingKind::kMissingBench;
}

std::string point_key(const ArtifactPoint& p) {
  std::string key;
  for (const auto& [name, value] : p.params) {
    if (!key.empty()) key += ',';
    key += name + '=' + fmt("%.17g", value);
  }
  return key;
}

/// Compare one timing distribution; `higher_is_worse` sets the regression
/// direction. Flags only past both gates (relative + noise).
void diff_timing(const std::string& bench, const std::string& metric,
                 const DistStat& base, const DistStat& cur,
                 bool higher_is_worse, const DiffOptions& opt,
                 DiffReport& out) {
  if (base.mean <= 0.0 || cur.mean <= 0.0) return;
  ++out.timing_metrics_compared;
  const double noise =
      opt.sigma * std::sqrt(base.stddev * base.stddev +
                            cur.stddev * cur.stddev);
  const double gate = std::max(opt.rel_threshold * base.mean, noise);
  const double delta = cur.mean - base.mean;
  if (std::fabs(delta) <= gate) return;
  const bool worse = higher_is_worse ? delta > 0 : delta < 0;
  out.findings.push_back({worse ? FindingKind::kTimingRegression
                                : FindingKind::kTimingImprovement,
                          bench, metric, base.mean, cur.mean,
                          delta / base.mean, gate / base.mean, ""});
}

void diff_points(const Artifact& base, const Artifact& cur,
                 const DiffOptions& opt, DiffReport& out) {
  std::map<std::string, const ArtifactPoint*> cur_points;
  for (const auto& p : cur.points) cur_points[point_key(p)] = &p;
  for (const auto& bp : base.points) {
    const auto key = point_key(bp);
    const auto it = cur_points.find(key);
    if (it == cur_points.end()) {
      out.findings.push_back({FindingKind::kResultDrift, base.bench,
                              "point{" + key + "}", 0.0, 0.0, 0.0, 0.0,
                              "grid point missing from current run"});
      continue;
    }
    std::map<std::string, Stat> cur_metrics(it->second->metrics.begin(),
                                            it->second->metrics.end());
    for (const auto& [name, bstat] : bp.metrics) {
      const auto mit = cur_metrics.find(name);
      if (mit == cur_metrics.end()) {
        out.findings.push_back({FindingKind::kResultDrift, base.bench,
                                name + "@{" + key + "}", bstat.mean, 0.0, 0.0,
                                0.0, "metric missing from current run"});
        continue;
      }
      ++out.point_metrics_compared;
      const double a = bstat.mean, b = mit->second.mean;
      const double scale = std::max(std::fabs(a), std::fabs(b));
      if (scale == 0.0) continue;
      if (std::fabs(a - b) <= opt.det_rel_tolerance * scale) continue;
      out.findings.push_back(
          {FindingKind::kResultDrift, base.bench,
           name + "@{" + key + "}", a, b, a != 0.0 ? (b - a) / a : 0.0,
           opt.det_rel_tolerance,
           "deterministic result changed (same config should replay "
           "byte-identical)"});
    }
  }
}

}  // namespace

bool DiffReport::has_regressions(bool warn_only) const noexcept {
  for (const auto& f : findings) {
    if (failing(f.kind) &&
        !(warn_only && f.kind == FindingKind::kTimingRegression)) {
      return true;
    }
  }
  return false;
}

DiffReport diff_artifacts(const std::vector<Artifact>& baseline,
                          const std::vector<Artifact>& current,
                          const DiffOptions& options) {
  DiffReport out;
  std::map<std::string, const Artifact*> cur_by_name;
  for (const auto& a : current) cur_by_name[a.bench] = &a;

  for (const auto& base : baseline) {
    const auto it = cur_by_name.find(base.bench);
    if (it == cur_by_name.end()) {
      out.findings.push_back({FindingKind::kMissingBench, base.bench, "",
                              0.0, 0.0, 0.0, 0.0,
                              "bench present in baseline, absent from "
                              "current set"});
      continue;
    }
    const Artifact& cur = *it->second;
    ++out.benches_compared;

    if (base.fingerprint.git_sha != cur.fingerprint.git_sha ||
        base.fingerprint.compiler != cur.fingerprint.compiler ||
        base.fingerprint.flags != cur.fingerprint.flags ||
        base.fingerprint.host != cur.fingerprint.host) {
      out.findings.push_back(
          {FindingKind::kFingerprintChange, base.bench, "", 0.0, 0.0, 0.0,
           0.0,
           base.fingerprint.git_sha + "/" + base.fingerprint.host + " -> " +
               cur.fingerprint.git_sha + "/" + cur.fingerprint.host});
    }

    // Comparable timing requires the same run shape; otherwise wall time
    // differences are configuration, not regression.
    if (base.messages == cur.messages && base.full == cur.full &&
        base.reps_per_point == cur.reps_per_point) {
      diff_timing(base.bench, "wall_s", base.wall_s, cur.wall_s,
                  /*higher_is_worse=*/true, options, out);
      diff_timing(base.bench, "events_per_wall_s", base.events_per_wall_s,
                  cur.events_per_wall_s, /*higher_is_worse=*/false, options,
                  out);
      diff_points(base, cur, options, out);
    } else {
      out.findings.push_back(
          {FindingKind::kFingerprintChange, base.bench, "config", 0.0, 0.0,
           0.0, 0.0, "run shape differs (messages/full/reps); timing and "
                     "points not compared"});
    }
  }

  std::sort(out.findings.begin(), out.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (failing(a.kind) != failing(b.kind)) return failing(a.kind);
              return std::fabs(a.delta_rel) > std::fabs(b.delta_rel);
            });
  return out;
}

std::string render_diff(const DiffReport& report) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "# ks_bench_diff: %d benches, %d timing metrics, %d point "
                "metrics compared\n",
                report.benches_compared, report.timing_metrics_compared,
                report.point_metrics_compared);
  out += buf;
  if (report.findings.empty()) {
    out += "no findings: current set is within noise of the baseline\n";
    return out;
  }
  out += "\n| kind | bench | metric | baseline | current | delta | gate |\n";
  out += "|------|-------|--------|----------|---------|-------|------|\n";
  for (const auto& f : report.findings) {
    std::snprintf(buf, sizeof(buf),
                  "| %s | %s | %s | %.6g | %.6g | %+.1f%% | %.1f%% |\n",
                  to_string(f.kind), f.bench.c_str(), f.metric.c_str(),
                  f.baseline, f.current, f.delta_rel * 100.0,
                  f.gate * 100.0);
    out += buf;
    if (!f.detail.empty()) {
      out += "|      |       | ^ ";
      out += f.detail;
      out += " |\n";
    }
  }
  return out;
}

}  // namespace ks::bench
