// Sim-time sampler: snapshots counters and gauges into time series.
//
// The sampler is clock-agnostic — the driver calls sample(now) on its own
// schedule (the experiment runner arms a recurring sim event) — so obs stays
// below sim in the layering. Each sample appends the current value of every
// watched metric, read from its component (or frozen, once it died).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace ks::obs {

class Sampler {
 public:
  struct Series {
    std::string name;  ///< Metric full name (with labels).
    MetricKind kind = MetricKind::kCounter;
    std::vector<TimePoint> t;
    std::vector<double> v;
  };

  /// Watches every counter/gauge in `registry` unless watch() narrows it.
  explicit Sampler(const MetricsRegistry& registry,
                   Duration interval = millis(100));

  /// Restrict sampling to metrics whose name starts with one of the added
  /// prefixes. Callable multiple times; before the first call, all metrics
  /// are watched. Call before sample() — the selection for a metric is
  /// frozen at the first tick that sees it.
  void watch(std::string name_prefix);

  /// Take one snapshot stamped `now`. Metrics registered since the last
  /// sample join with their own (shorter) series.
  void sample(TimePoint now);

  Duration interval() const noexcept { return interval_; }
  std::size_t samples_taken() const noexcept { return samples_; }
  const std::vector<Series>& series() const noexcept { return series_; }

  /// Wide CSV: header `time_us,<metric>,...`; one row per sample time.
  /// Series that started late are padded with empty cells.
  std::string to_csv() const;

 private:
  bool watched(const std::string& name) const;

  const MetricsRegistry& registry_;
  Duration interval_;
  std::vector<std::string> prefixes_;
  std::vector<Series> series_;
  std::vector<TimePoint> times_;  ///< All sample times, in order.
  /// Registry visit order -> series index (-1 = not watched), built lazily;
  /// registration order is stable and append-only, so later ticks skip the
  /// name matching entirely.
  std::vector<int> series_of_metric_;
  std::size_t samples_ = 0;
};

}  // namespace ks::obs
