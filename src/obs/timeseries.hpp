// Deterministic sim-time time series: fixed-interval windows in an
// obs::Ring, plus a fixed-bucket latency sketch.
//
// Where the Sampler snapshots every registered metric on a timer, a
// TimeSeries aggregates *observations* — per-window count/min/max/sum over
// values pushed at it — so probes can track derived quantities (consumer
// lag, ISR size, parked acks) that no single metric cell holds. Windows
// are aligned to fixed boundaries (index = t / interval), sparse probes
// simply leave index gaps, and a full ring evicts the oldest window. All
// inputs are sim-time, so the serialized form is byte-identical across
// replays of the same seed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/ring.hpp"

namespace ks::obs {

/// Fixed bucket upper bounds (microseconds) for the latency sketch; the
/// final implicit bucket is +inf. Fixed — never derived from data — so two
/// replays bucket identically and quantile answers carry known error
/// bounds (a quantile lands inside one bucket; the sketch returns its
/// upper bound).
inline constexpr std::array<std::int64_t, 15> kLatencySketchBoundsUs = {
    100,    200,    500,     1000,    2000,    5000,    10000,  20000,
    50000,  100000, 200000,  500000,  1000000, 2000000, 5000000};

/// Bucket count including the +inf overflow bucket.
inline constexpr std::size_t kLatencySketchBuckets =
    kLatencySketchBoundsUs.size() + 1;

/// Saturating sentinel returned by quantile_upper_bound when the quantile
/// lands in the +inf overflow bucket. Distinct from every finite bound so
/// callers cannot mistake "beyond 5 s" for "exactly 5 s".
inline constexpr std::int64_t kLatencySketchOverflowUs =
    std::numeric_limits<std::int64_t>::max();

/// Upper bound of the bucket holding the q-th (q in [0,1]) of `count`
/// observations spread over `buckets` (one count per bound, then +inf).
/// The true quantile lies in (previous bound, returned bound]. When the
/// quantile lands in the +inf overflow bucket there is no finite upper
/// bound, so kLatencySketchOverflowUs is returned instead of silently
/// capping at the largest finite bound. 0 when `count` is 0.
std::int64_t sketch_quantile_upper_bound(
    std::span<const std::uint64_t> buckets, std::uint64_t count,
    double q) noexcept;

/// Small fixed-bucket histogram for end-to-end latencies. O(buckets)
/// memory, O(log buckets) observe, deterministic serialization.
class LatencySketch {
 public:
  void observe(std::int64_t us) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  const std::array<std::uint64_t, kLatencySketchBuckets>& buckets()
      const noexcept {
    return buckets_;
  }

  /// sketch_quantile_upper_bound() over this sketch's buckets.
  std::int64_t quantile_upper_bound(double q) const noexcept {
    return sketch_quantile_upper_bound(buckets_, count_, q);
  }

  void clear() noexcept;

 private:
  std::array<std::uint64_t, kLatencySketchBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// One named series of fixed-interval aggregate windows.
class TimeSeries {
 public:
  struct Window {
    std::int64_t index = 0;  ///< Window start = index * interval.
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
  };

  TimeSeries(std::string name, Duration interval, std::size_t capacity);

  /// Fold `v` into the window containing `t`. Observations are expected in
  /// nondecreasing time order (sim probes fire on a timer); a value for an
  /// already-evicted or out-of-order window is dropped and counted.
  void observe(TimePoint t, double v);

  const std::string& name() const noexcept { return name_; }
  Duration interval() const noexcept { return interval_; }
  /// Windows evicted by ring overflow plus out-of-order drops.
  std::uint64_t dropped() const noexcept {
    return ring_.evicted() + out_of_order_;
  }

  /// Retained windows, oldest first. Gaps in `index` are genuinely empty
  /// windows (no probe landed there); they occupy no storage.
  std::vector<Window> windows() const { return ring_.to_vector(); }

  /// Most recent window's mean, or `fallback` when empty.
  double last_mean(double fallback = 0.0) const noexcept;

 private:
  std::string name_;
  Duration interval_;
  Ring<Window> ring_;
  std::uint64_t out_of_order_ = 0;
};

}  // namespace ks::obs
