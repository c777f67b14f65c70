#include "obs/timeseries.hpp"

#include <algorithm>
#include <utility>

namespace ks::obs {

void LatencySketch::observe(std::int64_t us) noexcept {
  const auto it = std::lower_bound(kLatencySketchBoundsUs.begin(),
                                   kLatencySketchBoundsUs.end(), us);
  const auto bucket = static_cast<std::size_t>(
      it - kLatencySketchBoundsUs.begin());
  ++buckets_[bucket];
  ++count_;
}

std::int64_t sketch_quantile_upper_bound(
    std::span<const std::uint64_t> buckets, std::uint64_t count,
    double q) noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation, 1-based; q=0 maps to the first.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return b < kLatencySketchBoundsUs.size() ? kLatencySketchBoundsUs[b]
                                               : kLatencySketchOverflowUs;
    }
  }
  return kLatencySketchOverflowUs;
}

void LatencySketch::clear() noexcept {
  buckets_.fill(0);
  count_ = 0;
}

TimeSeries::TimeSeries(std::string name, Duration interval,
                       std::size_t capacity)
    : name_(std::move(name)),
      interval_(std::max<Duration>(interval, 1)),
      ring_(capacity) {}

void TimeSeries::observe(TimePoint t, double v) {
  const std::int64_t index = static_cast<std::int64_t>(t / interval_);
  if (!ring_.empty()) {
    Window& w = ring_.back();
    if (index == w.index) {
      ++w.count;
      w.min = std::min(w.min, v);
      w.max = std::max(w.max, v);
      w.sum += v;
      return;
    }
    if (index < w.index) {
      ++out_of_order_;  // The window is sealed (or evicted).
      return;
    }
  }
  ring_.push_back(Window{index, 1, v, v, v});
}

double TimeSeries::last_mean(double fallback) const noexcept {
  if (ring_.empty()) return fallback;
  const Window& w = ring_.back();
  return w.count > 0 ? w.sum / static_cast<double>(w.count) : fallback;
}

}  // namespace ks::obs
