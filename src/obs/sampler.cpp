#include "obs/sampler.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace ks::obs {

Sampler::Sampler(const MetricsRegistry& registry, Duration interval)
    : registry_(registry), interval_(std::max<Duration>(interval, 1)) {}

void Sampler::watch(std::string name_prefix) {
  prefixes_.push_back(std::move(name_prefix));
}

bool Sampler::watched(const std::string& name) const {
  if (prefixes_.empty()) return true;
  for (const auto& p : prefixes_) {
    if (name.compare(0, p.size(), p) == 0) return true;
  }
  return false;
}

void Sampler::sample(TimePoint now) {
  times_.push_back(now);
  ++samples_;
  // Registry visit order is stable and append-only, so each metric's series
  // index is resolved once (on the first tick that sees it) and cached;
  // steady-state ticks are allocation-free appends.
  std::size_t idx = 0;
  registry_.visit([&](const MetricsRegistry::MetricInfo& m) {
    const std::size_t i = idx++;
    if (i >= series_of_metric_.size()) {
      if (m.kind == MetricKind::kHistogram || !watched(m.name)) {
        series_of_metric_.push_back(-1);  // Summarised at export / filtered.
      } else {
        series_.push_back(Series{m.full_name(), m.kind, {}, {}});
        series_of_metric_.push_back(static_cast<int>(series_.size()) - 1);
      }
    }
    const int si = series_of_metric_[i];
    if (si < 0) return;
    Series& s = series_[static_cast<std::size_t>(si)];
    s.t.push_back(now);
    s.v.push_back(m.value());
  });
}

std::string Sampler::to_csv() const {
  std::string out = "time_us";
  for (const auto& s : series_) {
    out += ',';
    out += s.name;
  }
  out += '\n';
  // Per-series cursors: series sampled from their registration onwards share
  // the global time axis, so values align by timestamp.
  std::vector<std::size_t> cur(series_.size(), 0);
  for (const TimePoint t : times_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(t));
    out += buf;
    for (std::size_t i = 0; i < series_.size(); ++i) {
      out += ',';
      const auto& s = series_[i];
      if (cur[i] < s.t.size() && s.t[cur[i]] == t) {
        std::snprintf(buf, sizeof(buf), "%.17g", s.v[cur[i]]);
        out += buf;
        ++cur[i];
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace ks::obs
