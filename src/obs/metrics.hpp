// Simulation-wide metrics registry.
//
// Design constraints (the sim is single-threaded and deterministic — exploit
// it): a component's own state is the only copy of its counters and gauges.
// The component registers each metric once through its MetricsBinding, with
// a function that reads the `Stats` field or state behind it, and the
// registry calls that function whenever a sampler tick or an export reads
// the metric. The hot path keeps incrementing plain struct fields and pays
// nothing. When the component dies, its binding freezes each of its metrics
// at the last value, so a stage that ends before the report keeps its final
// counts and the registry never calls into a dead component.
//
// Histograms are registry-owned cells behind a Histogram handle; deque
// storage keeps their addresses stable as metrics register.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace ks::obs {

/// Label set resolved at registration time, e.g. {{"conn", "prod:client"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind k) noexcept;

/// Histogram handle over the shared log-bucketed LatencyHistogram.
class Histogram {
 public:
  Histogram() = default;

  void observe(Duration d) noexcept {
    if (hist_) hist_->add(d);
  }
  const LatencyHistogram* get() const noexcept { return hist_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(LatencyHistogram* hist) : hist_(hist) {}
  LatencyHistogram* hist_ = nullptr;
};

class MetricsRegistry;

/// One component's counter and gauge registrations. Every registration is
/// its own registry entry, read through its function while the binding
/// lives; destroying the binding freezes each entry at its last value.
/// Declare it after every member its reads touch, so it is destroyed first.
class MetricsBinding {
 public:
  using Read = std::function<double()>;

  explicit MetricsBinding(MetricsRegistry& registry) noexcept
      : registry_(&registry) {}
  MetricsBinding(MetricsBinding&& other) noexcept;
  MetricsBinding(const MetricsBinding&) = delete;
  MetricsBinding& operator=(const MetricsBinding&) = delete;
  ~MetricsBinding();

  void counter(const std::string& name, const Labels& labels, Read read) {
    add(MetricKind::kCounter, name, labels, std::move(read));
  }
  void gauge(const std::string& name, const Labels& labels, Read read) {
    add(MetricKind::kGauge, name, labels, std::move(read));
  }

  /// A metric that is one arithmetic field of the component, read in place.
  template <class T>
    requires std::is_arithmetic_v<T>
  void counter(const std::string& name, const Labels& labels, const T* field) {
    counter(name, labels, [field] { return static_cast<double>(*field); });
  }
  template <class T>
    requires std::is_arithmetic_v<T>
  void gauge(const std::string& name, const Labels& labels, const T* field) {
    gauge(name, labels, [field] { return static_cast<double>(*field); });
  }

 private:
  void add(MetricKind kind, const std::string& name, const Labels& labels,
           Read read);

  MetricsRegistry* registry_;         ///< Null once moved from.
  std::vector<std::size_t> entries_;  ///< This binding's registry entries.
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register a histogram cell; every call is its own entry.
  Histogram histogram(const std::string& name, const Labels& labels = {});

  /// A registered metric, exposed for exporters and samplers.
  struct MetricInfo {
    std::string name;
    std::string label_text;  ///< Rendered `key="value",...` (may be empty).
    MetricKind kind = MetricKind::kCounter;
    MetricsBinding::Read read;  ///< Live read; empty once frozen.
    double frozen = 0.0;        ///< Last value, once the binding died.
    const LatencyHistogram* hist = nullptr;

    /// Scalar value (histograms report their count).
    double value() const;
    /// `name{labels}` or bare `name`.
    std::string full_name() const;
  };

  /// Visit metrics in registration order, reading live components.
  void visit(const std::function<void(const MetricInfo&)>& fn) const;

  std::size_t size() const noexcept { return metrics_.size(); }

 private:
  friend class MetricsBinding;

  MetricInfo& add(const std::string& name, const Labels& labels,
                  MetricKind kind);

  std::vector<MetricInfo> metrics_;
  std::deque<LatencyHistogram> hist_cells_;
};

}  // namespace ks::obs
