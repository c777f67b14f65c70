#include "obs/metrics.hpp"

namespace ks::obs {

const char* to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

namespace {

std::string render_labels(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  return out;
}

}  // namespace

double MetricsRegistry::MetricInfo::value() const {
  if (kind == MetricKind::kHistogram) {
    return hist ? static_cast<double>(hist->count()) : 0.0;
  }
  return read ? read() : frozen;
}

std::string MetricsRegistry::MetricInfo::full_name() const {
  if (label_text.empty()) return name;
  return name + '{' + label_text + '}';
}

MetricsRegistry::MetricInfo& MetricsRegistry::add(const std::string& name,
                                                  const Labels& labels,
                                                  MetricKind kind) {
  MetricInfo& m = metrics_.emplace_back();
  m.name = name;
  m.label_text = render_labels(labels);
  m.kind = kind;
  return m;
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const Labels& labels) {
  LatencyHistogram& cell = hist_cells_.emplace_back();
  add(name, labels, MetricKind::kHistogram).hist = &cell;
  return Histogram(&cell);
}

void MetricsRegistry::visit(
    const std::function<void(const MetricInfo&)>& fn) const {
  for (const auto& m : metrics_) fn(m);
}

MetricsBinding::MetricsBinding(MetricsBinding&& other) noexcept
    : registry_(std::exchange(other.registry_, nullptr)),
      entries_(std::move(other.entries_)) {}

MetricsBinding::~MetricsBinding() {
  if (registry_ == nullptr) return;
  for (const std::size_t i : entries_) {
    auto& m = registry_->metrics_[i];
    m.frozen = m.read();
    m.read = nullptr;
  }
}

void MetricsBinding::add(MetricKind kind, const std::string& name,
                         const Labels& labels, Read read) {
  registry_->add(name, labels, kind).read = std::move(read);
  entries_.push_back(registry_->size() - 1);
}

}  // namespace ks::obs
