#include "kafka/source.hpp"

#include <algorithm>

namespace ks::kafka {

Source::Source(sim::Simulation& sim, Config config)
    : sim_(sim),
      config_(config),
      rng_(sim.rng().fork()),
      next_key_(config.first_key),
      metrics_binding_(sim.metrics()) {
  auto& m = metrics_binding_;
  m.counter("kafka_source_records_emitted_total", {}, &stats_.emitted);
  m.counter("kafka_source_records_pulled_total", {}, &stats_.pulled);
  m.counter("kafka_source_overruns_total", {}, &stats_.overrun_dropped);
  m.gauge("kafka_source_buffered_records", {},
          [this] { return static_cast<double>(buffer_.size()); });
}

Bytes Source::next_size() {
  Bytes size = config_.message_size;
  if (config_.size_jitter > 0) {
    size += rng_.uniform_int(-config_.size_jitter, config_.size_jitter);
  }
  return std::max<Bytes>(1, size);
}

void Source::start() {
  if (config_.emit_interval <= 0) return;
  emit();
}

void Source::emit() {
  if (next_key_ >= config_.first_key + config_.total_messages) return;
  Record r;
  r.key = next_key_++;
  r.value_size = next_size();
  r.created_at = sim_.now();
  ++stats_.emitted;
  if (config_.buffer_capacity > 0 &&
      buffer_.size() >= config_.buffer_capacity) {
    // Ring overrun: oldest message is gone for good.
    ++stats_.overrun_dropped;
    if (on_overrun) on_overrun(buffer_.front());
    buffer_.pop_front();
  }
  buffer_.push_back(r);
  sim_.after(config_.emit_interval, [this] { emit(); });
}

std::optional<Record> Source::pull() {
  if (config_.emit_interval > 0) {
    if (buffer_.empty()) return std::nullopt;
    Record r = buffer_.front();
    buffer_.pop_front();
    ++stats_.pulled;
    return r;
  }
  // On-demand: the next message materialises at pull time.
  if (next_key_ >= config_.first_key + config_.total_messages) {
    return std::nullopt;
  }
  Record r;
  r.key = next_key_++;
  r.value_size = next_size();
  r.created_at = sim_.now();
  ++stats_.emitted;
  ++stats_.pulled;
  return r;
}

bool Source::exhausted() const noexcept {
  return next_key_ >= config_.first_key + config_.total_messages &&
         buffer_.empty();
}

}  // namespace ks::kafka
