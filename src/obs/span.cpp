#include "obs/span.hpp"

#include <algorithm>
#include <unordered_set>

namespace ks::obs {

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kProduceBatch: return "produce.batch";
    case SpanKind::kProduceAttempt: return "produce.attempt";
    case SpanKind::kTcpFlight: return "tcp.flight";
    case SpanKind::kBrokerAppend: return "broker.append";
    case SpanKind::kCommitWait: return "broker.commit_wait";
    case SpanKind::kReplicaAppend: return "replica.append";
    case SpanKind::kBrokerFetch: return "broker.fetch";
    case SpanKind::kConsumerFetch: return "consumer.fetch";
    case SpanKind::kDeliver: return "consumer.deliver";
  }
  return "?";
}

SpanTracer::SpanTracer(std::size_t capacity, std::uint64_t sample_every) {
  configure(capacity, sample_every);
}

void SpanTracer::configure(std::size_t capacity, std::uint64_t sample_every) {
  open_.clear();
  ring_ = Ring<Span>(capacity);
  sample_every_ = sample_every;
  next_id_ = 1;
  started_ = 0;
  if (enabled()) ring_.reserve(1024);
}

SpanId SpanTracer::record(TimePoint t, SpanKind kind, std::int32_t track,
                          SpanId parent, std::uint64_t key,
                          std::int64_t detail) {
  if (parent == 0) {
    if (!sampled(key)) return 0;
  } else if (key == kNoKey) {
    // Children follow their (recorded) parent and inherit its key while it
    // is still open; a closed parent just leaves the key unset.
    const auto it = open_.find(parent);
    if (it != open_.end()) key = it->second.key;
  }
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.key = key;
  span.kind = kind;
  span.track = track;
  span.detail = detail;
  span.begin = t;
  span.end = t;
  ++started_;
  open_.emplace(span.id, span);
  return span.id;
}

void SpanTracer::close(TimePoint t, SpanId id) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Span span = it->second;
  open_.erase(it);
  span.end = std::max(t, span.begin);
  ring_.push_back(span);
}

void SpanTracer::end(TimePoint t, SpanId id, std::int64_t detail) {
  if (id == 0) return;
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.detail = detail;
  end(t, id);
}

void SpanTracer::cancel(SpanId id) {
  if (id == 0) return;
  open_.erase(id);
}

void SpanTracer::close_open(TimePoint t) {
  // open_ is keyed by monotonically assigned ids, so this walks spans in
  // begin order — deterministic across replays.
  for (auto& [id, span] : open_) {
    span.end = std::max(t, span.begin);
    ring_.push_back(span);
  }
  open_.clear();
}

std::vector<Span> SpanTracer::spans() const {
  std::vector<Span> out = ring_.to_vector();
  // Ring eviction (or a parent that never closed before its child) can
  // leave dangling parent links; promote those spans to roots so the
  // exported forest is always well-formed.
  std::unordered_set<SpanId> ids;
  ids.reserve(out.size());
  for (const auto& s : out) ids.insert(s.id);
  for (auto& s : out) {
    if (s.parent != 0 && ids.count(s.parent) == 0) s.parent = 0;
  }
  return out;
}

}  // namespace ks::obs
