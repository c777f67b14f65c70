#include "obs/trace.hpp"

namespace ks::obs {

const char* to_string(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kOverrun: return "overrun";
    case TraceEvent::kSendAttempt: return "send_attempt";
    case TraceEvent::kRetry: return "retry";
    case TraceEvent::kAppended: return "appended";
    case TraceEvent::kAcked: return "acked";
    case TraceEvent::kExpired: return "expired";
    case TraceEvent::kFailed: return "failed";
    case TraceEvent::kFetched: return "fetched";
    case TraceEvent::kDelivered: return "delivered";
    case TraceEvent::kDupDetected: return "dup_detected";
  }
  return "?";
}

MessageTrace::MessageTrace(std::size_t capacity, std::uint64_t sample_every)
    : ring_(capacity), sample_every_(sample_every) {
  if (enabled()) ring_.reserve(1024);
}

void MessageTrace::record(TimePoint t, std::uint64_t key, TraceEvent event,
                          std::int32_t detail) {
  if (!sampled(key)) return;
  ++recorded_;
  ring_.push_back(Entry{t, key, event, detail});
}

std::vector<MessageTrace::Entry> MessageTrace::events_for(
    std::uint64_t key) const {
  std::vector<Entry> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].key == key) out.push_back(ring_[i]);
  }
  return out;
}

}  // namespace ks::obs
