#include "testbed/adaptive.hpp"

#include <algorithm>

#include "kafka/producer.hpp"
#include "tcp/endpoint.hpp"

namespace ks::testbed {

AdaptiveTelemetry sample_telemetry(
    const std::vector<const kafka::Producer*>& producers,
    const std::vector<const tcp::Endpoint*>& connections) {
  AdaptiveTelemetry t;
  for (const auto* c : connections) {
    const auto& s = c->stats();
    t.segments_sent += s.segments_sent;
    t.data_segments_sent += s.data_segments_sent;
    t.retransmissions += s.retransmissions;
    t.rto_events += s.rto_events;
  }
  for (const auto* p : producers) {
    t.smoothed_rtt = std::max(t.smoothed_rtt, p->connection().smoothed_rtt());
    const auto& s = p->stats();
    t.records_acked += s.records_acked;
    t.records_retried += s.requests_retried;
    t.records_timed_out += s.records_failed;
  }
  const auto& live = producers.front()->config();
  t.batch_size = live.batch_size;
  t.poll_interval = live.poll_interval;
  t.message_timeout = live.message_timeout;
  return t;
}

}  // namespace ks::testbed
