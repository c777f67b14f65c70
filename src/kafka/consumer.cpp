#include "kafka/consumer.hpp"

#include <algorithm>
#include <utility>

namespace ks::kafka {

Consumer::Consumer(sim::Simulation& sim, Config config, tcp::Endpoint& conn,
                   std::int32_t partition)
    : sim_(sim),
      config_(config),
      active_(&conn),
      partition_(partition),
      poll_timer_(sim),
      fetch_timeout_timer_(sim),
      metrics_binding_(sim.metrics()) {
  auto& m = metrics_binding_;
  const obs::Labels labels{{"partition", std::to_string(partition_)}};
  m.counter("kafka_consumer_fetches_total", labels, &stats_.fetches);
  m.counter("kafka_consumer_records_total", labels, &stats_.records);
  m.counter("kafka_consumer_bytes_total", labels, &stats_.bytes);
  m.counter("kafka_consumer_fetch_retries_total", labels,
            &stats_.fetch_retries);
  m.gauge("kafka_consumer_position", labels, &next_offset_);
}

void Consumer::enable_failover(std::vector<tcp::Endpoint*> endpoints,
                               std::function<int(std::int32_t)> leader_of) {
  endpoints_ = std::move(endpoints);
  leader_lookup_ = std::move(leader_of);
}

void Consumer::start() {
  const auto install = [this](tcp::Endpoint* ep) {
    ep->on_connected = [this] { fetch(); };
    ep->on_message = [this](std::shared_ptr<const void> payload) {
      handle_frame(std::move(payload));
    };
    ep->on_reset = [this, ep] { handle_reset(ep); };
  };
  if (endpoints_.empty()) {
    install(active_);
  } else {
    for (auto* ep : endpoints_) install(ep);
  }
  active_->connect();
}

void Consumer::handle_reset(tcp::Endpoint* endpoint) {
  if (endpoint != active_) return;  // Stale connection from before failover.
  ++stats_.connection_resets;
  fetch_outstanding_ = false;
  sim_.tracer().end(sim_.now(), fetch_span_, -1);
  fetch_span_ = 0;
  fetch_timeout_timer_.cancel();
  maybe_failover();
  if (!reconnect_pending_ && !done_) {
    reconnect_pending_ = true;
    sim_.after(config_.reconnect_backoff, [this] {
      reconnect_pending_ = false;
      if (done_ || active_->established() ||
          active_->state() == tcp::Endpoint::State::kSynSent) {
        return;
      }
      active_->connect();
    });
  }
}

void Consumer::maybe_failover() {
  if (!leader_lookup_) return;
  const int leader = leader_lookup_(partition_);
  if (leader < 0 || leader >= static_cast<int>(endpoints_.size())) return;
  tcp::Endpoint* target = endpoints_[static_cast<std::size_t>(leader)];
  if (target == active_) return;
  ++stats_.failovers;
  sim_.timeline().record(sim_.now(),
                         obs::ClusterEventKind::kConsumerFailover, leader,
                         partition_, next_offset_);
  consecutive_retries_ = 0;  // Progress: new leader to talk to.
  active_ = target;
  fetch_outstanding_ = false;
  sim_.tracer().end(sim_.now(), fetch_span_, -1);
  fetch_span_ = 0;
  fetch_timeout_timer_.cancel();
  if (!active_->established() &&
      active_->state() != tcp::Endpoint::State::kSynSent) {
    active_->connect();
  }
}

void Consumer::drain_until(std::int64_t target_offset) {
  drain_target_ = target_offset;
  finish_if_drained();
}

void Consumer::finish_if_drained() {
  if (done_ || drain_target_ < 0 || next_offset_ < drain_target_) return;
  done_ = true;
  poll_timer_.cancel();
  fetch_timeout_timer_.cancel();
  if (on_drained) on_drained();
}

void Consumer::fetch() {
  if (done_ || stalled_ || fetch_outstanding_ || !active_->established()) {
    return;
  }
  FetchRequest req;
  req.id = next_request_id_++;
  req.partition = partition_;
  req.offset = next_offset_;
  req.max_records = config_.max_records_per_fetch;
  const obs::SpanId span =
      sim_.tracer().begin(sim_.now(), obs::SpanKind::kConsumerFetch,
                          obs::kTrackConsumer, 0, obs::kNoKey, next_offset_);
  req.trace_span = span;
  const Bytes wire = req.wire_size();
  const std::uint64_t request_id = req.id;
  if (!active_->send(tcp::AppMessage{wire, make_frame(std::move(req)),
                                     span})) {
    sim_.tracer().cancel(span);
    poll_timer_.arm(config_.poll_backoff, [this] { fetch(); });
    return;
  }
  fetch_span_ = span;
  fetch_outstanding_ = true;
  outstanding_request_id_ = request_id;
  ++stats_.fetches;
  fetch_timeout_timer_.arm(config_.fetch_timeout,
                           [this] { handle_fetch_timeout(); });
}

void Consumer::handle_fetch_timeout() {
  fetch_outstanding_ = false;  // Response lost; ask again (with backoff).
  sim_.tracer().end(sim_.now(), fetch_span_, -1);
  fetch_span_ = 0;
  ++stats_.fetch_retries;
  ++consecutive_retries_;
  maybe_failover();  // A dead leader never answers; check for a new one.
  if (consecutive_retries_ > config_.max_fetch_retries) {
    stalled_ = true;  // Bounded re-issue: stop spinning on a dead cluster.
    sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kConsumerStall,
                           -1, partition_, next_offset_);
    return;
  }
  Duration backoff = config_.poll_backoff;
  for (int i = 1; i < consecutive_retries_ &&
                  backoff < config_.fetch_retry_backoff_max;
       ++i) {
    backoff = std::min(backoff * 2, config_.fetch_retry_backoff_max);
  }
  poll_timer_.arm(backoff, [this] { fetch(); });
}

void Consumer::handle_frame(std::shared_ptr<const void> payload) {
  const auto* frame = static_cast<const Frame*>(payload.get());
  const auto* resp = std::get_if<FetchResponse>(&frame->body);
  if (resp == nullptr) return;
  if (!fetch_outstanding_ || resp->request_id != outstanding_request_id_) {
    return;  // Late response to a fetch we already re-issued.
  }
  fetch_outstanding_ = false;
  fetch_timeout_timer_.cancel();
  consecutive_retries_ = 0;
  sim_.tracer().end(sim_.now(), fetch_span_,
                    static_cast<std::int64_t>(resp->records.size()));
  fetch_span_ = 0;

  switch (resp->error) {
    case ErrorCode::kNotLeaderForPartition:
      maybe_failover();
      poll_timer_.arm(config_.poll_backoff, [this] { fetch(); });
      return;
    case ErrorCode::kOffsetOutOfRange:
      // Our position is past what the serving leader exposes — after an
      // unclean election the committed log may have regressed. Re-point at
      // the leader's high watermark and continue (records in between are
      // lost to every reader, not just us).
      ++stats_.offset_truncations;
      next_offset_ = std::min(next_offset_, resp->high_watermark);
      sim_.timeline().record(sim_.now(),
                             obs::ClusterEventKind::kConsumerTruncation, -1,
                             partition_, next_offset_);
      finish_if_drained();
      if (!done_) poll_timer_.arm(config_.poll_backoff, [this] { fetch(); });
      return;
    default:
      break;
  }

  for (const auto& r : resp->records) {
    if (r.offset < next_offset_) continue;  // Overlap from a re-fetch.
    next_offset_ = r.offset + 1;
    ++stats_.records;
    stats_.bytes += r.value_size;
    if (on_record) on_record(r);
  }
  finish_if_drained();
  if (done_) return;
  if (resp->records.empty()) {
    poll_timer_.arm(config_.poll_backoff, [this] { fetch(); });
  } else {
    fetch();
  }
}

}  // namespace ks::kafka
