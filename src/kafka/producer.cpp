#include "kafka/producer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace ks::kafka {

Duration next_retry_backoff(std::uint64_t& state, Duration base,
                            Duration prev, Duration cap) {
  // Decorrelated jitter: sleep = min(cap, uniform(base, prev * 3)). Grows
  // exponentially in expectation while spreading synchronized retriers.
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const Duration lo = base;
  const Duration hi = std::max(base, (prev > 0 ? prev : base) * 3);
  const Duration span = hi - lo;
  Duration backoff = lo;
  if (span > 0) {
    backoff += static_cast<Duration>(
        z % (static_cast<std::uint64_t>(span) + 1));
  }
  return std::min(backoff, std::max(base, cap));
}

const char* to_string(DeliverySemantics s) noexcept {
  switch (s) {
    case DeliverySemantics::kAtMostOnce: return "at-most-once";
    case DeliverySemantics::kAtLeastOnce: return "at-least-once";
    case DeliverySemantics::kExactlyOnce: return "exactly-once";
  }
  return "?";
}

ProducerConfig ProducerConfig::at_most_once() {
  ProducerConfig c;
  c.semantics = DeliverySemantics::kAtMostOnce;
  c.acks = Acks::kNone;
  c.retries = 0;
  // Fire-and-forget applications get no delivery feedback: they flood the
  // (deep) local queue at source speed.
  c.admission = AdmissionPolicy::kFlood;
  c.max_queued_records = 100000;
  return c;
}

ProducerConfig ProducerConfig::at_least_once() {
  ProducerConfig c;
  c.semantics = DeliverySemantics::kAtLeastOnce;
  c.acks = Acks::kLeader;
  c.retries = 5;
  c.request_timeout = millis(2000);
  // librdkafka-style deep pipelining; the congestion window, not this cap,
  // bounds the wire.
  c.max_in_flight = 1000;
  // Delivery reports pace the application: bounded unresolved window.
  c.admission = AdmissionPolicy::kAckPaced;
  c.ack_window = 200;
  return c;
}

ProducerConfig ProducerConfig::exactly_once() {
  ProducerConfig c = at_least_once();
  c.semantics = DeliverySemantics::kExactlyOnce;
  c.acks = Acks::kAll;
  c.enable_idempotence = true;
  c.retries = 10;
  return c;
}

ProducerConfig ProducerConfig::for_semantics(DeliverySemantics s) {
  switch (s) {
    case DeliverySemantics::kAtMostOnce: return at_most_once();
    case DeliverySemantics::kAtLeastOnce: return at_least_once();
    case DeliverySemantics::kExactlyOnce: return exactly_once();
  }
  return at_least_once();
}

Producer::Producer(sim::Simulation& sim, ProducerConfig config,
                   tcp::Endpoint& conn, RecordSource& source,
                   std::int32_t partition)
    : sim_(sim),
      config_(config),
      active_(&conn),
      source_(source),
      partition_(partition),
      jitter_state_(0x0DDB1A5E5BAD5EEDULL ^ config.producer_id),
      effective_producer_id_(config.producer_id),
      poll_timer_(sim),
      linger_timer_(sim),
      timeout_scan_timer_(sim),
      expiry_timer_(sim),
      retry_timer_(sim),
      metrics_binding_(sim.metrics()) {
  auto& m = metrics_binding_;
  const obs::Labels labels{
      {"producer", std::to_string(config_.producer_id)}};
  m.counter("kafka_producer_records_pulled_total", labels, &stats_.pulled);
  m.counter("kafka_producer_records_expired_total", labels, &stats_.expired);
  m.counter("kafka_producer_batches_sent_total", labels,
            &stats_.requests_sent);
  m.counter("kafka_producer_batches_retried_total", labels,
            &stats_.requests_retried);
  m.counter("kafka_producer_request_timeouts_total", labels,
            &stats_.request_timeouts);
  m.counter("kafka_producer_records_acked_total", labels,
            &stats_.records_acked);
  m.counter("kafka_producer_records_failed_total", labels,
            &stats_.records_failed);
  m.counter("kafka_producer_connection_resets_total", labels,
            &stats_.connection_resets);
  m.counter("kafka_producer_records_dropped_queue_full_total", labels,
            &stats_.dropped_queue_full);
  m.counter("kafka_producer_not_leader_errors_total", labels,
            &stats_.not_leader_errors);
  m.counter("kafka_producer_failovers_total", labels, &stats_.failovers);
  m.gauge("kafka_producer_accumulator_records", labels,
          [this] { return static_cast<double>(queue_.size()); });
  m.gauge("kafka_producer_in_flight_batches", labels, &in_flight_count_);
  m.gauge("kafka_producer_unresolved_records", labels, &unresolved_);
  m_queue_sojourn_ =
      sim.metrics().histogram("kafka_producer_queue_sojourn_us", labels);
  m_ack_latency_ =
      sim.metrics().histogram("kafka_producer_ack_latency_us", labels);
}

void Producer::enable_failover(std::vector<tcp::Endpoint*> endpoints,
                               std::function<int(std::int32_t)> leader_of) {
  endpoints_ = std::move(endpoints);
  leader_lookup_ = std::move(leader_of);
}

void Producer::start() {
  const auto install = [this](tcp::Endpoint* ep) {
    ep->on_connected = [this] { try_send(); };
    ep->on_writable = [this] { try_send(); };
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

  if (config_.acks != Acks::kNone) arm_timeout_scan();
  arm_expiry_scan();
  schedule_poll(0);
}

void Producer::arm_timeout_scan() {
  const Duration scan =
      std::max<Duration>(millis(10), config_.request_timeout / 4);
  timeout_scan_timer_.arm(scan, [this] {
    scan_request_timeouts();
    if (!finished_) arm_timeout_scan();
  });
}

void Producer::arm_expiry_scan() {
  expiry_timer_.arm(config_.expiry_scan_interval, [this] {
    expire_queue_front();
    try_send();
    if (!finished_) arm_expiry_scan();
  });
}

void Producer::schedule_poll(Duration delay) {
  if (finished_ || source_done_) return;
  poll_timer_.arm(delay, [this] { poll(); });
}

bool Producer::admission_open() const noexcept {
  if (queue_.size() >= config_.max_queued_records) return false;
  if (config_.admission == AdmissionPolicy::kAckPaced &&
      unresolved_ >= config_.ack_window) {
    return false;
  }
  return true;
}

void Producer::poll() {
  if (finished_ || source_done_) return;
  if (!admission_open()) {
    schedule_poll(std::max<Duration>(config_.poll_interval, millis(1)));
    return;
  }
  auto record = source_.pull();
  if (!record) {
    if (source_.exhausted()) {
      source_done_ = true;
      maybe_finish();
      return;
    }
    schedule_poll(std::max<Duration>(config_.poll_interval, millis(1)));
    return;
  }
  ++stats_.pulled;
  ++unresolved_;
  const Duration t_ser =
      config_.serialize_base +
      static_cast<Duration>(std::llround(
          static_cast<double>(record->value_size) *
          config_.serialize_per_byte_us));
  enqueue(*record);
  schedule_poll(std::max(config_.poll_interval, t_ser));
}

void Producer::enqueue(Record record) {
  queue_.push_back(record);
  try_send();
}

void Producer::expire_queue_front() {
  // The queue is (approximately) ordered by creation time — retried batches
  // live in retry_queue_, not here — so a front scan finds all expired
  // records.
  while (!queue_.empty() && record_expired(queue_.front())) {
    const Record& r = queue_.front();
    ++stats_.expired;
    if (on_record_expired) on_record_expired(r);
    queue_.pop_front();
    resolve_records(1);
  }
}

bool Producer::send_batch(std::uint64_t batch_id) {
  auto it = batches_.find(batch_id);
  assert(it != batches_.end());
  BatchState& batch = it->second;

  // Root span on first attempt (sampled by the first record's key); every
  // attempt gets a child span the broker and TCP flight hang off.
  auto& tracer = sim_.tracer();
  const bool fresh_span = batch.span == 0;
  if (fresh_span && !batch.request.records.empty()) {
    batch.span = tracer.begin(sim_.now(), obs::SpanKind::kProduceBatch,
                              obs::kTrackProducer, 0,
                              batch.request.records.front().key,
                              static_cast<std::int64_t>(batch_id));
  }
  const obs::SpanId attempt_span =
      tracer.child(sim_.now(), obs::SpanKind::kProduceAttempt,
                   obs::kTrackProducer, batch.span, batch.attempt + 1);

  ProduceRequest req = batch.request;
  req.id = next_request_id_;
  req.trace_span = attempt_span;
  for (auto& r : req.records) ++r.attempts;
  req.attempt = batch.attempt + 1;
  const Bytes wire = req.wire_size();
  auto frame = make_frame(std::move(req));
  if (!active_->send(tcp::AppMessage{wire, frame, attempt_span})) {
    // Socket full: the attempt never happened.
    tracer.cancel(attempt_span);
    if (fresh_span) {
      tracer.cancel(batch.span);
      batch.span = 0;
    }
    return false;
  }
  tracer.end(sim_.now(), batch.attempt_span);  // Superseded attempt, if any.
  batch.attempt_span = attempt_span;

  const auto& sent = std::get<ProduceRequest>(frame->body);
  batch.request = sent;  // Keep the bumped attempt counts.
  batch.attempt_ids.push_back(sent.id);
  request_to_batch_.emplace(sent.id, batch_id);
  batch.sent_at = sim_.now();
  ++batch.attempt;
  batch.awaiting_retry = false;
  ++in_flight_count_;
  ++next_request_id_;
  ++stats_.requests_sent;
  stats_.records_sent += sent.records.size();
  for (const auto& r : sent.records) {
    if (on_send_attempt) on_send_attempt(r, r.attempts);
  }
  return true;
}

void Producer::try_send() {
  if (!active_->established()) return;

  // 1. Batches whose retry backoff elapsed go out first (they carry the
  //    oldest records and their idempotent sequence numbers).
  while (!retry_order_.empty()) {
    if (config_.acks != Acks::kNone &&
        batches_in_flight() >=
            static_cast<std::size_t>(config_.max_in_flight)) {
      return;
    }
    const std::uint64_t batch_id = retry_order_.front();
    auto it = batches_.find(batch_id);
    if (it == batches_.end()) {  // Resolved by a late ack while waiting.
      retry_order_.pop_front();
      continue;
    }
    if (it->second.ready_at > sim_.now()) {
      retry_timer_.arm(it->second.ready_at - sim_.now(),
                       [this] { try_send(); });
      break;
    }
    if (!send_batch(batch_id)) return;  // Socket full.
    retry_order_.pop_front();
  }

  // 2. Fresh batches from the accumulator. An idempotent producer must not
  //    let a fresh (higher-sequence) batch overtake one still waiting for
  //    its retry backoff: the broker would record the higher sequence and
  //    then drop the earlier batch's retry as a "duplicate" — an ack
  //    without an append, which breaks exactly-once. Head-of-line block
  //    until the retry queue drains (Kafka's in-order in-flight rule).
  if (config_.enable_idempotence && !retry_order_.empty()) return;
  while (true) {
    expire_queue_front();
    if (queue_.empty()) {
      maybe_finish();
      return;
    }
    if (config_.acks != Acks::kNone &&
        batches_in_flight() >=
            static_cast<std::size_t>(config_.max_in_flight)) {
      return;
    }
    const auto batch_cap = static_cast<std::size_t>(
        std::max(1, config_.batch_size));
    // Linger: wait for a full batch unless the deadline passed or the
    // source is done.
    if (queue_.size() < batch_cap && config_.linger > 0 && !source_done_) {
      const TimePoint deadline = batch_wait_start_ + config_.linger;
      if (sim_.now() < deadline) {
        linger_timer_.arm(deadline - sim_.now(), [this] { try_send(); });
        return;
      }
    }

    // Assemble the batch (peek first: only pop once the socket accepts).
    const std::size_t n = std::min(batch_cap, queue_.size());
    BatchState batch;
    batch.request.partition = partition_;
    batch.request.acks = config_.acks;
    batch.request.records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.request.records.push_back(queue_[i]);
    }
    if (config_.enable_idempotence) {
      batch.request.producer_id = effective_producer_id_;
      batch.request.base_sequence = next_sequence_;
    }
    const std::uint64_t batch_id = next_batch_id_;
    batches_.emplace(batch_id, std::move(batch));
    if (!send_batch(batch_id)) {
      batches_.erase(batch_id);  // Socket full; records stay queued.
      return;
    }
    ++next_batch_id_;

    // Committed: pop the records and account.
    for (std::size_t i = 0; i < n; ++i) {
      const Duration sojourn = sim_.now() - queue_.front().created_at;
      m_queue_sojourn_.observe(sojourn);
      queue_.pop_front();
    }
    batch_wait_start_ = sim_.now();
    if (config_.enable_idempotence) {
      next_sequence_ += static_cast<std::int64_t>(n);
    }
    if (config_.acks == Acks::kNone) {
      // Fire and forget: written-to-socket is as good as it gets.
      stats_.records_written += n;
      resolve_records(n);
      auto done = batches_.find(batch_id);
      sim_.tracer().end(sim_.now(), done->second.attempt_span);
      sim_.tracer().end(sim_.now(), done->second.span);
      for (auto id : done->second.attempt_ids) request_to_batch_.erase(id);
      batches_.erase(done);
    }
  }
}

void Producer::handle_frame(std::shared_ptr<const void> payload) {
  const auto* frame = static_cast<const Frame*>(payload.get());
  if (const auto* resp = std::get_if<ProduceResponse>(&frame->body)) {
    handle_response(*resp);
  }
}

void Producer::handle_response(const ProduceResponse& response) {
  ++stats_.responses;
  auto rit = request_to_batch_.find(response.request_id);
  if (rit == request_to_batch_.end()) return;  // Batch already resolved.
  switch (response.error) {
    case ErrorCode::kNone:
    case ErrorCode::kDuplicateSequence:  // Idempotent dedup == success.
      resolve_batch(rit->second);
      break;
    case ErrorCode::kNotLeaderForPartition:
      // Stale metadata: find the new leader, then retry the batch there
      // (sequence numbers are preserved, so this is duplicate-safe).
      ++stats_.not_leader_errors;
      maybe_failover();
      retry_or_fail(rit->second);
      break;
    case ErrorCode::kNotEnoughReplicas:
      ++stats_.not_enough_replicas_errors;
      retry_or_fail(rit->second);
      break;
    case ErrorCode::kOutOfOrderSequence:
      handle_out_of_order(rit->second);
      break;
    default:  // Other retriable errors.
      retry_or_fail(rit->second);
      break;
  }
  try_send();
}

void Producer::maybe_failover() {
  if (!leader_lookup_) return;
  ++stats_.metadata_refreshes;
  const int leader = leader_lookup_(partition_);
  if (leader < 0 ||
      leader >= static_cast<int>(endpoints_.size())) {
    return;  // Partition offline: keep retrying where we are.
  }
  tcp::Endpoint* target = endpoints_[static_cast<std::size_t>(leader)];
  if (target == active_) return;
  ++stats_.failovers;
  sim_.timeline().record(sim_.now(),
                         obs::ClusterEventKind::kProducerFailover, leader,
                         partition_);
  active_ = target;
  if (!active_->established() &&
      active_->state() != tcp::Endpoint::State::kSynSent) {
    active_->connect();
  }
}

void Producer::resolve_batch(std::uint64_t batch_id) {
  auto it = batches_.find(batch_id);
  if (it == batches_.end()) return;
  const auto& request = it->second.request;
  for (const auto& r : request.records) {
    ++stats_.records_acked;
    const Duration wait = sim_.now() - r.created_at;
    m_ack_latency_.observe(wait);
    if (on_record_acked) on_record_acked(r);
  }
  const auto n = request.records.size();
  if (!it->second.awaiting_retry) --in_flight_count_;
  sim_.tracer().end(sim_.now(), it->second.attempt_span);
  sim_.tracer().end(sim_.now(), it->second.span);
  for (auto id : it->second.attempt_ids) request_to_batch_.erase(id);
  batches_.erase(it);
  // A stale entry may linger in retry_order_; try_send() skips it.
  resolve_records(n);
}

void Producer::scan_request_timeouts() {
  std::vector<std::uint64_t> timed_out;
  for (const auto& [batch_id, batch] : batches_) {
    if (!batch.awaiting_retry &&
        sim_.now() - batch.sent_at >= config_.request_timeout) {
      timed_out.push_back(batch_id);
    }
  }
  for (auto batch_id : timed_out) {
    ++stats_.request_timeouts;
    retry_or_fail(batch_id);
  }
  // Requests timing out is how a producer notices a silently dead leader
  // (the socket may stay "established" under TCP backpressure forever).
  if (!timed_out.empty()) {
    maybe_failover();
    try_send();
  }
}

void Producer::retry_or_fail(std::uint64_t batch_id) {
  auto it = batches_.find(batch_id);
  if (it == batches_.end()) return;
  BatchState& batch = it->second;
  if (batch.awaiting_retry) return;  // Already queued (e.g. error response
                                     // racing the timeout scan).

  const bool attempts_left = batch.attempt <= config_.retries;
  const bool within_timeout =
      !batch.request.records.empty() &&
      !record_expired(batch.request.records.front());
  if (!batch.awaiting_retry) --in_flight_count_;
  sim_.tracer().end(sim_.now(), batch.attempt_span);
  batch.attempt_span = 0;

  if (!attempts_left || !within_timeout) {
    for (const auto& r : batch.request.records) {
      ++stats_.records_failed;
      if (on_record_failed) on_record_failed(r);
    }
    const auto n = batch.request.records.size();
    sim_.tracer().end(sim_.now(), batch.span);
    for (auto id : batch.attempt_ids) request_to_batch_.erase(id);
    batches_.erase(it);
    resolve_records(n);
    try_send();
    return;
  }

  ++stats_.requests_retried;
  batch.awaiting_retry = true;
  // Capped exponential backoff with decorrelated jitter: spreads the
  // retries of concurrent batches so a recovering broker is not hit by a
  // synchronized storm.
  const Duration backoff =
      next_retry_backoff(jitter_state_, config_.retry_backoff,
                         batch.prev_backoff, config_.retry_backoff_max);
  batch.prev_backoff = backoff;
  batch.ready_at = sim_.now() + backoff;
  // Keep the retry queue ordered by batch id (== idempotent sequence
  // order). Timeout scans and connection resets discover batches in hash
  // order; retrying a later sequence before an earlier one would let the
  // broker's duplicate check (base_sequence <= last appended) mistake the
  // earlier batch's retry for a duplicate and ack it without appending.
  retry_order_.insert(
      std::lower_bound(retry_order_.begin(), retry_order_.end(), batch_id),
      batch_id);
  retry_timer_.arm(backoff, [this] { try_send(); });
}

void Producer::handle_out_of_order(std::uint64_t batch_id) {
  ++stats_.out_of_order_errors;
  auto it = batches_.find(batch_id);
  if (it == batches_.end()) return;
  // Transient gap: an earlier batch is still unresolved and will fill the
  // gap once its (in-order) retry lands — back off and retry this one.
  const std::int64_t base = it->second.request.base_sequence;
  for (const auto& [id, b] : batches_) {
    if (b.request.base_sequence >= 0 && b.request.base_sequence < base) {
      retry_or_fail(batch_id);
      return;
    }
  }
  // Hard gap: this is the oldest unresolved batch, yet the leader expects
  // an earlier sequence — batches in between were acked and then lost (an
  // unclean election regressed the log), or failed out of the retry budget.
  // A real idempotent producer bumps its epoch and restarts sequencing;
  // model that: new producer identity, every unresolved batch re-sequenced
  // from 0 in order and queued for re-send.
  ++stats_.sequence_epoch_bumps;
  effective_producer_id_ += std::uint64_t{1} << 32;
  sim_.timeline().record(
      sim_.now(), obs::ClusterEventKind::kSequenceEpochBump, -1, partition_,
      static_cast<std::int64_t>(stats_.sequence_epoch_bumps));
  std::vector<std::pair<std::int64_t, std::uint64_t>> order;
  order.reserve(batches_.size());
  for (const auto& [id, b] : batches_) {
    order.emplace_back(b.request.base_sequence, id);
  }
  std::sort(order.begin(), order.end());
  std::int64_t seq = 0;
  for (const auto& [old_base, id] : order) {
    BatchState& b = batches_.at(id);
    b.request.producer_id = effective_producer_id_;
    b.request.base_sequence = seq;
    seq += static_cast<std::int64_t>(b.request.records.size());
    if (!b.awaiting_retry) {
      // In-flight attempts carry the old identity; queue a fresh attempt
      // under the new sequencing (not counted against the retry budget).
      b.awaiting_retry = true;
      --in_flight_count_;
      sim_.tracer().end(sim_.now(), b.attempt_span);
      b.attempt_span = 0;
      b.ready_at = sim_.now();
      retry_order_.insert(
          std::lower_bound(retry_order_.begin(), retry_order_.end(), id),
          id);
    }
  }
  next_sequence_ = seq;
  try_send();
}

void Producer::handle_reset(tcp::Endpoint* endpoint) {
  if (endpoint != active_) return;  // Stale connection from before failover.
  ++stats_.connection_resets;
  // acks=0: whatever sat in the socket is gone and we never know (the
  // at-most-once hazard). acks>=1: every in-flight batch gets retried.
  std::vector<std::uint64_t> in_flight;
  for (const auto& [batch_id, batch] : batches_) {
    if (!batch.awaiting_retry) in_flight.push_back(batch_id);
  }
  for (auto batch_id : in_flight) retry_or_fail(batch_id);

  // A reset is also a failover signal: the leader may have moved while we
  // were blocked on the dead connection.
  maybe_failover();

  if (!reconnect_pending_ && !finished_) {
    reconnect_pending_ = true;
    sim_.after(config_.reconnect_backoff, [this] {
      reconnect_pending_ = false;
      if (finished_ || active_->established() ||
          active_->state() == tcp::Endpoint::State::kSynSent) {
        return;
      }
      active_->connect();
    });
  }
}

void Producer::resolve_records(std::uint64_t count) noexcept {
  assert(unresolved_ >= count);
  unresolved_ -= count;
  maybe_finish();
}

void Producer::maybe_finish() {
  if (finished_ || !source_done_) return;
  if (unresolved_ != 0 || !queue_.empty() || !batches_.empty()) {
    return;
  }
  finished_ = true;
  poll_timer_.cancel();
  linger_timer_.cancel();
  timeout_scan_timer_.cancel();
  expiry_timer_.cancel();
  retry_timer_.cancel();
  if (on_finished) on_finished();
}

void Producer::reconfigure(int batch_size, Duration linger,
                           Duration poll_interval, Duration message_timeout) {
  config_.batch_size = batch_size;
  config_.linger = linger;
  config_.poll_interval = poll_interval;
  config_.message_timeout = message_timeout;
  try_send();
}

}  // namespace ks::kafka
