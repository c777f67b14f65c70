#include "kafka/broker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "obs/profiler.hpp"

namespace ks::kafka {

Broker::Broker(sim::Simulation& sim, Config config)
    : sim_(sim),
      config_(config),
      modulator_(sim, config.regime),
      storage_device_(config.storage),
      isr_scan_timer_(sim),
      metrics_binding_(sim.metrics()) {
  // A regime flip back to Good should immediately resume request service.
  modulator_.on_change([this](sim::Regime) { pump(); });

  auto& m = metrics_binding_;
  const obs::Labels labels{{"broker", std::to_string(config_.id)}};
  m.counter("kafka_broker_produce_requests_total", labels,
            &stats_.produce_requests);
  m.counter("kafka_broker_fetch_requests_total", labels,
            &stats_.fetch_requests);
  m.counter("kafka_broker_records_appended_total", labels,
            &stats_.records_appended);
  m.counter("kafka_broker_appended_bytes_total", labels,
            &stats_.bytes_appended);
  m.counter("kafka_broker_batches_deduplicated_total", labels,
            &stats_.batches_deduplicated);
  m.counter("kafka_broker_isr_shrinks_total", labels, &stats_.isr_shrinks);
  m.counter("kafka_broker_isr_expands_total", labels, &stats_.isr_expands);
  m.counter("kafka_broker_replica_fetches_total", labels,
            &stats_.replica_fetches_served);
  m.counter("kafka_broker_truncated_records_total", labels,
            &stats_.truncated_records);
  m.counter("kafka_broker_log_flushes_total", labels,
            &storage_device_.stats().flushes);
  m.counter("kafka_broker_flushed_bytes_total", labels,
            &storage_device_.stats().flushed_bytes);
  m.counter("kafka_broker_recovery_scans_total", labels,
            &stats_.recovery_scans);
  m.counter("kafka_broker_records_recovered_total", labels,
            &stats_.records_recovered);
  m.counter("kafka_broker_records_discarded_total", labels,
            &stats_.records_discarded);
  m.counter("kafka_broker_corrupt_batches_total", labels,
            &stats_.corrupt_batches);
  m.gauge("kafka_broker_bad_regime", labels,
          [this] { return modulator_.good() ? 0.0 : 1.0; });
  m.gauge("kafka_broker_parked_acks", labels,
          [this] { return static_cast<double>(parked_acks()); });
  m_hw_lag_ = sim.metrics().histogram("kafka_broker_hw_lag_us", labels);
  m_recovery_scan_us_ =
      sim.metrics().histogram("kafka_broker_recovery_scan_us", labels);
  m.gauge("kafka_broker_busy", labels, &busy_);
  m.gauge("kafka_broker_down", labels, &down_);
  // Worst replication lag (leader log end minus slowest ISR member) across
  // the partitions this broker leads.
  m.gauge("kafka_broker_replication_lag_records", labels, [this] {
    std::int64_t lag = 0;
    for (const auto& [id, st] : partitions_) {
      if (!st->leader || !replicated(*st)) continue;
      const std::int64_t leo = st->log->log_end_offset();
      for (const auto& [fid, f] : st->followers) {
        if (f.in_isr) lag = std::max(lag, leo - f.fetched_to);
      }
    }
    return static_cast<double>(lag);
  });
}

void Broker::start() { modulator_.start(); }

std::int64_t Broker::parked_acks() const noexcept {
  std::int64_t parked = 0;
  for (const auto& [id, st] : partitions_) {
    parked += static_cast<std::int64_t>(st->pending_acks.size());
  }
  return parked;
}

void Broker::fail() { down_ = true; }

void Broker::resume() {
  down_ = false;
  pump();
}

std::int64_t Broker::power_loss(bool torn_write) {
  down_ = true;
  powered_off_ = true;
  ++stats_.power_losses;
  std::int64_t dropped = 0;
  for (auto& [pid, st] : partitions_) {
    // Parked acks and fetch sessions die with the process: no response is
    // ever sent (the producer's request simply times out).
    for (auto& p : st->pending_acks) {
      sim_.tracer().end(
          sim_.now(), p.span,
          -static_cast<std::int64_t>(ErrorCode::kNotLeaderForPartition));
    }
    st->pending_acks.clear();
    st->fetch_outstanding = false;
    st->fetch_timer->cancel();
    dropped += st->log->crash_power_loss(sim_.now(), torn_write);
  }
  return dropped;
}

Duration Broker::recover_storage() {
  Duration total = 0;
  for (auto& [pid, st] : partitions_) {
    if (!st->log->durable()) continue;
    RecoveryResult rr;
    st->log->recover_from_storage(sim_.now(), &rr);
    ++stats_.recovery_scans;
    stats_.records_recovered += static_cast<std::uint64_t>(rr.recovered_records);
    stats_.records_discarded += static_cast<std::uint64_t>(rr.discarded_records);
    stats_.torn_tails += rr.torn_tail ? 1 : 0;
    stats_.corrupt_batches += static_cast<std::uint64_t>(rr.corrupt_batches);
    stats_.recovery_scan_time += rr.scan_duration;
    stats_.recovery_prefix_violations += st->log->verify_recovery();
    m_recovery_scan_us_.observe(rr.scan_duration);
    sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kRecoveryScan,
                           config_.id, pid, rr.recovered_records,
                           rr.discarded_records);
    if (rr.torn_tail) {
      sim_.timeline().record(sim_.now(),
                             obs::ClusterEventKind::kTornTailTruncated,
                             config_.id, pid, rr.torn_records,
                             rr.recovered_end);
    }
    if (rr.corrupt_batches > 0) {
      sim_.timeline().record(sim_.now(),
                             obs::ClusterEventKind::kCorruptBatchDropped,
                             config_.id, pid, rr.corrupt_batches,
                             rr.recovered_end);
    }
    total += rr.scan_duration;
  }
  powered_off_ = false;
  return total;
}

bool Broker::corrupt_disk(std::uint64_t pick) {
  // Deterministically spread the flip across the partitions that have
  // anything on disk.
  std::vector<PartitionLog*> durable;
  for (auto& [pid, st] : partitions_) {
    if (st->log->durable() && st->log->storage()->end_offset() > 0) {
      durable.push_back(st->log.get());
    }
  }
  if (durable.empty()) return false;
  auto* log = durable[pick % durable.size()];
  return log->storage()->corrupt_batch(pick / 7u);
}

void Broker::stall_flushes(Duration window) {
  storage_device_.stall(sim_.now() + window);
}

Broker::PartitionState& Broker::state_of(std::int32_t partition) {
  auto& slot = partitions_[partition];
  if (!slot) {
    slot = std::make_unique<PartitionState>();
    slot->log = std::make_unique<PartitionLog>();
    slot->log->enable_storage(&storage_device_);
    slot->leader = true;
    slot->leader_id = config_.id;
    slot->fetch_timer = std::make_unique<sim::Timer>(sim_);
  }
  return *slot;
}

PartitionLog& Broker::create_partition(std::int32_t partition) {
  return *state_of(partition).log;
}

PartitionLog* Broker::partition(std::int32_t partition) {
  auto it = partitions_.find(partition);
  return it == partitions_.end() ? nullptr : it->second->log.get();
}

const PartitionLog* Broker::partition(std::int32_t partition) const {
  auto it = partitions_.find(partition);
  return it == partitions_.end() ? nullptr : it->second->log.get();
}

void Broker::attach(tcp::Endpoint& endpoint) {
  endpoint.set_auto_read(false);
  endpoint.listen();
  connections_.push_back(&endpoint);
  endpoint.on_readable = [this] { pump(); };
}

Duration Broker::service_time(Duration base) const {
  if (!modulator_.good()) {
    return static_cast<Duration>(std::llround(
        static_cast<double>(base) * config_.bad_slowdown));
  }
  return base;
}

void Broker::pump() {
  if (busy_ || down_) return;
  // Round-robin across connections for fairness.
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    auto* endpoint =
        connections_[(next_connection_ + i) % connections_.size()];
    if (auto message = endpoint->read()) {
      next_connection_ = (next_connection_ + i + 1) % connections_.size();
      busy_ = true;
      process(endpoint, std::move(*message));
      return;
    }
  }
}

void Broker::process(tcp::Endpoint* endpoint,
                     tcp::Endpoint::ReadMessage message) {
  const auto* frame = static_cast<const Frame*>(message.payload.get());
  assert(frame != nullptr);

  if (std::get_if<ProduceRequest>(&frame->body) != nullptr) {
    serve_produce(endpoint, message.payload, message.size);
    return;
  }
  if (const auto* req = std::get_if<FetchRequest>(&frame->body)) {
    serve_fetch(endpoint, *req);
    return;
  }

  // Responses never arrive at a broker; drop unknown frames defensively.
  busy_ = false;
  pump();
}

int Broker::isr_size(const PartitionState& st) const {
  int size = 1;  // The leader itself.
  for (const auto& [id, f] : st.followers) {
    if (f.in_isr) ++size;
  }
  return size;
}

void Broker::serve_produce(tcp::Endpoint* endpoint,
                           std::shared_ptr<const void> payload,
                           Bytes wire_size) {
  const Duration base = config_.request_overhead +
                        static_cast<Duration>(std::llround(
                            static_cast<double>(wire_size) *
                            config_.append_per_byte_us));
  const Duration d = service_time(base);
  // broker.append covers the whole service (parse + append + HW check),
  // parented on the producer attempt's span carried in the request.
  const auto& req =
      std::get<ProduceRequest>(static_cast<const Frame*>(payload.get())->body);
  const obs::SpanId append_span = sim_.tracer().child(
      sim_.now(), obs::SpanKind::kBrokerAppend, obs::broker_track(config_.id),
      req.trace_span, static_cast<std::int64_t>(req.records.size()));
  // Copy the request shared_ptr into the completion so the records stay
  // alive through the service delay.
  sim_.after(d, [this, endpoint, append_span, payload = std::move(payload)] {
    if (powered_off_) {
      // The power went out mid-service: the request dies with the process
      // (unlike fail()'s state-preserving fail-stop, which lets in-flight
      // work complete against the intact in-memory log).
      busy_ = false;
      return;
    }
    obs::ProfScope prof(obs::ProfKey::kBrokerProduce);
    const auto& request =
        std::get<ProduceRequest>(static_cast<const Frame*>(payload.get())->body);
    ++stats_.produce_requests;
    auto& st = state_of(request.partition);

    const auto respond = [&](ErrorCode error, std::int64_t base_offset) {
      if (request.acks == Acks::kNone) return;
      ProduceResponse response;
      response.request_id = request.id;
      response.partition = request.partition;
      response.error = error;
      response.base_offset = base_offset;
      const Bytes wire = response.wire_size();
      endpoint->send(tcp::AppMessage{wire, make_frame(std::move(response))});
    };

    if (replicated(st) && !st.leader) {
      ++stats_.not_leader_responses;
      respond(ErrorCode::kNotLeaderForPartition, -1);
      sim_.tracer().end(
          sim_.now(), append_span,
          -static_cast<std::int64_t>(ErrorCode::kNotLeaderForPartition));
      busy_ = false;
      pump();
      return;
    }
    if (replicated(st) && request.acks == Acks::kAll &&
        isr_size(st) < st.min_insync) {
      // Kafka rejects before appending: the write cannot currently satisfy
      // min.insync.replicas, so the producer must retry later.
      ++stats_.not_enough_replicas;
      respond(ErrorCode::kNotEnoughReplicas, -1);
      sim_.tracer().end(
          sim_.now(), append_span,
          -static_cast<std::int64_t>(ErrorCode::kNotEnoughReplicas));
      busy_ = false;
      pump();
      return;
    }

    auto& log = *st.log;
    const auto result =
        log.append(request.records, sim_.now(), request.producer_id,
                   request.base_sequence, st.epoch);
    if (result.error == ErrorCode::kOutOfOrderSequence) {
      // Sequence gap: nothing was appended; tell the producer to retry the
      // missing earlier batch first (or bump its epoch if it cannot).
      ++stats_.out_of_order_rejections;
      respond(ErrorCode::kOutOfOrderSequence, -1);
      sim_.tracer().end(
          sim_.now(), append_span,
          -static_cast<std::int64_t>(ErrorCode::kOutOfOrderSequence));
      busy_ = false;
      pump();
      return;
    }
    if (result.deduplicated) {
      ++stats_.batches_deduplicated;
    } else {
      stats_.records_appended += request.records.size();
      for (const auto& r : request.records) {
        stats_.bytes_appended += r.wire_size();
        if (on_append) on_append(request.partition, r, result.base_offset);
      }
    }
    if (replicated(st)) {
      maybe_advance_high_watermark(request.partition, st);
    }

    if (request.acks == Acks::kAll && replicated(st)) {
      // acks=all: the response waits for the high watermark to pass the
      // batch (every ISR member holds it). A deduplicated batch is already
      // in the log somewhere below the current end; waiting for the end is
      // a safe (conservative) commit point for it.
      const std::int64_t upto =
          result.deduplicated
              ? log.log_end_offset()
              : result.base_offset +
                    static_cast<std::int64_t>(request.records.size());
      if (log.high_watermark() >= upto) {
        respond(result.deduplicated ? ErrorCode::kDuplicateSequence
                                    : ErrorCode::kNone,
                result.base_offset);
      } else {
        PendingAck pending;
        pending.upto = upto;
        pending.endpoint = endpoint;
        pending.response.request_id = request.id;
        pending.response.partition = request.partition;
        pending.response.error = result.deduplicated
                                     ? ErrorCode::kDuplicateSequence
                                     : ErrorCode::kNone;
        pending.response.base_offset = result.base_offset;
        // commit_wait must begin while the append span is still open so it
        // inherits the traced key.
        pending.span = sim_.tracer().child(sim_.now(),
                                           obs::SpanKind::kCommitWait,
                                           obs::broker_track(config_.id),
                                           append_span, upto);
        st.pending_acks.push_back(pending);
      }
    } else {
      respond(result.deduplicated ? ErrorCode::kDuplicateSequence
                                  : ErrorCode::kNone,
              result.base_offset);
    }
    sim_.tracer().end(sim_.now(), append_span, result.base_offset);
    const Duration fsync = log.take_flush_cost();
    if (fsync > 0) {
      // flush.messages / flush.ms fired: the log flush blocks the request
      // thread before the next request is served. The durability point is
      // the append above (batches are marked flushed there), so an ack
      // already sent can never precede durability.
      sim_.after(fsync, [this] {
        busy_ = false;
        pump();
      });
    } else {
      busy_ = false;
      pump();
    }
  });
}

FetchResponse Broker::build_fetch_response(const FetchRequest& request,
                                           Bytes max_bytes) {
  obs::ProfScope prof(obs::ProfKey::kBrokerFetch);
  FetchResponse response;
  response.request_id = request.id;
  response.partition = request.partition;

  auto it = partitions_.find(request.partition);
  PartitionState* st = it == partitions_.end() ? nullptr : it->second.get();
  if (st == nullptr || !st->log) {
    if (request.replica_id >= 0) {
      response.error = ErrorCode::kNotLeaderForPartition;
    }
    return response;  // Unknown partition: empty log for consumers.
  }
  auto& log = *st->log;
  response.log_end_offset = log.log_end_offset();
  response.high_watermark = log.high_watermark();

  if (replicated(*st) && !st->leader) {
    response.error = ErrorCode::kNotLeaderForPartition;
    return response;
  }

  // Replica fetches read to the log end; consumers only to the committed
  // high watermark (Kafka consumers never see uncommitted records).
  const std::int64_t visible_end = request.replica_id >= 0
                                       ? log.log_end_offset()
                                       : log.high_watermark();
  if (request.offset > visible_end) {
    response.error = ErrorCode::kOffsetOutOfRange;
    return response;
  }
  if (request.replica_id >= 0 && request.offset > 0) {
    // Divergence check: the follower's last entry must match ours at the
    // same offset (epoch fence). On mismatch the follower truncates one
    // entry and retries, walking back to the divergence point.
    const auto& prev = log.entries()[static_cast<std::size_t>(
        request.offset - 1)];
    if (prev.leader_epoch != request.last_epoch ||
        prev.key != request.last_key) {
      response.error = ErrorCode::kDivergentLog;
      return response;
    }
  }

  Bytes bytes = kFetchResponseOverhead;
  for (const auto& e : log.read(request.offset,
                                static_cast<std::size_t>(request.max_records))) {
    if (e.offset >= visible_end) break;
    bytes += kRecordOverhead + e.value_size;
    if (bytes > max_bytes && !response.records.empty()) {
      break;  // fetch.max.bytes: the fetcher asks again from here.
    }
    response.records.push_back(FetchedRecord{e.offset, e.key, e.value_size,
                                             e.append_time, e.leader_epoch,
                                             e.producer_id, e.sequence});
  }

  if (request.replica_id >= 0) {
    ++stats_.replica_fetches_served;
    auto fit = st->followers.find(request.replica_id);
    if (fit != st->followers.end()) {
      auto& f = fit->second;
      f.fetched_to = request.offset;
      f.fetched_once = true;
      if (f.fetched_to >= log.log_end_offset()) {
        f.caught_up_at = sim_.now();
        if (!f.in_isr) {
          // Caught back up to the log end: rejoin the ISR.
          f.in_isr = true;
          ++stats_.isr_expands;
          publish_isr(request.partition, *st, /*shrink=*/false,
                      request.replica_id);
        }
      }
      maybe_advance_high_watermark(request.partition, *st);
      response.high_watermark = log.high_watermark();
    }
  }
  return response;
}

void Broker::serve_fetch(tcp::Endpoint* endpoint,
                         const FetchRequest& request) {
  const obs::SpanId fetch_span = sim_.tracer().child(
      sim_.now(), obs::SpanKind::kBrokerFetch, obs::broker_track(config_.id),
      request.trace_span, request.offset);
  // Cap the response to what the socket can actually take: an all-or-nothing
  // send of a response larger than the free send-buffer space would be
  // rejected and silently lost, leaving the fetcher to time out forever.
  // A real broker's socket write blocks/partials instead; clamping the batch
  // models that (the fetcher simply asks again from where the response ends).
  const Bytes budget =
      std::min<Bytes>(config_.fetch_max_bytes, endpoint->send_buffer_free());
  FetchResponse response = build_fetch_response(request, budget);
  const Bytes wire = response.wire_size();
  const Duration base =
      config_.fetch_overhead +
      static_cast<Duration>(std::llround(static_cast<double>(wire) *
                                         config_.fetch_per_byte_us));
  const Duration d = service_time(base);
  // The completion holds the built frame, which keeps it within
  // sim::Callback's inline storage.
  sim_.after(d, [this, endpoint, fetch_span, wire,
                 frame = make_frame(std::move(response))]() mutable {
    if (powered_off_) {
      busy_ = false;
      return;
    }
    ++stats_.fetch_requests;
    sim_.tracer().end(
        sim_.now(), fetch_span,
        static_cast<std::int64_t>(
            std::get<FetchResponse>(frame->body).records.size()));
    endpoint->send(tcp::AppMessage{wire, std::move(frame)});
    busy_ = false;
    pump();
  });
}

// ---- replication: leader side ---------------------------------------------

void Broker::maybe_advance_high_watermark(std::int32_t partition,
                                          PartitionState& st) {
  if (!st.leader || !replicated(st)) return;
  std::int64_t min_leo = st.log->log_end_offset();
  for (const auto& [id, f] : st.followers) {
    if (f.in_isr) min_leo = std::min(min_leo, f.fetched_to);
  }
  const std::int64_t before = st.log->high_watermark();
  st.log->advance_high_watermark(min_leo);
  const std::int64_t hw = st.log->high_watermark();
  if (hw != before) {
    // Commit latency of the newly committed frontier record: append -> HW.
    const auto& entries = st.log->entries();
    if (hw > 0 && static_cast<std::size_t>(hw) <= entries.size()) {
      m_hw_lag_.observe(
          sim_.now() - entries[static_cast<std::size_t>(hw - 1)].append_time);
    }
    if (on_high_watermark) on_high_watermark(partition, hw);
    flush_pending_acks(st);
  }
}

void Broker::flush_pending_acks(PartitionState& st) {
  const std::int64_t hw = st.log->high_watermark();
  auto ready = [hw](const PendingAck& p) { return p.upto <= hw; };
  for (auto& p : st.pending_acks) {
    if (!ready(p)) continue;
    sim_.tracer().end(sim_.now(), p.span, hw);
    const Bytes wire = p.response.wire_size();
    p.endpoint->send(tcp::AppMessage{wire, make_frame(p.response)});
  }
  st.pending_acks.erase(
      std::remove_if(st.pending_acks.begin(), st.pending_acks.end(), ready),
      st.pending_acks.end());
}

void Broker::fail_pending_acks(PartitionState& st, ErrorCode error) {
  for (auto& p : st.pending_acks) {
    p.response.error = error;
    p.response.base_offset = -1;
    sim_.tracer().end(sim_.now(), p.span, -static_cast<std::int64_t>(error));
    const Bytes wire = p.response.wire_size();
    p.endpoint->send(tcp::AppMessage{wire, make_frame(p.response)});
  }
  st.pending_acks.clear();
}

void Broker::publish_isr(std::int32_t partition, const PartitionState& st,
                         bool shrink, int subject_broker) {
  std::vector<int> isr{config_.id};
  for (const auto& [id, f] : st.followers) {
    if (f.in_isr) isr.push_back(id);
  }
  std::sort(isr.begin(), isr.end());
  sim_.timeline().record(
      sim_.now(),
      shrink ? obs::ClusterEventKind::kIsrShrink
             : obs::ClusterEventKind::kIsrExpand,
      subject_broker, partition, static_cast<std::int64_t>(isr.size()));
  if (on_isr_change) on_isr_change(partition, isr, shrink);
}

void Broker::arm_isr_scan() {
  if (isr_scan_armed_) return;
  isr_scan_armed_ = true;
  isr_scan_timer_.arm(std::max<Duration>(config_.replica_lag_time_max / 2,
                                         millis(10)),
                      [this] {
                        isr_scan_armed_ = false;
                        scan_isr_lag();
                      });
}

void Broker::scan_isr_lag() {
  if (down_) return;
  bool leads_replicated = false;
  for (auto& [partition, st] : partitions_) {
    if (!st->leader || !replicated(*st)) continue;
    leads_replicated = true;
    bool shrunk = false;
    for (auto& [id, f] : st->followers) {
      if (!f.in_isr) continue;
      const bool behind = f.fetched_to < st->log->log_end_offset();
      if (behind &&
          sim_.now() - f.caught_up_at >= config_.replica_lag_time_max) {
        // replica.lag.time.max exceeded: evict from the ISR.
        f.in_isr = false;
        ++stats_.isr_shrinks;
        publish_isr(partition, *st, /*shrink=*/true, id);
        shrunk = true;
      }
    }
    if (shrunk) maybe_advance_high_watermark(partition, *st);
  }
  if (leads_replicated) arm_isr_scan();
}

void Broker::become_leader(std::int32_t partition, std::int32_t epoch,
                           const std::vector<int>& replicas,
                           const std::vector<int>& isr,
                           int min_insync_replicas) {
  auto& st = state_of(partition);
  st.log->enable_replication();
  st.leader = true;
  st.leader_id = config_.id;
  st.epoch = epoch;
  st.min_insync = min_insync_replicas;
  st.replicas = replicas;
  st.fetch_outstanding = false;
  st.fetch_timer->cancel();
  st.followers.clear();
  for (int r : replicas) {
    if (r == config_.id) continue;
    FollowerProgress f;
    f.caught_up_at = sim_.now();
    f.in_isr = std::find(isr.begin(), isr.end(), r) != isr.end();
    st.followers.emplace(r, f);
  }
  arm_isr_scan();
}

void Broker::become_follower(std::int32_t partition, int leader_id,
                             std::int32_t epoch) {
  auto& st = state_of(partition);
  st.log->enable_replication();
  const bool was_leader = st.leader;
  st.leader = false;
  st.leader_id = leader_id;
  st.epoch = epoch;
  st.followers.clear();
  st.fetch_outstanding = false;
  st.fetch_timer->cancel();
  if (was_leader) {
    // Any produce still parked for the high watermark can no longer be
    // acknowledged by us; tell the producer to go find the new leader.
    fail_pending_acks(st, ErrorCode::kNotLeaderForPartition);
  }
  // Follower reconciliation: drop the uncommitted tail, then re-fetch from
  // the leader (divergences are resolved by the fingerprint walk-back).
  const std::int64_t before = st.log->log_end_offset();
  st.log->truncate_to(st.log->high_watermark());
  if (st.log->log_end_offset() != before) {
    ++stats_.follower_truncations;
    stats_.truncated_records +=
        static_cast<std::uint64_t>(before - st.log->log_end_offset());
    sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kTruncation,
                           config_.id, partition,
                           before - st.log->log_end_offset(),
                           st.log->log_end_offset());
  }
  if (leader_id >= 0 && leader_id != config_.id && !down_) {
    schedule_follower_fetch(partition, 0);
  }
}

void Broker::controller_remove_from_isr(std::int32_t partition,
                                        int broker_id) {
  auto it = partitions_.find(partition);
  if (it == partitions_.end() || !it->second->leader) return;
  auto& st = *it->second;
  auto fit = st.followers.find(broker_id);
  if (fit == st.followers.end() || !fit->second.in_isr) return;
  fit->second.in_isr = false;
  ++stats_.isr_shrinks;
  publish_isr(partition, st, /*shrink=*/true, broker_id);
  maybe_advance_high_watermark(partition, st);
}

bool Broker::is_leader(std::int32_t partition) const {
  auto it = partitions_.find(partition);
  return it != partitions_.end() && it->second->leader;
}

std::vector<int> Broker::isr_of(std::int32_t partition) const {
  std::vector<int> isr;
  auto it = partitions_.find(partition);
  if (it == partitions_.end() || !it->second->leader) return isr;
  isr.push_back(config_.id);
  for (const auto& [id, f] : it->second->followers) {
    if (f.in_isr) isr.push_back(id);
  }
  std::sort(isr.begin(), isr.end());
  return isr;
}

// ---- replication: follower side -------------------------------------------

void Broker::set_peer(int broker_id, tcp::Endpoint* endpoint) {
  peers_[broker_id] = endpoint;
  endpoint->on_message = [this, broker_id](
                             std::shared_ptr<const void> payload) {
    handle_peer_frame(broker_id, std::move(payload));
  };
  endpoint->on_connected = [this, broker_id] {
    peer_reconnect_pending_[broker_id] = false;
    for (auto& [partition, st] : partitions_) {
      if (!st->leader && st->leader_id == broker_id) {
        follower_fetch(partition);
      }
    }
  };
  endpoint->on_reset = [this, broker_id] { handle_peer_reset(broker_id); };
}

void Broker::schedule_follower_fetch(std::int32_t partition, Duration delay) {
  auto it = partitions_.find(partition);
  if (it == partitions_.end()) return;
  it->second->fetch_timer->arm(delay,
                               [this, partition] { follower_fetch(partition); });
}

void Broker::follower_fetch(std::int32_t partition) {
  if (down_) return;
  auto it = partitions_.find(partition);
  if (it == partitions_.end()) return;
  auto& st = *it->second;
  if (st.leader || st.leader_id < 0 || st.leader_id == config_.id) return;
  if (st.fetch_outstanding) return;
  auto pit = peers_.find(st.leader_id);
  if (pit == peers_.end()) return;
  tcp::Endpoint* peer = pit->second;

  if (!peer->established()) {
    if (peer->state() == tcp::Endpoint::State::kSynSent) return;  // In flight.
    auto& pending = peer_reconnect_pending_[st.leader_id];
    if (pending) return;
    pending = true;
    sim_.after(config_.replica_reconnect_backoff,
               [this, leader = st.leader_id] {
                 peer_reconnect_pending_[leader] = false;
                 if (down_) return;
                 auto p = peers_.find(leader);
                 if (p == peers_.end() || p->second->established() ||
                     p->second->state() == tcp::Endpoint::State::kSynSent) {
                   return;
                 }
                 p->second->connect();
               });
    return;
  }

  FetchRequest req;
  req.id = next_replica_request_id_++;
  req.partition = partition;
  req.offset = st.log->log_end_offset();
  req.max_records = 500;
  req.replica_id = config_.id;
  if (req.offset > 0) {
    const auto& last = st.log->entries().back();
    req.last_epoch = last.leader_epoch;
    req.last_key = last.key;
  }
  const Bytes wire = req.wire_size();
  const std::uint64_t request_id = req.id;
  if (!peer->send(tcp::AppMessage{wire, make_frame(std::move(req))})) {
    schedule_follower_fetch(partition, config_.replica_fetch_interval);
    return;
  }
  st.fetch_outstanding = true;
  st.fetch_request_id = request_id;
  st.fetch_timer->arm(config_.replica_fetch_timeout, [this, partition] {
    auto it2 = partitions_.find(partition);
    if (it2 == partitions_.end()) return;
    it2->second->fetch_outstanding = false;  // Response lost; ask again.
    follower_fetch(partition);
  });
}

void Broker::handle_peer_frame(int peer_id,
                               std::shared_ptr<const void> payload) {
  (void)peer_id;
  const auto* frame = static_cast<const Frame*>(payload.get());
  if (const auto* resp = std::get_if<FetchResponse>(&frame->body)) {
    handle_replica_fetch_response(*resp);
  }
}

void Broker::handle_replica_fetch_response(const FetchResponse& response) {
  if (down_) return;
  auto it = partitions_.find(response.partition);
  if (it == partitions_.end()) return;
  auto& st = *it->second;
  if (st.leader) return;
  if (!st.fetch_outstanding || response.request_id != st.fetch_request_id) {
    return;  // Stale response from a previous session.
  }
  st.fetch_outstanding = false;
  st.fetch_timer->cancel();

  switch (response.error) {
    case ErrorCode::kNotLeaderForPartition:
      // Our leader view is stale; the controller will re-point us. Poll
      // again lazily in case it already has.
      schedule_follower_fetch(response.partition,
                              config_.replica_fetch_timeout);
      return;
    case ErrorCode::kOffsetOutOfRange: {
      // The leader's log is shorter than ours (post-unclean-election):
      // truncate to its end and continue from there.
      ++stats_.follower_truncations;
      const std::int64_t before = st.log->log_end_offset();
      st.log->truncate_to(response.log_end_offset);
      stats_.truncated_records +=
          static_cast<std::uint64_t>(before - st.log->log_end_offset());
      sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kTruncation,
                             config_.id, response.partition,
                             before - st.log->log_end_offset(),
                             st.log->log_end_offset());
      follower_fetch(response.partition);
      return;
    }
    case ErrorCode::kDivergentLog:
      // Walk back one entry per round trip until the fingerprint matches.
      ++stats_.follower_truncations;
      ++stats_.truncated_records;
      st.log->truncate_to(st.log->log_end_offset() - 1);
      sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kTruncation,
                             config_.id, response.partition, 1,
                             st.log->log_end_offset());
      follower_fetch(response.partition);
      return;
    default:
      break;
  }

  auto& tracer = sim_.tracer();
  for (const auto& r : response.records) {
    if (r.offset != st.log->log_end_offset()) continue;  // Stale overlap.
    st.log->append_replicated(LogEntry{r.offset, r.key, r.value_size,
                                       r.append_time, r.leader_epoch,
                                       r.producer_id, r.sequence},
                              sim_.now());
    ++stats_.replica_records_appended;
    // Instant span marking the record's replication onto this follower.
    tracer.end(sim_.now(),
               tracer.begin(sim_.now(), obs::SpanKind::kReplicaAppend,
                            obs::broker_track(config_.id), 0, r.key,
                            r.offset));
  }
  st.log->advance_high_watermark(response.high_watermark);
  // Follower flushes happen off the request thread; the cost is absorbed
  // by the fetch cadence rather than charged to a service queue.
  st.log->take_flush_cost();

  if (!response.records.empty()) {
    follower_fetch(response.partition);
  } else {
    schedule_follower_fetch(response.partition,
                            config_.replica_fetch_interval);
  }
}

void Broker::handle_peer_reset(int peer_id) {
  bool follows = false;
  for (auto& [partition, st] : partitions_) {
    if (!st->leader && st->leader_id == peer_id) {
      follows = true;
      st->fetch_outstanding = false;
      st->fetch_timer->cancel();
      if (!down_) {
        schedule_follower_fetch(partition,
                                config_.replica_reconnect_backoff);
      }
    }
  }
  (void)follows;
}

}  // namespace ks::kafka
