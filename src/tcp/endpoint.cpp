#include "tcp/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "obs/profiler.hpp"

namespace ks::tcp {

Endpoint::Endpoint(sim::Simulation& sim, Config config, net::Link& tx,
                   std::string name)
    : sim_(sim),
      config_(config),
      tx_(tx),
      name_(std::move(name)),
      log_(name_, sim.clock_ptr()),
      rto_timer_(sim),
      persist_timer_(sim),
      syn_timer_(sim),
      metrics_binding_(sim.metrics()) {
  fresh_epoch_state();

  auto& m = metrics_binding_;
  const obs::Labels labels{{"conn", name_}};
  m.counter("tcp_segments_sent_total", labels, &stats_.segments_sent);
  m.counter("tcp_retransmissions_total", labels, &stats_.retransmissions);
  m.counter("tcp_fast_retransmits_total", labels, &stats_.fast_retransmits);
  m.counter("tcp_rto_events_total", labels, &stats_.rto_events);
  m.counter("tcp_resets_total", labels, &stats_.resets);
  m.counter("tcp_acked_bytes_total", labels, &stats_.bytes_acked);
  m.gauge("tcp_cwnd_bytes", labels,
          [this] { return established() ? cwnd_ : 0.0; });
  m.gauge("tcp_outstanding_bytes", labels,
          [this] { return static_cast<double>(bytes_outstanding()); });
}

void Endpoint::fresh_epoch_state() {
  // Anything still buffered dies with the epoch; close its flight spans at
  // the reset point so the timeline shows where the bytes were lost.
  for (const auto& m : out_msgs_) sim_.tracer().end(sim_.now(), m.flight_span);
  for (const auto& m : in_msgs_) sim_.tracer().end(sim_.now(), m.flight_span);
  snd_una_ = snd_nxt_ = stream_end_ = 0;
  out_msgs_.clear();
  peer_sacked_.clear();
  avg_segment_bytes_ = static_cast<double>(config_.mss);
  cwnd_ = static_cast<double>(config_.initial_cwnd_segments) *
          avg_segment_bytes_;
  ssthresh_ = std::numeric_limits<double>::max();
  dupacks_ = 0;
  consecutive_rtos_ = 0;
  rto_ = config_.rto_initial;
  srtt_ = 0;
  rttvar_ = 0;
  rtt_sample_active_ = false;
  rcv_nxt_ = 0;
  ooo_ranges_.clear();
  in_msgs_.clear();
  ready_.clear();
  unread_bytes_ = 0;
  last_delivered_end_ = 0;
  last_advertised_wnd_ = config_.receive_window;
  peer_wnd_ = config_.receive_window;  // Assume symmetric default until told.
  rto_timer_.cancel();
  persist_timer_.cancel();
  syn_timer_.cancel();
}

void Endpoint::connect() {
  ++epoch_;
  fresh_epoch_state();
  state_ = State::kSynSent;
  syn_tries_ = 0;
  send_syn();
}

void Endpoint::listen() {
  fresh_epoch_state();
  state_ = State::kListen;
}

void Endpoint::close() {
  state_ = State::kClosed;
  rto_timer_.cancel();
  syn_timer_.cancel();
}

bool Endpoint::send(AppMessage message) {
  assert(message.size > 0);
  if (state_ == State::kDead || state_ == State::kClosed ||
      state_ == State::kListen) {
    return false;
  }
  if (send_buffer_free() < message.size) return false;
  stream_end_ += message.size;
  const auto flight = sim_.tracer().child(
      sim_.now(), obs::SpanKind::kTcpFlight, obs::kTrackNet, message.span);
  out_msgs_.push_back(
      StreamMessage{stream_end_, std::move(message.payload), flight});
  ++stats_.messages_sent;
  maybe_send();
  return true;
}

Bytes Endpoint::send_buffer_free() const noexcept {
  return config_.send_buffer - (stream_end_ - snd_una_);
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

void Endpoint::maybe_send() {
  if (state_ != State::kEstablished) return;
  const auto window =
      static_cast<Bytes>(std::min(cwnd_, static_cast<double>(peer_wnd_)));
  while (snd_nxt_ < stream_end_) {
    const Bytes in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= window) break;
    Bytes len = std::min({config_.mss, stream_end_ - snd_nxt_,
                          window - in_flight});
    if (const auto* next = out_msgs_.first_ending_after(snd_nxt_)) {
      len = std::min(len, next->end - snd_nxt_);
    }
    if (len <= 0) break;
    send_segment(snd_nxt_, len, /*is_retransmission=*/false);
    snd_nxt_ += len;
  }
  // Zero-window deadlock avoidance: probe periodically while the peer
  // advertises no space and we still have data to move.
  if (peer_wnd_ <= 0 && snd_nxt_ < stream_end_ && !persist_timer_.armed()) {
    arm_persist();
  }
}

void Endpoint::arm_persist() {
  persist_timer_.arm(config_.persist_interval, [this] { on_persist(); });
}

void Endpoint::on_persist() {
  if (state_ != State::kEstablished) return;
  if (peer_wnd_ > 0 || snd_nxt_ >= stream_end_) return;
  // Probe: header-only segment the receiver must answer with a window ack.
  auto seg = std::make_shared<Segment>();
  seg->flags = kFlagAck | kFlagProbe;
  seg->epoch = epoch_;
  seg->seq = snd_nxt_;
  seg->ack = rcv_nxt_;
  seg->wnd = advertised_window();
  ++stats_.segments_sent;
  net::Packet packet;
  packet.size = config_.header_overhead;
  packet.payload = std::move(seg);
  tx_.send(std::move(packet));
  arm_persist();
}

void Endpoint::send_segment(StreamOffset seq, Bytes len,
                            bool is_retransmission) {
  auto seg = std::make_shared<Segment>();
  seg->flags = kFlagAck;
  seg->epoch = epoch_;
  seg->seq = seq;
  seg->len = len;
  seg->ack = rcv_nxt_;
  seg->wnd = advertised_window();
  last_advertised_wnd_ = seg->wnd;
  fill_sack_blocks(*seg);
  // Segments are cut at message boundaries, so a message ending inside
  // (seq, seq + len] ends exactly at seq + len.
  const auto* m = out_msgs_.first_ending_after(seq);
  if (m != nullptr && m->end <= seq + len) {
    assert(m->end == seq + len);
    seg->message_end = MessageEnd{m->payload, m->flight_span};
  }

  ++stats_.segments_sent;
  ++stats_.data_segments_sent;
  avg_segment_bytes_ =
      0.875 * avg_segment_bytes_ +
      0.125 * static_cast<double>(config_.header_overhead + len);
  if (is_retransmission) {
    ++stats_.retransmissions;
    // Karn's rule: a retransmitted range poisons any RTT sample within it.
    if (rtt_sample_active_ && rtt_sample_end_ > seq &&
        rtt_sample_end_ <= seq + len) {
      rtt_sample_retransmitted_ = true;
    }
  } else if (!rtt_sample_active_) {
    rtt_sample_active_ = true;
    rtt_sample_end_ = seq + len;
    rtt_sample_time_ = sim_.now();
    rtt_sample_retransmitted_ = false;
  }

  net::Packet packet;
  packet.size = config_.header_overhead + len;
  packet.payload = std::move(seg);
  tx_.send(std::move(packet));

  if (!rto_timer_.armed()) arm_rto();
}

void Endpoint::retransmit_lost() {
  // Resend the unacked window, skipping ranges the peer has SACKed.
  StreamOffset seq = snd_una_;
  while (seq < snd_nxt_) {
    // Skip a SACKed range covering seq, if any.
    const auto it = peer_sacked_.first_starting_after(seq);
    if (it != peer_sacked_.begin() && std::prev(it)->end > seq) {
      seq = std::prev(it)->end;
      continue;
    }
    Bytes len = std::min(config_.mss, snd_nxt_ - seq);
    if (it != peer_sacked_.end()) {
      len = std::min(len, it->start - seq);  // Stop at the next SACK block.
    }
    if (const auto* next = out_msgs_.first_ending_after(seq)) {
      len = std::min(len, next->end - seq);
    }
    if (len <= 0) break;
    send_segment(seq, len, /*is_retransmission=*/true);
    seq += len;
  }
}

void Endpoint::arm_rto() {
  rto_timer_.arm(rto_, [this] { on_rto(); });
}

void Endpoint::on_rto() {
  if (state_ != State::kEstablished) return;
  if (snd_una_ >= snd_nxt_) return;  // Nothing outstanding; stale timer.
  ++stats_.rto_events;
  ++consecutive_rtos_;
  if (consecutive_rtos_ > config_.max_consecutive_rtos) {
    log_.debug("connection reset after %d consecutive RTOs",
               consecutive_rtos_);
    enter_reset();
    return;
  }
  const Bytes in_flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max(static_cast<double>(in_flight) / 2.0,
                       2.0 * avg_segment_bytes_);
  cwnd_ = std::max(avg_segment_bytes_,
                   config_.cwnd_floor_segments * avg_segment_bytes_ / 2.0);
  rto_ = std::min(rto_ * 2, config_.rto_max);
  dupacks_ = 0;
  retransmit_lost();
  arm_rto();
}

void Endpoint::update_rtt(Duration sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const Duration err = std::abs(srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, config_.rto_min, config_.rto_max);
}

void Endpoint::handle_sack(const Segment& seg) {
  for (const auto& block : seg.sack_blocks()) {
    if (block.end <= snd_una_ || block.start >= snd_nxt_) continue;
    peer_sacked_.add(std::max(block.start, snd_una_), block.end);
  }
}

void Endpoint::handle_ack(StreamOffset ack) {
  if (ack > snd_una_) {
    const Bytes acked = ack - snd_una_;
    snd_una_ = ack;
    stats_.bytes_acked += acked;
    while (!out_msgs_.empty() && out_msgs_.front().end <= ack) {
      out_msgs_.pop_front();
    }
    peer_sacked_.trim_below(ack);
    dupacks_ = 0;
    consecutive_rtos_ = 0;

    if (rtt_sample_active_ && ack >= rtt_sample_end_) {
      if (!rtt_sample_retransmitted_) {
        update_rtt(sim_.now() - rtt_sample_time_);
      }
      rtt_sample_active_ = false;
    }

    // Congestion control in packet units (Linux-style): slow start grows
    // one segment per ack; congestion avoidance one segment per window.
    if (cwnd_ < ssthresh_) {
      cwnd_ += avg_segment_bytes_;
    } else {
      cwnd_ += avg_segment_bytes_ * avg_segment_bytes_ / cwnd_;
    }

    if (snd_una_ >= snd_nxt_) {
      rto_timer_.cancel();
    } else {
      arm_rto();
    }

    maybe_send();
    if (on_writable) on_writable();
  } else if (ack == snd_una_ && snd_nxt_ > snd_una_) {
    ++dupacks_;
    if (dupacks_ == config_.dupack_threshold) {
      ++stats_.fast_retransmits;
      const Bytes in_flight = snd_nxt_ - snd_una_;
      ssthresh_ = std::max({static_cast<double>(in_flight) / 2.0,
                            2.0 * avg_segment_bytes_,
                            config_.cwnd_floor_segments * avg_segment_bytes_});
      cwnd_ = ssthresh_;
      retransmit_lost();
    }
  }
}

void Endpoint::enter_reset() {
  state_ = State::kDead;
  rto_timer_.cancel();
  syn_timer_.cancel();
  ++stats_.resets;
  sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kConnectionReset,
                         -1, -1, 0, 0, name_);
  if (on_reset) on_reset();
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

void Endpoint::handle_data(const Segment& seg) {
  const StreamOffset start = seg.seq;
  const StreamOffset end = seg.seq + seg.len;

  // Stash message metadata; duplicates from retransmissions are no-ops and
  // anything at or below the delivery watermark was already handed up.
  if (seg.message_end && end > last_delivered_end_) {
    in_msgs_.insert(StreamMessage{end, seg.message_end->payload,
                                  seg.message_end->flight_span});
  }

  if (end > rcv_nxt_) {
    if (start <= rcv_nxt_) {
      // In order: advance without a scoreboard entry, then over any
      // out-of-order ranges the new bytes reach.
      rcv_nxt_ = end;
      while (!ooo_ranges_.empty() && ooo_ranges_.front().start <= rcv_nxt_) {
        rcv_nxt_ = std::max(rcv_nxt_, ooo_ranges_.front().end);
        ooo_ranges_.pop_front();
      }
    } else {
      ooo_ranges_.add(start, end);
    }
    deliver_ready_messages();
  }

  // Acknowledge: piggyback on data if any flows now, else send a pure ack.
  const std::uint64_t sent_before = stats_.data_segments_sent;
  maybe_send();
  if (stats_.data_segments_sent == sent_before) send_pure_ack();
}

void Endpoint::deliver_ready_messages() {
  bool was_empty = ready_.empty();
  while (!in_msgs_.empty() && in_msgs_.front().end <= rcv_nxt_) {
    StreamMessage m = in_msgs_.pop_front();
    sim_.tracer().end(sim_.now(), m.flight_span);
    const Bytes size = m.end - last_delivered_end_;
    last_delivered_end_ = m.end;
    ++stats_.messages_delivered;
    if (auto_read_) {
      if (on_message) on_message(std::move(m.payload));
    } else {
      ready_.push_back(ReadMessage{size, std::move(m.payload)});
      unread_bytes_ += size;
    }
  }
  if (!auto_read_ && was_empty && !ready_.empty() && on_readable) {
    on_readable();
  }
}

std::optional<Endpoint::ReadMessage> Endpoint::read() {
  if (ready_.empty()) return std::nullopt;
  ReadMessage msg = ready_.pop_front();
  unread_bytes_ -= msg.size;
  // If the window had (nearly) closed and reading reopened it, tell the
  // peer — its persist probes would discover this eventually, but an
  // explicit update keeps the pipe moving.
  if (last_advertised_wnd_ < config_.mss &&
      advertised_window() >= config_.mss) {
    send_pure_ack();
  }
  return msg;
}

Bytes Endpoint::advertised_window() const noexcept {
  return std::max<Bytes>(0, config_.receive_window - unread_bytes_);
}

void Endpoint::fill_sack_blocks(Segment& seg) const {
  // Up to four out-of-order ranges, lowest first, like real SACK options.
  for (auto it = ooo_ranges_.begin();
       it != ooo_ranges_.end() && seg.sack_count < kMaxSackBlocks; ++it) {
    seg.sack[seg.sack_count++] = *it;
  }
}

void Endpoint::send_pure_ack() {
  auto seg = std::make_shared<Segment>();
  seg->flags = kFlagAck;
  seg->epoch = epoch_;
  seg->seq = snd_nxt_;
  seg->len = 0;
  seg->ack = rcv_nxt_;
  seg->wnd = advertised_window();
  last_advertised_wnd_ = seg->wnd;
  fill_sack_blocks(*seg);
  ++stats_.segments_sent;
  ++stats_.pure_acks_sent;

  net::Packet packet;
  packet.size = config_.header_overhead;
  packet.payload = std::move(seg);
  tx_.send(std::move(packet));
}

void Endpoint::send_control(std::uint32_t flags) {
  auto seg = std::make_shared<Segment>();
  seg->flags = flags;
  seg->epoch = epoch_;
  seg->ack = rcv_nxt_;
  seg->wnd = advertised_window();
  ++stats_.segments_sent;

  net::Packet packet;
  packet.size = config_.header_overhead;
  packet.payload = std::move(seg);
  tx_.send(std::move(packet));
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

void Endpoint::send_syn() {
  send_control(kFlagSyn);
  syn_timer_.arm(config_.syn_timeout * (1 << std::min(syn_tries_, 4)),
                 [this] { on_syn_timeout(); });
}

void Endpoint::on_syn_timeout() {
  if (state_ != State::kSynSent) return;
  if (++syn_tries_ > config_.max_syn_retries) {
    log_.debug("connect failed after %d SYN tries", syn_tries_);
    enter_reset();
    return;
  }
  send_syn();
}

// ---------------------------------------------------------------------------
// Ingress dispatch
// ---------------------------------------------------------------------------

void Endpoint::handle_packet(const net::Packet& packet) {
  obs::ProfScope prof(obs::ProfKey::kTcpSegment);
  const auto* seg = packet.as<Segment>();
  assert(seg != nullptr);

  if (seg->has(kFlagSyn)) {
    // Server side. A SYN with a newer epoch reincarnates the connection; a
    // SYN for the current epoch means our SYN-ACK was lost — resend it.
    if (state_ == State::kListen ||
        (seg->epoch > epoch_ &&
         (state_ == State::kEstablished || state_ == State::kDead))) {
      epoch_ = seg->epoch;
      fresh_epoch_state();
      state_ = State::kEstablished;
      send_control(kFlagSynAck);
      if (on_connected) on_connected();
    } else if (seg->epoch == epoch_ && state_ == State::kEstablished) {
      send_control(kFlagSynAck);
    }
    return;
  }

  if (seg->has(kFlagSynAck)) {
    if (state_ == State::kSynSent && seg->epoch == epoch_) {
      state_ = State::kEstablished;
      syn_timer_.cancel();
      if (on_connected) on_connected();
      maybe_send();
    }
    return;
  }

  if (seg->has(kFlagRst)) {
    if (seg->epoch >= epoch_ && state_ == State::kEstablished) enter_reset();
    return;
  }

  if (state_ != State::kEstablished || seg->epoch != epoch_) return;

  peer_wnd_ = seg->wnd;
  if (peer_wnd_ > 0) persist_timer_.cancel();

  if (seg->has(kFlagProbe)) {
    send_pure_ack();  // Report the current window to the prober.
    return;
  }

  handle_sack(*seg);
  handle_ack(seg->ack);
  if (seg->len > 0) {
    handle_data(*seg);
  } else if (peer_wnd_ > 0) {
    maybe_send();  // A window update may unblock pending data.
  }
}

// ---------------------------------------------------------------------------
// Pair glue
// ---------------------------------------------------------------------------

Pair::Pair(sim::Simulation& sim, const Config& config, net::DuplexLink& link,
           const std::string& name)
    : client(sim, config, link.a_to_b, name + ":client"),
      server(sim, config, link.b_to_a, name + ":server") {
  link.a_to_b.set_receiver(
      [this](net::Packet p) { server.handle_packet(p); });
  link.b_to_a.set_receiver(
      [this](net::Packet p) { client.handle_packet(p); });
}

}  // namespace ks::tcp
