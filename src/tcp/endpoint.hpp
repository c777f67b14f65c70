// One side of a simulated duplex TCP connection.
//
// Implements the mechanisms the paper's observations hinge on:
//   - segmentation with per-segment header overhead; a segment never spans
//     an application-message boundary (TCP_NODELAY request-at-a-time
//     writes), so small produce requests ride small packets and loss
//     recovery is per request, the regime the paper's testbed exhibits;
//   - cumulative acknowledgements (pure acks compete for reverse bandwidth)
//     carrying up to four SACK blocks;
//   - congestion control: slow start + AIMD congestion avoidance;
//   - retransmission: RTO with exponential backoff (Jacobson/Karn) and
//     3-dup-ack fast retransmit; either one resends the whole unacked
//     window except the ranges the peer has SACKed;
//   - connection reset after repeated consecutive RTO failures: everything
//     buffered in the socket is silently lost, which is exactly the hazard
//     an acks=0 (at-most-once) Kafka producer is exposed to;
//   - reconnection with a fresh epoch (SYN/SYN-ACK exchange).
//
// Application messages ride the stream as (size, opaque payload) and are
// delivered to the peer in order, exactly once per epoch transmission.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/logging.hpp"
#include "common/types.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "tcp/scoreboard.hpp"
#include "tcp/segment.hpp"

namespace ks::tcp {

struct Config {
  Bytes mss = 1448;                      ///< Max payload bytes per segment.
  Bytes header_overhead = 40;            ///< TCP/IP header wire bytes.
  Bytes send_buffer = 128 * 1024;        ///< Cap on unacked+unsent bytes.
  Bytes receive_window = 1 << 20;        ///< Peer advertised window (fixed).
  int initial_cwnd_segments = 10;        ///< IW10.
  Duration rto_initial = millis(200);
  Duration rto_min = millis(200);
  Duration rto_max = seconds(4);
  int dupack_threshold = 3;
  int max_consecutive_rtos = 5;          ///< Then the connection resets.
  Duration syn_timeout = millis(500);    ///< Per-SYN retry timeout.
  int max_syn_retries = 6;               ///< Then connect fails (reset).
  Duration persist_interval = millis(300);  ///< Zero-window probe period.
  /// Congestion-window floor in (average-size) segments. 2 = classic Reno
  /// collapse; ~20 models loss-tolerant modern stacks (RACK/BBR-grade)
  /// that sustain pipelining under heavy random loss.
  double cwnd_floor_segments = 2.0;
};

/// App payload handed to tcp: wire size plus an opaque pointer delivered to
/// the peer's on_message callback.
struct AppMessage {
  Bytes size = 0;
  std::shared_ptr<const void> payload;
  /// Parent span for the message's tcp.flight child (0 = untraced).
  std::uint64_t span = 0;
};

class Endpoint {
 public:
  enum class State { kClosed, kListen, kSynSent, kEstablished, kDead };

  struct Stats {
    std::uint64_t segments_sent = 0;
    std::uint64_t data_segments_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t rto_events = 0;
    std::uint64_t pure_acks_sent = 0;
    std::uint64_t resets = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;  ///< Delivered up to the app.
    Bytes bytes_acked = 0;
  };

  Endpoint(sim::Simulation& sim, Config config, net::Link& tx,
           std::string name);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- lifecycle ---------------------------------------------------------

  /// Client side: begin the SYN handshake for a new epoch.
  void connect();

  /// Server side: passively await a SYN.
  void listen();

  /// Abortive close; no wire traffic, peer discovers via epoch mismatch.
  void close();

  State state() const noexcept { return state_; }
  bool established() const noexcept { return state_ == State::kEstablished; }
  std::uint64_t epoch() const noexcept { return epoch_; }

  // --- sending -----------------------------------------------------------

  /// Append a message to the stream. Returns false (message NOT accepted)
  /// when the send buffer lacks space or the connection is dead/closed.
  bool send(AppMessage message);

  /// Free space in the send buffer, in bytes.
  Bytes send_buffer_free() const noexcept;

  /// Bytes accepted but not yet acknowledged by the peer.
  Bytes bytes_outstanding() const noexcept { return stream_end_ - snd_una_; }

  // --- receiving (flow-controlled reads) -----------------------------------

  /// A message reassembled from the peer's stream, awaiting an app read.
  struct ReadMessage {
    Bytes size = 0;
    std::shared_ptr<const void> payload;
  };

  /// When true (default) messages are pushed to on_message immediately and
  /// never occupy the receive buffer. When false the app must call read();
  /// buffered bytes shrink the advertised window — this is how a stalled
  /// broker backpressures a flooding producer.
  void set_auto_read(bool auto_read) noexcept { auto_read_ = auto_read; }

  /// Pop the next ready message (manual-read mode). May reopen the window.
  std::optional<ReadMessage> read();

  Bytes unread_bytes() const noexcept { return unread_bytes_; }
  std::size_t ready_messages() const noexcept { return ready_.size(); }

  // --- callbacks (all optional) -------------------------------------------
  /// In-order app delivery (the opaque payload passed to send()).
  std::function<void(std::shared_ptr<const void>)> on_message;
  std::function<void()> on_connected;
  std::function<void()> on_reset;               ///< Connection died.
  std::function<void()> on_writable;            ///< Send buffer freed space.
  std::function<void()> on_readable;            ///< Manual-read data arrived.

  /// Wire ingress: invoked by the link glue for every arriving packet.
  void handle_packet(const net::Packet& packet);

  const Stats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }
  /// Jacobson/Karels smoothed RTT estimate; 0 before the first sample.
  Duration smoothed_rtt() const noexcept { return srtt_; }

 private:
  // Sender internals.
  void maybe_send();
  void send_segment(StreamOffset seq, Bytes len, bool is_retransmission);
  /// Put `seg` on the wire as its packet's header, `payload` beside it.
  void transmit(const Segment& seg, std::shared_ptr<const void> payload);
  void retransmit_lost();
  void arm_persist();
  void on_persist();
  void handle_sack(const Segment& seg);
  void fill_sack_blocks(Segment& seg) const;
  void on_rto();
  void arm_rto();
  void handle_ack(StreamOffset ack);
  void update_rtt(Duration sample);
  void enter_reset();

  // Receiver internals.
  void handle_data(const Segment& seg,
                   const std::shared_ptr<const void>& payload);
  void deliver_ready_messages();
  void send_pure_ack();
  Bytes advertised_window() const noexcept;
  void send_control(std::uint32_t flags);

  // Handshake.
  void send_syn();
  void on_syn_timeout();

  void fresh_epoch_state();

  sim::Simulation& sim_;
  Config config_;
  net::Link& tx_;
  std::string name_;
  Logger log_;
  State state_ = State::kClosed;
  std::uint64_t epoch_ = 0;

  // ---- sender state ----
  StreamOffset snd_una_ = 0;   ///< Oldest unacked byte.
  StreamOffset snd_nxt_ = 0;   ///< Next byte to transmit.
  RangeSet peer_sacked_;       ///< Ranges the peer has SACKed.
  StreamOffset stream_end_ = 0;///< One past the last byte accepted from app.
  MessageQueue out_msgs_;      ///< Accepted messages not yet acked.
  double cwnd_ = 0;            ///< Congestion window, bytes.
  double ssthresh_ = 0;
  /// EWMA of outgoing segment wire size. Linux denominates cwnd in packets;
  /// we keep byte bookkeeping but scale growth/floors by the observed
  /// segment size so small app messages get packet-fair treatment.
  double avg_segment_bytes_ = 0;
  int dupacks_ = 0;
  int consecutive_rtos_ = 0;
  Duration rto_ = 0;
  Duration srtt_ = 0;
  Duration rttvar_ = 0;
  bool rtt_sample_active_ = false;
  StreamOffset rtt_sample_end_ = 0;
  TimePoint rtt_sample_time_ = 0;
  bool rtt_sample_retransmitted_ = false;
  sim::Timer rto_timer_;

  Bytes peer_wnd_ = 0;         ///< Latest advertised window from the peer.
  sim::Timer persist_timer_;

  // ---- receiver state ----
  StreamOffset rcv_nxt_ = 0;
  RangeSet ooo_ranges_;        ///< Received bytes beyond rcv_nxt_.
  MessageQueue in_msgs_;       ///< Received message ends not yet delivered.
  bool auto_read_ = true;
  Fifo<ReadMessage> ready_;
  Bytes unread_bytes_ = 0;
  StreamOffset last_delivered_end_ = 0;
  Bytes last_advertised_wnd_ = 0;

  // ---- handshake ----
  int syn_tries_ = 0;
  sim::Timer syn_timer_;

  Stats stats_;

  obs::MetricsBinding metrics_binding_;  ///< Last: reads the members above.
};

/// Glue for a producer/consumer <-> broker duplex connection: two endpoints
/// wired across a DuplexLink. The `client` transmits on a_to_b.
class Pair {
 public:
  Pair(sim::Simulation& sim, const Config& config, net::DuplexLink& link,
       const std::string& name);

  Endpoint client;
  Endpoint server;
};

}  // namespace ks::tcp
