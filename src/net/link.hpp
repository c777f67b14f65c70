// A unidirectional link with finite bandwidth, a drop-tail queue, a
// propagation-delay model and a loss model. Two links make a duplex pipe.
//
// This is the NetEm attachment point: impairments are injected by swapping
// the delay/loss models at runtime (see NetEm).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace ks::net {

class Link {
 public:
  struct Config {
    double bandwidth_bps = 100e6;        ///< 0 => infinite bandwidth.
    Bytes queue_capacity = 256 * 1024;   ///< Drop-tail buffer, bytes.
    double duplicate_probability = 0.0;  ///< NetEm-style duplication.
  };

  struct Stats {
    std::uint64_t packets_offered = 0;    ///< send() calls.
    std::uint64_t packets_dropped_queue = 0;
    std::uint64_t packets_lost = 0;       ///< Lost on the wire.
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_duplicated = 0;
    Bytes bytes_offered = 0;
    Bytes bytes_delivered = 0;
    Duration busy_time = 0;               ///< Serialization time accumulated.
  };

  Link(sim::Simulation& sim, Config config, std::shared_ptr<DelayModel> delay,
       std::shared_ptr<LossModel> loss, std::string name = "link");

  /// The downstream packet sink. Must be set before the first send. It
  /// may send on this link again.
  void set_receiver(std::function<void(Packet)> receiver) {
    receiver_ = std::move(receiver);
  }

  /// Offer a packet. Returns false when the queue overflows (packet
  /// dropped); queuing, serialization, loss and delay are simulated.
  bool send(Packet packet);

  void set_delay_model(std::shared_ptr<DelayModel> delay) {
    delay_ = std::move(delay);
  }
  void set_loss_model(std::shared_ptr<LossModel> loss) {
    loss_ = std::move(loss);
  }

  /// Change the line rate mid-run (NetEm-style bandwidth impairment).
  /// Packets already serialized keep their old transmit schedule; 0 means
  /// infinite bandwidth.
  void set_bandwidth(double bandwidth_bps) noexcept {
    config_.bandwidth_bps = bandwidth_bps;
  }
  double bandwidth() const noexcept { return config_.bandwidth_bps; }

  const Stats& stats() const noexcept { return stats_; }
  const std::string& name() const noexcept { return name_; }

  /// Fraction of wall-clock spent serializing packets since construction —
  /// the bandwidth-utilisation KPI input (phi).
  double utilization() const noexcept;

 private:
  void deliver_after_wire(std::uint32_t slot, bool duplicate_pass);
  /// Hold `packet` until its delivery or loss; its two events name the
  /// slot, so they stay small enough for sim::Callback's inline buffer.
  std::uint32_t park(Packet packet);
  /// Move the packet out of `slot` and free the slot.
  Packet unpark(std::uint32_t slot);

  sim::Simulation& sim_;
  Config config_;
  std::shared_ptr<DelayModel> delay_;
  std::shared_ptr<LossModel> loss_;
  std::string name_;
  std::function<void(Packet)> receiver_;
  Rng rng_;
  TimePoint next_free_ = 0;   ///< When the transmitter becomes idle.
  Bytes queued_bytes_ = 0;
  std::uint64_t next_packet_id_ = 1;
  std::vector<Packet> in_flight_;      ///< Packets on the wire, by slot.
  std::vector<std::uint32_t> free_slots_;
  Stats stats_;

  // ---- observability (drops split by cause at registration time) ----
  obs::MetricsBinding metrics_binding_;  ///< Last: reads the members above.
};

/// A symmetric duplex pipe: `a_to_b` and `b_to_a` built from one config.
struct DuplexLink {
  DuplexLink(sim::Simulation& sim, Link::Config config,
             std::shared_ptr<DelayModel> delay_ab,
             std::shared_ptr<LossModel> loss_ab,
             std::shared_ptr<DelayModel> delay_ba,
             std::shared_ptr<LossModel> loss_ba, const std::string& name);

  Link a_to_b;
  Link b_to_a;
};

}  // namespace ks::net
