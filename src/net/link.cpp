#include "net/link.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace ks::net {

Link::Link(sim::Simulation& sim, Config config,
           std::shared_ptr<DelayModel> delay, std::shared_ptr<LossModel> loss,
           std::string name)
    : sim_(sim),
      config_(config),
      delay_(std::move(delay)),
      loss_(std::move(loss)),
      name_(std::move(name)),
      rng_(sim.rng().fork()),
      metrics_binding_(sim.metrics()) {
  assert(delay_ != nullptr);
  assert(loss_ != nullptr);

  auto& m = metrics_binding_;
  const obs::Labels labels{{"link", name_}};
  m.counter("link_packets_offered_total", labels, &stats_.packets_offered);
  m.counter("link_packets_delivered_total", labels, &stats_.packets_delivered);
  m.counter("link_delivered_bytes_total", labels, &stats_.bytes_delivered);
  m.counter("link_packets_dropped_total",
            {{"link", name_}, {"cause", "queue_overflow"}},
            &stats_.packets_dropped_queue);
  m.counter("link_packets_dropped_total",
            {{"link", name_}, {"cause", "loss_model"}}, &stats_.packets_lost);
  m.gauge("link_queue_bytes", labels, &queued_bytes_);
  m.gauge("link_utilization", labels, [this] { return utilization(); });
}

bool Link::send(Packet packet) {
  packet.id = next_packet_id_++;
  ++stats_.packets_offered;
  stats_.bytes_offered += packet.size;

  if (queued_bytes_ + packet.size > config_.queue_capacity &&
      queued_bytes_ > 0) {
    ++stats_.packets_dropped_queue;
    return false;
  }

  // Serialization: the transmitter processes packets FIFO at line rate.
  Duration trans = 0;
  if (config_.bandwidth_bps > 0) {
    trans = static_cast<Duration>(std::llround(
        static_cast<double>(packet.size) * 8.0 * 1e6 / config_.bandwidth_bps));
  }
  const TimePoint start = std::max(sim_.now(), next_free_);
  const TimePoint done = start + trans;
  next_free_ = done;
  queued_bytes_ += packet.size;
  stats_.busy_time += trans;

  const std::uint32_t slot = park(std::move(packet));
  sim_.at(done, [this, slot] {
    queued_bytes_ -= in_flight_[slot].size;
    deliver_after_wire(slot, /*duplicate_pass=*/false);
  });
  return true;
}

void Link::deliver_after_wire(std::uint32_t slot, bool duplicate_pass) {
  // NetEm-style duplication: the duplicate is a distinct wire event and is
  // itself subject to loss and independent delay.
  if (!duplicate_pass && config_.duplicate_probability > 0.0 &&
      rng_.bernoulli(config_.duplicate_probability)) {
    ++stats_.packets_duplicated;
    const std::uint32_t copy_slot = park(in_flight_[slot]);
    sim_.after(0, [this, copy_slot] {
      deliver_after_wire(copy_slot, /*duplicate_pass=*/true);
    });
  }

  if (loss_->drop(sim_.now(), rng_)) {
    ++stats_.packets_lost;
    unpark(slot);
    return;
  }
  const Duration prop = delay_->sample(sim_.now(), rng_);
  sim_.after(prop, [this, slot] {
    // Free the slot first: the receiver may send on this link.
    Packet packet = unpark(slot);
    ++stats_.packets_delivered;
    stats_.bytes_delivered += packet.size;
    if (receiver_) receiver_(std::move(packet));
  });
}

std::uint32_t Link::park(Packet packet) {
  if (free_slots_.empty()) {
    in_flight_.push_back(std::move(packet));
    // Every slot may be free at once: size the free list with the table.
    free_slots_.reserve(in_flight_.capacity());
    return static_cast<std::uint32_t>(in_flight_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  in_flight_[slot] = std::move(packet);
  return slot;
}

Packet Link::unpark(std::uint32_t slot) {
  Packet packet = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  return packet;
}

double Link::utilization() const noexcept {
  const TimePoint elapsed = sim_.now();
  if (elapsed <= 0) return 0.0;
  return std::min(1.0, static_cast<double>(stats_.busy_time) /
                           static_cast<double>(elapsed));
}

DuplexLink::DuplexLink(sim::Simulation& sim, Link::Config config,
                       std::shared_ptr<DelayModel> delay_ab,
                       std::shared_ptr<LossModel> loss_ab,
                       std::shared_ptr<DelayModel> delay_ba,
                       std::shared_ptr<LossModel> loss_ba,
                       const std::string& name)
    : a_to_b(sim, config, std::move(delay_ab), std::move(loss_ab),
             name + ":a->b"),
      b_to_a(sim, config, std::move(delay_ba), std::move(loss_ba),
             name + ":b->a") {}

}  // namespace ks::net
