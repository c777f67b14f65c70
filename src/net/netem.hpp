// NetEm-style fault injection: attach impairments (delay + loss) to a link
// and change them over simulated time in explicit steps. (A NetworkTrace is
// replayed as a testbed fault schedule, one step per trace point.)
//
// Matching the paper's testbed, impairments are applied to the producer's
// egress (producer -> cluster direction) by default; the reverse direction
// can be impaired too when modelling symmetric faults.
#pragma once

#include <memory>

#include "net/link.hpp"
#include "sim/simulation.hpp"

namespace ks::net {

class NetEm {
 public:
  enum class Direction { kForward, kBoth };

  /// `base_reverse_delay` is the unimpaired return-path latency used in
  /// forward-only mode (the paper injects faults on the producer's egress;
  /// broker responses come back at LAN latency).
  NetEm(sim::Simulation& sim, DuplexLink& link,
        Direction direction = Direction::kForward,
        Duration base_reverse_delay = micros(200));

  /// Apply a fixed condition immediately.
  void apply(Duration one_way_delay, double loss_rate);

  /// Apply a delay plus an arbitrary loss process (e.g. Gilbert-Elliott
  /// bursts) immediately.
  void apply(Duration one_way_delay, std::shared_ptr<LossModel> loss);

  /// Schedule a condition change at absolute simulated time `t`.
  void apply_at(TimePoint t, Duration one_way_delay, double loss_rate);
  void apply_at(TimePoint t, Duration one_way_delay,
                std::shared_ptr<LossModel> loss);

  /// Schedule a line-rate change at `t` (0 restores the construction-time
  /// bandwidth). Applied to the impaired direction(s).
  void set_bandwidth_at(TimePoint t, double bandwidth_bps);

  /// Remove impairments (back to base delay 0 / no loss).
  void clear();

 private:
  void install(Duration one_way_delay, std::shared_ptr<LossModel> loss);

  sim::Simulation& sim_;
  DuplexLink& link_;
  Direction direction_;
  Duration base_reverse_delay_;
  double base_bandwidth_bps_;
};

}  // namespace ks::net
