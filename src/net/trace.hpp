// Time-varying network conditions for the dynamic-configuration experiment.
//
// The paper (Fig. 9) drives the producer-to-cluster connection with a
// network whose delay follows a Pareto distribution and whose packet-loss
// rate comes from a Gilbert-Elliott two-state chain. We generate such a
// trace as a sequence of fixed-interval samples, which the testbed replays
// as a fault schedule of NetEm steps (testbed::replay_scenario).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ks::net {

struct TracePoint {
  TimePoint start = 0;     ///< Interval start time.
  Duration delay = 0;      ///< One-way delay during this interval.
  double loss_rate = 0.0;  ///< Packet loss probability during this interval.
};

struct NetworkTrace {
  Duration interval = seconds(1);
  std::vector<TracePoint> points;

  Duration total_duration() const noexcept {
    return static_cast<Duration>(points.size()) * interval;
  }

  /// The condition in force at `t` (clamps to the last interval).
  const TracePoint& at(TimePoint t) const noexcept;

  /// Mean delay / loss over the trace, for reporting.
  Duration mean_delay() const noexcept;
  double mean_loss() const noexcept;
};

/// Generator parameters for the Fig. 9 style trace.
struct TraceGenConfig {
  Duration duration = seconds(600);
  Duration interval = seconds(1);

  // Delay: bounded Pareto (paper ref. [23]).
  Duration delay_scale = millis(10);  ///< Minimum (scale) delay.
  double delay_alpha = 1.6;           ///< Tail index.
  Duration delay_cap = millis(400);   ///< Truncation.

  // Loss: Gilbert-Elliott chain over intervals (paper ref. [24]).
  double mean_good_intervals = 40;  ///< Mean sojourn in Good, in intervals.
  double mean_bad_intervals = 20;   ///< Mean sojourn in Bad, in intervals.
  double loss_good_max = 0.02;      ///< Good-state loss ~ U(0, this).
  double loss_bad_min = 0.08;       ///< Bad-state loss ~ U(min, max).
  double loss_bad_max = 0.30;
};

NetworkTrace generate_trace(const TraceGenConfig& config, Rng& rng);

}  // namespace ks::net
