// The three data streams of the paper's dynamic-configuration experiment
// (Table II), with their suggested KPI weights, and the Scenario that
// replays one of them over a Fig. 9 network trace.
#pragma once

#include <array>
#include <string>

#include "common/types.hpp"
#include "net/trace.hpp"
#include "testbed/scenario.hpp"

namespace ks::testbed {

struct Workload {
  std::string name;
  Bytes message_size = 200;   ///< Mean M.
  Bytes size_jitter = 0;      ///< Uniform +/- jitter.
  Duration timeliness = seconds(5);  ///< S.
  Duration emit_interval = micros(400);  ///< Source arrival gap.
  /// KPI weights {w1 (phi), w2 (mu), w3 (1-P_l), w4 (1-P_d)}.
  std::array<double, 4> weights{0.3, 0.3, 0.3, 0.1};
};

/// Text messages from social media: fast delivery, lowest loss.
Workload social_media();

/// Web server access records: completeness over timeliness; duplicates are
/// tolerable (idempotent downstream).
Workload web_access_records();

/// Online-game traffic: tiny messages, strict real-time accuracy.
Workload game_traffic();

/// A Table II run: `workload`'s stream on a real-time source for the length
/// of `trace`, and one kNetem fault step per trace point. The run's fault
/// stage adds the LAN base delay to each step, as it does to every D. B,
/// delta and T_o stay at the Scenario defaults; the caller sets them.
Scenario replay_scenario(const Workload& workload,
                         const net::NetworkTrace& trace);

}  // namespace ks::testbed
