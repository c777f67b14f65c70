#include "testbed/workloads.hpp"

#include <algorithm>

namespace ks::testbed {

Workload social_media() {
  Workload w;
  w.name = "social-media";
  w.message_size = 800;
  w.size_jitter = 300;
  w.timeliness = seconds(2);
  // Moderate utilisation for ~1.1 KB posts (t_ser ~ 8.2 ms).
  w.emit_interval = micros(13000);
  w.weights = {0.4, 0.3, 0.2, 0.1};
  return w;
}

Workload web_access_records() {
  Workload w;
  w.name = "web-access-records";
  w.message_size = 200;
  w.size_jitter = 60;
  w.timeliness = seconds(30);
  // Moderate utilisation for 200 B records (t_ser ~ 3.4 ms).
  w.emit_interval = micros(5500);
  w.weights = {0.1, 0.1, 0.7, 0.1};
  return w;
}

Workload game_traffic() {
  Workload w;
  w.name = "game-traffic";
  w.message_size = 64;
  w.size_jitter = 24;
  w.timeliness = millis(500);
  // High-rate tiny updates (t_ser ~ 2.4 ms): the fastest stream.
  w.emit_interval = micros(4000);
  w.weights = {0.2, 0.4, 0.2, 0.2};
  return w;
}

Scenario replay_scenario(const Workload& workload,
                         const net::NetworkTrace& trace) {
  Scenario s;
  s.message_size = workload.message_size;
  s.message_size_jitter = workload.size_jitter;
  s.timeliness = workload.timeliness;
  s.source_interval = workload.emit_interval;
  s.num_messages = static_cast<std::uint64_t>(
      trace.total_duration() / std::max<Duration>(1, workload.emit_interval));
  for (const auto& p : trace.points) {
    s.faults.push_back({.at = p.start,
                        .kind = FaultAction::Kind::kNetem,
                        .delay = p.delay,
                        .loss = p.loss_rate});
  }
  return s;
}

}  // namespace ks::testbed
