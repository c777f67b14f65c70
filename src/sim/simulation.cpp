#include "sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/profiler.hpp"

namespace ks::sim {

Simulation::Simulation(std::uint64_t seed)
    : rng_(seed), metrics_binding_(metrics_) {
  auto& m = metrics_binding_;
  m.counter("sim_events_total", {}, &executed_);
  m.counter("sim_wall_time_us_total", {}, &wall_time_us_);
  m.gauge("sim_pending_events", {},
          [this] { return static_cast<double>(queue_.size()); });
  m.gauge("sim_wall_us_per_sim_s", {}, [this] {
    return now_ > 0 ? static_cast<double>(wall_time_us_) / to_seconds(now_)
                    : 0.0;
  });
}

EventId Simulation::at(TimePoint t, Callback fn) {
  return queue_.push(std::max(t, now_), std::move(fn));
}

EventId Simulation::after(Duration delay, Callback fn) {
  return at(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

bool Simulation::step(TimePoint until) {
  if (queue_.empty()) return false;
  if (queue_.next_time() > until) return false;
  auto ev = queue_.pop();
  now_ = std::max(now_, ev.time);
  {
    obs::ProfScope prof(obs::ProfKey::kEventDispatch);
    ev.fn();
  }
  ++executed_;
  return true;
}

std::uint64_t Simulation::run(TimePoint until) {
  const auto wall_start = std::chrono::steady_clock::now();
  stop_requested_ = false;
  std::uint64_t ran = 0;
  while (!stop_requested_ && step(until)) ++ran;
  wall_time_us_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  // If we stopped because the next event lies beyond `until`, advance the
  // clock to the horizon so repeated run(until) calls observe monotonic time.
  if (until != std::numeric_limits<TimePoint>::max() && now_ < until &&
      !stop_requested_) {
    now_ = until;
  }
  return ran;
}

void Timer::arm(Duration delay, Callback fn) {
  fn_ = std::move(fn);  // Releases the old callback at once.
  deadline_ = sim_->now() + std::max<Duration>(delay, 0);
  // A pending expiry keeps its thunk and moves to the new deadline, in the
  // order a cancel and a fresh push would give it.
  if (id_ == 0 || !sim_->queue_.reschedule(id_, deadline_)) {
    id_ = sim_->at(deadline_, [this] { fire(); });
  }
}

void Timer::fire() {
  id_ = 0;
  // Run from a local: the callback may re-arm this timer, replacing fn_.
  Callback fn = std::move(fn_);
  fn();
}

void Timer::cancel() {
  if (id_ != 0) {
    sim_->cancel(id_);
    id_ = 0;
    fn_.reset();
  }
}

}  // namespace ks::sim
