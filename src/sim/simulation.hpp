// The simulation kernel: a virtual clock plus an event queue.
//
// Every experiment builds one Simulation, wires components to it, schedules
// initial events, then calls run(). Components never block; they schedule
// continuations. The whole system is single-threaded and deterministic.
#pragma once

#include <cstdint>
#include <limits>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "sim/event_queue.hpp"

namespace ks::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const noexcept { return now_; }

  /// Root RNG; components should fork their own streams from it so that
  /// adding a component does not perturb the draws of another.
  Rng& rng() noexcept { return rng_; }

  /// Per-simulation metrics registry. Components attached to this simulation
  /// bind their counters/gauges here; exporters and samplers read it. Owned
  /// by the simulation so one experiment = one metric space.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Per-simulation causal span tracer. Disabled by default (one branch per
  /// call site); experiments arm it via configure(). Components reach it
  /// through their existing Simulation reference, like metrics().
  obs::SpanTracer& tracer() noexcept { return tracer_; }

  /// Per-simulation control-plane event log. Always on — the events are
  /// rare — and bounded, so components can record unconditionally.
  obs::ClusterTimeline& timeline() noexcept { return timeline_; }

  /// Schedule `fn` at absolute time `t` (clamped to now if in the past).
  EventId at(TimePoint t, Callback fn);

  /// Schedule `fn` after `delay` (negative delays clamp to 0).
  EventId after(Duration delay, Callback fn);

  /// Cancel a pending event; safe to call with stale ids.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains or the clock passes `until` (absolute).
  /// Returns the number of events executed.
  std::uint64_t run(TimePoint until = std::numeric_limits<TimePoint>::max());

  /// Run for `duration` of simulated time from now.
  std::uint64_t run_for(Duration duration) { return run(now() + duration); }

  /// Run a single event if one is pending before `until`. Returns false
  /// when nothing was run.
  bool step(TimePoint until = std::numeric_limits<TimePoint>::max());

  /// Request that run() stops after the current event completes.
  void stop() noexcept { stop_requested_ = true; }

  std::uint64_t events_executed() const noexcept { return executed_; }
  std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Pointer usable by Logger instances to stamp log lines with sim time.
  const TimePoint* clock_ptr() const noexcept { return &now_; }

 private:
  EventQueue queue_;
  TimePoint now_ = 0;
  Rng rng_;
  std::uint64_t executed_ = 0;
  std::uint64_t wall_time_us_ = 0;  ///< Host time inside run()/step().
  bool stop_requested_ = false;
  obs::MetricsRegistry metrics_;
  obs::SpanTracer tracer_;
  obs::ClusterTimeline timeline_;
  obs::MetricsBinding metrics_binding_;  ///< Last: reads the members above.

  friend class Timer;  // Re-arms its pending expiry in place.
};

/// A restartable one-shot timer bound to a Simulation. Rearming moves any
/// pending expiry to the new deadline. Destruction cancels, so components
/// can hold timers by value without dangling callbacks. The timer owns its
/// callback and schedules only a pointer-sized thunk that runs it.
class Timer {
 public:
  explicit Timer(Simulation& sim) : sim_(&sim) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arm to fire `delay` from now, replacing and releasing any pending
  /// callback.
  void arm(Duration delay, Callback fn);

  /// Cancel a pending expiry and release its callback; no-op if not armed.
  void cancel();

  bool armed() const noexcept { return id_ != 0; }
  TimePoint deadline() const noexcept { return deadline_; }

 private:
  void fire();

  Simulation* sim_;
  Callback fn_;
  EventId id_ = 0;
  TimePoint deadline_ = 0;
};

}  // namespace ks::sim
