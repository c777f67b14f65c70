// Unit tests for sim/: event queue ordering/cancellation, the simulation
// kernel, timers and the two-state regime modulator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "sim/event_queue.hpp"
#include "sim/modulator.hpp"
#include "sim/simulation.hpp"

namespace ks::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelDropsEvent) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(1, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(1, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(1, [] {});
  q.push(9, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, CancelAfterRunFailsAndKeepsSize) {
  EventQueue q;
  const EventId first = q.push(1, [] {});
  q.push(2, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelReleasesCaptureAtOnce) {
  EventQueue q;
  auto state = std::make_shared<int>(0);
  const EventId id = q.push(1, [state] { ++*state; });
  EXPECT_EQ(state.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(state.use_count(), 1);
  EXPECT_EQ(*state, 0);
}

TEST(EventQueue, StaleIdDoesNotCancelSlotReuse) {
  EventQueue q;
  int ran = 0;
  const EventId cancelled = q.push(1, [&] { ran += 1; });
  ASSERT_TRUE(q.cancel(cancelled));
  const EventId popped = q.push(2, [&] { ran += 10; });
  EXPECT_NE(popped, cancelled);
  q.pop().fn();
  // Both slots are free again; the next event reuses one of them.
  const EventId live = q.push(3, [&] { ran += 100; });
  EXPECT_NE(live, cancelled);
  EXPECT_NE(live, popped);
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_FALSE(q.cancel(popped));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_EQ(ran, 110);
}

// Random pushes, pops, cancels and reschedules against an ordered
// (time, seq) reference. Times come from an 8 us window, so ties are
// common. Cancels and reschedules name pending, already-run,
// already-cancelled and never-issued ids alike, and removals from the
// middle of the heap sift both up and down.
TEST(EventQueue, MatchesOrderedReferenceUnderRandomOperations) {
  struct Event {
    EventId id;
    TimePoint time;
    std::uint64_t seq;
    std::size_t live_pos;  ///< Index in `live` while pending.
  };
  EventQueue q;
  std::vector<Event> events;  // Indexed by the tag each callable reports.
  std::set<std::tuple<TimePoint, std::uint64_t, std::size_t>> reference;
  std::vector<std::size_t> live;  // Tags of pending events.
  std::vector<std::size_t> done;  // Tags of events that ran or were cancelled.
  std::uint64_t next_seq = 0;
  TimePoint now = 0;
  std::size_t popped_tag = 0;
  Rng rng(20261017);

  const auto finish = [&](std::size_t tag) {
    Event& e = events[tag];
    reference.erase({e.time, e.seq, tag});
    events[live.back()].live_pos = e.live_pos;
    live[e.live_pos] = live.back();
    live.pop_back();
    done.push_back(tag);
  };
  const auto pick = [&](std::vector<std::size_t>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  // An id for cancel or reschedule: a pending event's (its tag), or one
  // that ran or was cancelled, or one never issued (no tag).
  const auto target = [&](std::size_t& tag) -> EventId {
    tag = events.size();
    const double u = rng.uniform01();
    if (u < 0.5 && !live.empty()) return events[tag = pick(live)].id;
    if (u < 0.75 && !done.empty()) return events[pick(done)].id;
    if (u < 0.85 || live.empty()) return 0;
    if (u < 0.9) return 0xffffffffu;  // A slot far past the table.
    return events[pick(live)].id + (std::uint64_t{2} << 32);  // A later gen.
  };

  for (int op = 0; op < 100000; ++op) {
    const double u = rng.uniform01();
    const double push_share = live.size() < 96 ? 0.5 : 0.25;
    if (u < push_share) {
      const TimePoint t = now + rng.uniform_int(0, 7);
      const std::size_t tag = events.size();
      const EventId id = q.push(t, [&popped_tag, tag] { popped_tag = tag; });
      events.push_back({id, t, next_seq, live.size()});
      reference.insert({t, next_seq++, tag});
      live.push_back(tag);
    } else if (u < push_share + 0.25) {
      if (reference.empty()) continue;
      const auto [t, seq, tag] = *reference.begin();
      auto ev = q.pop();
      ASSERT_EQ(ev.time, t);
      ev.fn();
      ASSERT_EQ(popped_tag, tag);
      now = t;
      finish(tag);
    } else if (u < push_share + 0.4) {
      std::size_t tag;
      const EventId id = target(tag);
      const bool pending = tag < events.size();
      ASSERT_EQ(q.cancel(id), pending);
      if (pending) finish(tag);
    } else {
      std::size_t tag;
      const EventId id = target(tag);
      const bool pending = tag < events.size();
      const TimePoint t = now + rng.uniform_int(0, 7);
      ASSERT_EQ(q.reschedule(id, t), pending);
      if (pending) {
        Event& e = events[tag];
        reference.erase({e.time, e.seq, tag});
        e.time = t;
        e.seq = next_seq++;
        reference.insert({t, e.seq, tag});
      }
    }
    ASSERT_EQ(q.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(q.next_time(), std::get<0>(*reference.begin()));
    }
  }
  EXPECT_GT(done.size(), 20000u);
  for (const auto& [t, seq, tag] : reference) {
    auto ev = q.pop();
    ASSERT_EQ(ev.time, t);
    ev.fn();
    ASSERT_EQ(popped_tag, tag);
  }
  EXPECT_TRUE(q.empty());
}

// Counts runs and live instances through pointers, with a payload larger
// than Callback's inline buffer so it takes the heap path.
struct LargeCapture {
  int* runs;
  int* live;
  std::array<char, 2 * Callback::kInlineBytes> pad{};

  LargeCapture(int* r, int* l) : runs(r), live(l) { ++*live; }
  LargeCapture(const LargeCapture& o) : runs(o.runs), live(o.live), pad(o.pad) {
    ++*live;
  }
  LargeCapture(LargeCapture&& o) noexcept
      : runs(o.runs), live(o.live), pad(o.pad) {
    ++*live;
  }
  LargeCapture& operator=(const LargeCapture&) = delete;
  ~LargeCapture() { --*live; }
  void operator()() { ++*runs; }
};
static_assert(sizeof(LargeCapture) > Callback::kInlineBytes);

TEST(Callback, LargeCaptureRunsOnceAndIsDestroyedOnce) {
  int runs = 0;
  int live = 0;
  {
    Simulation sim;
    sim.at(1, LargeCapture(&runs, &live));
    EXPECT_EQ(live, 1);  // Only the heap copy; the temporary is gone.
    sim.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(live, 0);
  }
  EventQueue q;
  const EventId id = q.push(1, LargeCapture(&runs, &live));
  EXPECT_EQ(live, 1);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(live, 0);
  EXPECT_EQ(runs, 1);
}

TEST(Callback, MoveOnlyCaptureThroughAtAndTimer) {
  Simulation sim;
  Timer timer(sim);
  int seen = 0;
  sim.at(1, [p = std::make_unique<int>(7), &seen] { seen += *p; });
  timer.arm(2, [p = std::make_unique<int>(30), &seen] { seen += *p; });
  sim.run();
  EXPECT_EQ(seen, 37);
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  TimePoint seen = -1;
  sim.at(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, AfterSchedulesRelative) {
  Simulation sim;
  std::vector<TimePoint> times;
  sim.at(50, [&] {
    sim.after(25, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 75);
}

TEST(Simulation, PastEventsClampToNow) {
  Simulation sim;
  TimePoint seen = -1;
  sim.at(100, [&] {
    sim.at(10, [&] { seen = sim.now(); });  // In the past.
  });
  sim.run();
  EXPECT_EQ(seen, 100);
}

TEST(Simulation, RunUntilHorizon) {
  Simulation sim;
  int count = 0;
  for (TimePoint t = 10; t <= 100; t += 10) {
    sim.at(t, [&] { ++count; });
  }
  sim.run(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 50);
  sim.run(1000);
  EXPECT_EQ(count, 10);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int count = 0;
  sim.at(1, [&] {
    ++count;
    sim.stop();
  });
  sim.at(2, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, StepRunsOne) {
  Simulation sim;
  int count = 0;
  sim.at(1, [&] { ++count; });
  sim.at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const EventId id = sim.at(5, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Timer, FiresOnce) {
  Simulation sim;
  Timer timer(sim);
  int fired = 0;
  timer.arm(10, [&] { ++fired; });
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulation sim;
  Timer timer(sim);
  int which = 0;
  timer.arm(10, [&] { which = 1; });
  timer.arm(20, [&] { which = 2; });
  sim.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(sim.now(), 20);
}

TEST(Timer, CancelPreventsFire) {
  Simulation sim;
  Timer timer(sim);
  bool fired = false;
  timer.arm(10, [&] { fired = true; });
  timer.cancel();
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, DeadlineReported) {
  Simulation sim;
  Timer timer(sim);
  timer.arm(42, [] {});
  EXPECT_EQ(timer.deadline(), 42);
}

TEST(Timer, CancelReleasesCallback) {
  Simulation sim;
  Timer timer(sim);
  auto state = std::make_shared<int>(0);
  timer.arm(10, [state] { ++*state; });
  EXPECT_EQ(state.use_count(), 2);
  timer.cancel();
  EXPECT_EQ(state.use_count(), 1);
  sim.run();
  EXPECT_EQ(*state, 0);
}

TEST(Timer, DestructorCancels) {
  Simulation sim;
  bool fired = false;
  {
    Timer timer(sim);
    timer.arm(10, [&] { fired = true; });
  }
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, RearmInsideCallback) {
  Simulation sim;
  Timer timer(sim);
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 5) timer.arm(10, tick);
  };
  timer.arm(10, tick);
  sim.run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Timer, RearmReleasesOldCallbackAtOnce) {
  Simulation sim;
  Timer timer(sim);
  auto state = std::make_shared<int>(0);
  timer.arm(10, [state] { ++*state; });
  EXPECT_EQ(state.use_count(), 2);
  int fired = 0;
  timer.arm(20, [&fired] { ++fired; });
  EXPECT_EQ(state.use_count(), 1);
  sim.run();
  EXPECT_EQ(*state, 0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
}

// A re-armed timer runs after the events already due at its new deadline
// and before those scheduled there later, whether the deadline moved
// later or earlier: the order a cancel and a fresh push would give it.
TEST(Timer, RearmTiesRunInSchedulingOrder) {
  for (const Duration first : {millis(5), millis(20)}) {
    Simulation sim;
    Timer timer(sim);
    std::string order;
    timer.arm(first, [&order] { order += 'x'; });
    sim.at(millis(10), [&order] { order += 'a'; });
    timer.arm(millis(10), [&order] { order += 't'; });
    sim.at(millis(10), [&order] { order += 'b'; });
    sim.run();
    EXPECT_EQ(order, "atb") << "first deadline " << first << " us";
  }
}

// Re-arming moves the timer's one pending event, so 100k re-arms on a
// 1 us event chain allocate nothing, though each new deadline (1 s out)
// lies far past the chain's end.
TEST(Timer, RearmLeavesNothingBehind) {
  const auto setup = obs::profiler().snapshot();
  Simulation sim;
  if (obs::profiler().snapshot().since(setup).alloc_bytes == 0) {
    GTEST_SKIP() << "allocation counting is off in this build";
  }
  Timer timer(sim);
  struct Ack {
    Simulation* sim;
    Timer* timer;
    int* left;
    void operator()() const {
      timer->arm(seconds(1), [] {});
      if (--*left > 0) sim->after(micros(1), *this);
    }
  };
  int left = 1000;  // Warm-up: sizes the event table.
  sim.after(micros(1), Ack{&sim, &timer, &left});
  sim.run_for(millis(500));
  const auto start = obs::profiler().snapshot();
  left = 100000;
  sim.after(micros(1), Ack{&sim, &timer, &left});
  sim.run_for(millis(500));
  const auto bytes = obs::profiler().snapshot().since(start).alloc_bytes;
  EXPECT_EQ(sim.events_executed(), 101000u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_LT(bytes, 1024u) << "100k re-arms allocated " << bytes << " bytes";
}

TEST(Modulator, DisabledStaysGood) {
  Simulation sim;
  TwoStateModulator mod(sim, {.enabled = false});
  mod.start();
  sim.run(seconds(10));
  EXPECT_TRUE(mod.good());
}

TEST(Modulator, AlternatesStates) {
  Simulation sim;
  TwoStateModulator mod(sim,
                        {.mean_good = millis(100), .mean_bad = millis(50),
                         .enabled = true});
  int changes = 0;
  Regime last = Regime::kGood;
  mod.on_change([&](Regime r) {
    EXPECT_NE(r, last);
    last = r;
    ++changes;
  });
  mod.start();
  sim.run(seconds(10));
  EXPECT_GT(changes, 20);
}

TEST(Modulator, DutyCycleApproximatesMeans) {
  Simulation sim;
  TwoStateModulator mod(sim,
                        {.mean_good = millis(200), .mean_bad = millis(100),
                         .enabled = true});
  TimePoint bad_time = 0;
  TimePoint last_change = 0;
  mod.on_change([&](Regime r) {
    if (r == Regime::kGood) bad_time += sim.now() - last_change;
    last_change = sim.now();
  });
  mod.start();
  sim.run(seconds(300));
  const double bad_fraction =
      static_cast<double>(bad_time) / static_cast<double>(sim.now());
  EXPECT_NEAR(bad_fraction, 1.0 / 3.0, 0.05);
}

}  // namespace
}  // namespace ks::sim
