// Unit tests for net/: loss models, delay models, links, NetEm, traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/delay_model.hpp"
#include "net/link.hpp"
#include "net/loss_model.hpp"
#include "net/netem.hpp"
#include "net/trace.hpp"
#include "obs/profiler.hpp"
#include "sim/simulation.hpp"

namespace ks::net {
namespace {

TEST(LossModels, NoLossNeverDrops) {
  NoLoss model;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(model.drop(0, rng));
  EXPECT_EQ(model.stationary_rate(), 0.0);
}

TEST(LossModels, BernoulliEmpiricalRate) {
  BernoulliLoss model(0.19);
  Rng rng(2);
  int drops = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) drops += model.drop(0, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.19, 0.01);
  EXPECT_DOUBLE_EQ(model.stationary_rate(), 0.19);
}

TEST(LossModels, BernoulliSetRate) {
  BernoulliLoss model(0.0);
  model.set_rate(1.0);
  Rng rng(3);
  EXPECT_TRUE(model.drop(0, rng));
}

TEST(LossModels, GilbertElliottStationaryFormula) {
  GilbertElliottLoss::Params p;
  p.p_good_to_bad = 0.02;
  p.p_bad_to_good = 0.08;
  p.loss_good = 0.001;
  p.loss_bad = 0.4;
  GilbertElliottLoss model(p);
  // pi_bad = 0.02/0.10 = 0.2 => rate = 0.8*0.001 + 0.2*0.4 = 0.0808.
  EXPECT_NEAR(model.stationary_rate(), 0.0808, 1e-9);

  Rng rng(4);
  int drops = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) drops += model.drop(0, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.0808, 0.005);
}

TEST(LossModels, GilbertElliottIsBursty) {
  // Consecutive-drop probability should exceed the square of the marginal
  // rate by a wide margin — the defining property vs Bernoulli.
  GilbertElliottLoss::Params p;
  p.p_good_to_bad = 0.01;
  p.p_bad_to_good = 0.10;
  p.loss_good = 0.0;
  p.loss_bad = 0.5;
  GilbertElliottLoss model(p);
  Rng rng(5);
  int drops = 0, pairs = 0;
  bool prev = false;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    const bool d = model.drop(0, rng);
    drops += d ? 1 : 0;
    if (d && prev) ++pairs;
    prev = d;
  }
  const double rate = static_cast<double>(drops) / n;
  const double pair_rate = static_cast<double>(pairs) / n;
  EXPECT_GT(pair_rate, 2.0 * rate * rate);
}

TEST(LossModels, TraceLossPiecewise) {
  TraceLoss model({{0, 0.0}, {seconds(10), 1.0}});
  EXPECT_EQ(model.rate_at(seconds(5)), 0.0);
  EXPECT_EQ(model.rate_at(seconds(10)), 1.0);
  EXPECT_EQ(model.rate_at(seconds(99)), 1.0);
  Rng rng(6);
  EXPECT_FALSE(model.drop(seconds(1), rng));
  EXPECT_TRUE(model.drop(seconds(20), rng));
}

TEST(DelayModels, Constant) {
  ConstantDelay model(millis(5));
  Rng rng(7);
  EXPECT_EQ(model.sample(0, rng), millis(5));
  EXPECT_EQ(model.mean(), millis(5));
  model.set_delay(millis(9));
  EXPECT_EQ(model.sample(0, rng), millis(9));
}

TEST(DelayModels, UniformWithinBounds) {
  UniformDelay model(millis(10), millis(3));
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const Duration d = model.sample(0, rng);
    EXPECT_GE(d, millis(7));
    EXPECT_LE(d, millis(13));
  }
}

TEST(DelayModels, UniformFloorsAtZero) {
  UniformDelay model(millis(1), millis(5));
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(model.sample(0, rng), 0);
}

TEST(DelayModels, ParetoBounds) {
  ParetoDelay model(millis(10), 1.5, millis(200));
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const Duration d = model.sample(0, rng);
    EXPECT_GE(d, millis(10));
    EXPECT_LE(d, millis(200));
  }
}

TEST(DelayModels, ParetoMeanFormula) {
  ParetoDelay model(millis(10), 3.0, seconds(100));
  EXPECT_EQ(model.mean(), millis(15));  // alpha*xm/(alpha-1).
  ParetoDelay heavy(millis(10), 0.9, millis(300));
  EXPECT_EQ(heavy.mean(), millis(300));  // Diverging mean reports the cap.
}

TEST(DelayModels, TraceDelayBase) {
  TraceDelay model({{0, millis(10)}, {seconds(5), millis(50)}}, 0.0);
  Rng rng(11);
  EXPECT_EQ(model.sample(seconds(1), rng), millis(10));
  EXPECT_EQ(model.sample(seconds(6), rng), millis(50));
  EXPECT_EQ(model.mean(), millis(30));
}

class LinkTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
};

Packet make_packet(Bytes size) {
  Packet p;
  p.size = size;
  p.payload = std::make_shared<int>(0);
  return p;
}

TEST_F(LinkTest, DeliversAfterDelay) {
  Link link(sim_, {.bandwidth_bps = 0},
            std::make_shared<ConstantDelay>(millis(5)),
            std::make_shared<NoLoss>());
  TimePoint arrival = -1;
  link.set_receiver([&](Packet) { arrival = sim_.now(); });
  link.send(make_packet(100));
  sim_.run();
  EXPECT_EQ(arrival, millis(5));
  EXPECT_EQ(link.stats().packets_delivered, 1u);
}

TEST_F(LinkTest, SerializationTimeFromBandwidth) {
  // 1000 bytes at 1 Mbit/s = 8 ms on the wire.
  Link link(sim_, {.bandwidth_bps = 1e6}, std::make_shared<ConstantDelay>(0),
            std::make_shared<NoLoss>());
  TimePoint arrival = -1;
  link.set_receiver([&](Packet) { arrival = sim_.now(); });
  link.send(make_packet(1000));
  sim_.run();
  EXPECT_EQ(arrival, millis(8));
}

TEST_F(LinkTest, FifoUnderBackToBackSends) {
  Link link(sim_, {.bandwidth_bps = 1e6}, std::make_shared<ConstantDelay>(0),
            std::make_shared<NoLoss>());
  std::vector<std::uint64_t> ids;
  link.set_receiver([&](Packet p) { ids.push_back(p.id); });
  for (int i = 0; i < 5; ++i) link.send(make_packet(500));
  sim_.run();
  ASSERT_EQ(ids.size(), 5u);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
}

TEST_F(LinkTest, QueueOverflowDrops) {
  Link link(sim_, {.bandwidth_bps = 1e3, .queue_capacity = 1500},
            std::make_shared<ConstantDelay>(0), std::make_shared<NoLoss>());
  link.set_receiver([](Packet) {});
  EXPECT_TRUE(link.send(make_packet(1000)));
  EXPECT_TRUE(link.send(make_packet(400)));
  EXPECT_FALSE(link.send(make_packet(400)));  // 1400 queued; +400 > 1500.
  EXPECT_EQ(link.stats().packets_dropped_queue, 1u);
}

TEST_F(LinkTest, LossModelApplied) {
  Link link(sim_, {.bandwidth_bps = 0}, std::make_shared<ConstantDelay>(0),
            std::make_shared<BernoulliLoss>(1.0));
  int received = 0;
  link.set_receiver([&](Packet) { ++received; });
  for (int i = 0; i < 10; ++i) link.send(make_packet(100));
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link.stats().packets_lost, 10u);
}

TEST_F(LinkTest, DuplicationProbability) {
  Link link(sim_, {.bandwidth_bps = 0, .duplicate_probability = 1.0},
            std::make_shared<ConstantDelay>(0), std::make_shared<NoLoss>());
  int received = 0;
  link.set_receiver([&](Packet) { ++received; });
  link.send(make_packet(100));
  sim_.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(link.stats().packets_duplicated, 1u);
}

// A header as large as a packet holds, derived from the packet's id.
struct WideHeader {
  std::array<std::uint64_t, kHeaderBytes / 8> words;
};

WideHeader header_for(std::uint64_t id) {
  WideHeader h{};
  for (std::size_t i = 0; i < h.words.size(); ++i) {
    h.words[i] = id * 0x9E3779B97F4A7C15ull + i;
  }
  return h;
}

// A warm link under loss, jitter and duplication hands each packet over
// with the header and payload it was sent with, delivers no id more often
// than once plus its duplicates, and allocates nothing per packet: the
// packets wait in the link's slot table, not in heap-held event captures.
TEST_F(LinkTest, WarmLinkKeepsHeadersAndAllocatesNothingPerPacket) {
  Link link(sim_, {.bandwidth_bps = 100e6, .duplicate_probability = 0.1},
            std::make_shared<UniformDelay>(millis(20), millis(15)),
            std::make_shared<BernoulliLoss>(0.1));
  constexpr std::uint64_t kWarm = 5000, kPackets = 15000;
  const auto setup = obs::profiler().snapshot();
  std::vector<std::shared_ptr<const std::uint64_t>> payloads;
  for (std::uint64_t id = 1; id <= kPackets; ++id) {
    payloads.push_back(std::make_shared<const std::uint64_t>(id));
  }
  const bool counting =
      obs::profiler().snapshot().since(setup).alloc_count > 0;
  std::vector<int> arrivals(kPackets + 1, 0);
  std::uint64_t mismatched = 0, reordered = 0, highest = 0;
  link.set_receiver([&](Packet p) {
    ASSERT_GE(p.id, 1u);
    ASSERT_LE(p.id, kPackets);
    const auto h = p.header_as<WideHeader>();
    if (h.words != header_for(p.id).words ||
        p.payload != payloads[p.id - 1]) {
      ++mismatched;
    }
    if (p.id < highest) ++reordered;
    highest = std::max(highest, p.id);
    ++arrivals[p.id];
  });
  std::uint64_t sent = 0;
  std::function<void()> send_next = [&] {
    Packet p;
    p.size = 200;
    p.payload = payloads[sent];
    p.set_header(header_for(++sent));  // Ids count from 1 per link.
    link.send(std::move(p));
    if (sent < kPackets) sim_.after(micros(100), [&] { send_next(); });
  };
  sim_.after(0, [&] { send_next(); });
  while (sent < kWarm) sim_.step();  // Slots and event queue grow here.

  const auto start = obs::profiler().snapshot();
  while (sent < kPackets) sim_.step();
  const auto allocs = obs::profiler().snapshot().since(start).alloc_count;
  sim_.run();

  const auto& st = link.stats();
  EXPECT_EQ(sent, kPackets);
  EXPECT_EQ(st.packets_offered, kPackets);
  EXPECT_EQ(mismatched, 0u);
  EXPECT_GT(st.packets_lost, 0u);
  EXPECT_GT(st.packets_duplicated, 0u);
  EXPECT_GT(reordered, 0u);
  std::uint64_t delivered = 0, repeats = 0;
  for (std::uint64_t id = 1; id <= kPackets; ++id) {
    const auto n = static_cast<std::uint64_t>(arrivals[id]);
    EXPECT_LE(n, 2u) << "id " << id;
    delivered += n;
    if (n > 1) repeats += n - 1;
  }
  EXPECT_EQ(delivered, st.packets_delivered);
  EXPECT_LE(repeats, st.packets_duplicated);
  EXPECT_EQ(st.packets_delivered + st.packets_lost + st.packets_dropped_queue,
            st.packets_offered + st.packets_duplicated);
  if (!counting) GTEST_SKIP() << "allocation counting is off in this build";
  EXPECT_EQ(allocs, 0u) << allocs << " allocations for "
                        << kPackets - kWarm << " packets";
}

TEST_F(LinkTest, UtilizationTracksBusyTime) {
  Link link(sim_, {.bandwidth_bps = 1e6}, std::make_shared<ConstantDelay>(0),
            std::make_shared<NoLoss>());
  link.set_receiver([](Packet) {});
  link.send(make_packet(1000));  // 8 ms busy.
  sim_.run();
  sim_.at(millis(16), [] {});
  sim_.run();
  EXPECT_NEAR(link.utilization(), 0.5, 0.01);
}

TEST_F(LinkTest, ModelSwapTakesEffect) {
  Link link(sim_, {.bandwidth_bps = 0}, std::make_shared<ConstantDelay>(0),
            std::make_shared<NoLoss>());
  int received = 0;
  link.set_receiver([&](Packet) { ++received; });
  link.send(make_packet(10));
  sim_.run();
  link.set_loss_model(std::make_shared<BernoulliLoss>(1.0));
  link.send(make_packet(10));
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(LinkTest, NetEmAppliesDelayAndLoss) {
  DuplexLink link(sim_, {.bandwidth_bps = 0},
                  std::make_shared<ConstantDelay>(0),
                  std::make_shared<NoLoss>(),
                  std::make_shared<ConstantDelay>(0),
                  std::make_shared<NoLoss>(), "t");
  NetEm netem(sim_, link, NetEm::Direction::kForward, micros(100));
  netem.apply(millis(50), 1.0);

  int forward = 0, reverse = 0;
  TimePoint reverse_arrival = -1;
  link.a_to_b.set_receiver([&](Packet) { ++forward; });
  link.b_to_a.set_receiver([&](Packet) {
    ++reverse;
    reverse_arrival = sim_.now();
  });
  link.a_to_b.send(make_packet(10));
  link.b_to_a.send(make_packet(10));
  sim_.run();
  EXPECT_EQ(forward, 0);        // 100% forward loss.
  EXPECT_EQ(reverse, 1);        // Reverse unimpaired.
  EXPECT_EQ(reverse_arrival, micros(100));
}

TEST_F(LinkTest, NetEmScheduledChange) {
  DuplexLink link(sim_, {.bandwidth_bps = 0},
                  std::make_shared<ConstantDelay>(0),
                  std::make_shared<NoLoss>(),
                  std::make_shared<ConstantDelay>(0),
                  std::make_shared<NoLoss>(), "t");
  NetEm netem(sim_, link);
  netem.apply_at(millis(10), 0, 1.0);

  int received = 0;
  link.a_to_b.set_receiver([&](Packet) { ++received; });
  link.a_to_b.send(make_packet(10));  // Before the change: delivered.
  sim_.at(millis(20), [&] { link.a_to_b.send(make_packet(10)); });
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST(Trace, GeneratorRespectsConfig) {
  TraceGenConfig config;
  config.duration = seconds(100);
  config.interval = seconds(1);
  Rng rng(12);
  const auto trace = generate_trace(config, rng);
  ASSERT_EQ(trace.points.size(), 100u);
  EXPECT_EQ(trace.total_duration(), seconds(100));
  for (const auto& p : trace.points) {
    EXPECT_GE(p.delay, config.delay_scale);
    EXPECT_LE(p.delay, config.delay_cap);
    EXPECT_GE(p.loss_rate, 0.0);
    EXPECT_LE(p.loss_rate, config.loss_bad_max);
  }
}

TEST(Trace, HasBothRegimes) {
  TraceGenConfig config;
  config.duration = seconds(600);
  Rng rng(13);
  const auto trace = generate_trace(config, rng);
  int calm = 0, bursty = 0;
  for (const auto& p : trace.points) {
    if (p.loss_rate < config.loss_good_max) ++calm;
    if (p.loss_rate >= config.loss_bad_min) ++bursty;
  }
  EXPECT_GT(calm, 0);
  EXPECT_GT(bursty, 0);
}

TEST(Trace, AtClampsToLastInterval) {
  TraceGenConfig config;
  config.duration = seconds(10);
  Rng rng(14);
  const auto trace = generate_trace(config, rng);
  EXPECT_EQ(&trace.at(seconds(9999)), &trace.points.back());
  EXPECT_EQ(&trace.at(0), &trace.points.front());
}

TEST(Trace, DeterministicGivenRng) {
  TraceGenConfig config;
  Rng a(15), b(15);
  const auto t1 = generate_trace(config, a);
  const auto t2 = generate_trace(config, b);
  ASSERT_EQ(t1.points.size(), t2.points.size());
  for (std::size_t i = 0; i < t1.points.size(); ++i) {
    EXPECT_EQ(t1.points[i].delay, t2.points[i].delay);
    EXPECT_EQ(t1.points[i].loss_rate, t2.points[i].loss_rate);
  }
}

}  // namespace
}  // namespace ks::net
