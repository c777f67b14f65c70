// Property tests for the TCP transport: the reliable-delivery invariant —
// every accepted message is delivered to the peer exactly once and in
// order — must hold across loss rates, delays and message sizes (as long
// as the connection never gives up, i.e. a high RTO-failure threshold).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "net/link.hpp"
#include "tcp/endpoint.hpp"

namespace ks::tcp {
namespace {

struct Params {
  double loss;
  Duration delay;
  Bytes size;
};

class TcpReliability : public ::testing::TestWithParam<Params> {};

/// Carry 40 messages of `size` bytes across links whose one-way delay is
/// uniform in delay ± jitter (jitter 0: constant), dropping `loss` of the
/// forward packets, and require exactly-once in-order delivery. Returns
/// how many data segments reached the server below the highest offset
/// already seen, i.e. out of order.
int expect_exactly_once_in_order(double loss, Duration delay, Duration jitter,
                                 Bytes size) {
  const auto delay_model = [&]() -> std::shared_ptr<net::DelayModel> {
    if (jitter > 0) return std::make_shared<net::UniformDelay>(delay, jitter);
    return std::make_shared<net::ConstantDelay>(delay);
  };
  sim::Simulation sim(1234);
  net::DuplexLink link(
      sim, {.bandwidth_bps = 100e6}, delay_model(),
      loss > 0 ? std::shared_ptr<net::LossModel>(
                     std::make_shared<net::BernoulliLoss>(loss))
               : std::make_shared<net::NoLoss>(),
      delay_model(), std::make_shared<net::NoLoss>(), "prop");
  Config config;
  config.max_consecutive_rtos = 1000;  // Never reset: pure reliability test.
  Pair pair(sim, config, link, "prop");
  int reordered = 0;
  StreamOffset highest = 0;
  link.a_to_b.set_receiver([&](net::Packet p) {
    const auto* seg = p.as<Segment>();
    if (seg->len > 0) {
      if (seg->seq + seg->len < highest) ++reordered;
      highest = std::max(highest, seg->seq + seg->len);
    }
    pair.server.handle_packet(p);
  });
  pair.server.listen();
  pair.client.connect();
  sim.run(seconds(30));
  EXPECT_TRUE(pair.client.established());

  std::vector<int> received;
  pair.server.on_message = [&](std::shared_ptr<const void> payload) {
    received.push_back(*static_cast<const int*>(payload.get()));
  };

  constexpr int kMessages = 40;
  int sent = 0;
  std::function<void()> feeder = [&] {
    while (sent < kMessages &&
           pair.client.send(AppMessage{size, std::make_shared<int>(sent)})) {
      ++sent;
    }
    if (sent < kMessages) sim.after(millis(50), feeder);
  };
  feeder();
  sim.run(seconds(1200));

  EXPECT_EQ(sent, kMessages);
  EXPECT_EQ(received.size(), static_cast<std::size_t>(kMessages))
      << "loss=" << loss << " delay=" << delay << " jitter=" << jitter
      << " size=" << size;
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i], static_cast<int>(i));
  }
  return reordered;
}

TEST_P(TcpReliability, ExactlyOnceInOrder) {
  const auto p = GetParam();
  expect_exactly_once_in_order(p.loss, p.delay, 0, p.size);
}

std::vector<Params> reliability_grid() {
  std::vector<Params> grid;
  for (double loss : {0.0, 0.05, 0.15, 0.30, 0.45}) {
    for (Duration delay : {micros(200), millis(20), millis(100)}) {
      for (Bytes size : {Bytes{80}, Bytes{1500}, Bytes{6000}}) {
        grid.push_back(Params{loss, delay, size});
      }
    }
  }
  // One point off the grid: mid loss, short delay, a mid-size message.
  grid.push_back(Params{0.2, millis(10), 500});
  return grid;
}

INSTANTIATE_TEST_SUITE_P(LossDelaySizeSweep, TcpReliability,
                         ::testing::ValuesIn(reliability_grid()));

// Jittered delay reorders segments without losing any: data lands beyond
// holes that later fill (the sorted insert into the receiver's message
// queue, the out-of-order scoreboard, SACK blocks), and the reordered acks
// trigger spurious fast retransmits, which a constant-delay link never
// reaches.
struct JitterParams {
  double loss;
  Duration delay;
  Duration jitter;
  Bytes size;
};

class TcpReordering : public ::testing::TestWithParam<JitterParams> {};

TEST_P(TcpReordering, ExactlyOnceInOrder) {
  const auto p = GetParam();
  EXPECT_GT(expect_exactly_once_in_order(p.loss, p.delay, p.jitter, p.size), 0)
      << "the jitter must actually reorder segments";
}

INSTANTIATE_TEST_SUITE_P(
    JitteredDelay, TcpReordering,
    ::testing::Values(JitterParams{0.0, millis(20), millis(15), 80},
                      JitterParams{0.0, millis(20), millis(15), 1500},
                      JitterParams{0.0, millis(5), millis(5), 6000},
                      JitterParams{0.15, millis(20), millis(15), 1500}));

}  // namespace
}  // namespace ks::tcp
