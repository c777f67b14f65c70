// Property tests for the TCP transport: the reliable-delivery invariant —
// every accepted message is delivered to the peer exactly once and in
// order — must hold across loss rates, delays and message sizes (as long
// as the connection never gives up, i.e. a high RTO-failure threshold).
#include <gtest/gtest.h>

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

TEST_P(TcpReliability, ExactlyOnceInOrder) {
  const auto p = GetParam();
  sim::Simulation sim(1234);
  net::DuplexLink link(
      sim, {.bandwidth_bps = 100e6},
      std::make_shared<net::ConstantDelay>(p.delay),
      p.loss > 0 ? std::shared_ptr<net::LossModel>(
                       std::make_shared<net::BernoulliLoss>(p.loss))
                 : std::make_shared<net::NoLoss>(),
      std::make_shared<net::ConstantDelay>(p.delay),
      std::make_shared<net::NoLoss>(), "prop");
  Config config;
  config.max_consecutive_rtos = 1000;  // Never reset: pure reliability test.
  Pair pair(sim, config, link, "prop");
  pair.server.listen();
  pair.client.connect();
  sim.run(seconds(30));
  ASSERT_TRUE(pair.client.established());

  std::vector<int> received;
  pair.server.on_message = [&](std::shared_ptr<const void> payload) {
    received.push_back(*static_cast<const int*>(payload.get()));
  };

  constexpr int kMessages = 40;
  int sent = 0;
  std::function<void()> feeder = [&] {
    while (sent < kMessages &&
           pair.client.send(AppMessage{p.size,
                                       std::make_shared<int>(sent)})) {
      ++sent;
    }
    if (sent < kMessages) sim.after(millis(50), feeder);
  };
  feeder();
  sim.run(seconds(1200));

  ASSERT_EQ(sent, kMessages);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages))
      << "loss=" << p.loss << " delay=" << p.delay << " size=" << p.size;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  }
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

}  // namespace
}  // namespace ks::tcp
