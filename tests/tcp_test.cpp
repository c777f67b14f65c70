// Unit tests for tcp/: handshake, transfer, loss recovery, flow control,
// resets and reconnection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "obs/profiler.hpp"
#include "tcp/endpoint.hpp"

namespace ks::tcp {
namespace {

struct Rig {
  explicit Rig(double loss = 0.0, Duration delay = millis(1),
               Config config = {})
      : link(sim, {.bandwidth_bps = 100e6},
             std::make_shared<net::ConstantDelay>(delay),
             loss > 0 ? std::shared_ptr<net::LossModel>(
                            std::make_shared<net::BernoulliLoss>(loss))
                      : std::make_shared<net::NoLoss>(),
             std::make_shared<net::ConstantDelay>(delay),
             std::make_shared<net::NoLoss>(), "test"),
        pair(sim, config, link, "conn") {}

  void establish() {
    pair.server.listen();
    pair.client.connect();
    sim.run(seconds(5));
    ASSERT_TRUE(pair.client.established());
    ASSERT_TRUE(pair.server.established());
  }

  sim::Simulation sim;
  net::DuplexLink link;
  Pair pair;
};

AppMessage msg(Bytes size, int tag = 0) {
  return AppMessage{size, std::make_shared<int>(tag)};
}

TEST(Tcp, HandshakeEstablishes) {
  Rig rig;
  rig.establish();
  EXPECT_EQ(rig.pair.client.epoch(), 1u);
  EXPECT_EQ(rig.pair.server.epoch(), 1u);
}

TEST(Tcp, SendBeforeListenEventuallyConnects) {
  // SYNs retry; a late listener still accepts.
  Rig rig;
  rig.pair.client.connect();
  rig.sim.run(millis(100));
  EXPECT_FALSE(rig.pair.client.established());
  rig.pair.server.listen();
  rig.sim.run(seconds(5));
  EXPECT_TRUE(rig.pair.client.established());
}

TEST(Tcp, ConnectFailsAfterMaxSynRetries) {
  Config config;
  config.max_syn_retries = 2;
  Rig rig(/*loss=*/1.0, millis(1), config);
  bool reset = false;
  rig.pair.client.on_reset = [&] { reset = true; };
  rig.pair.server.listen();
  rig.pair.client.connect();
  rig.sim.run(seconds(60));
  EXPECT_TRUE(reset);
  EXPECT_EQ(rig.pair.client.state(), Endpoint::State::kDead);
}

TEST(Tcp, DeliversSingleMessage) {
  Rig rig;
  rig.establish();
  int delivered = 0;
  rig.pair.server.on_message = [&](std::shared_ptr<const void> p) {
    EXPECT_EQ(*static_cast<const int*>(p.get()), 42);
    ++delivered;
  };
  EXPECT_TRUE(rig.pair.client.send(msg(500, 42)));
  rig.sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Tcp, DeliversInOrder) {
  Rig rig;
  rig.establish();
  std::vector<int> tags;
  rig.pair.server.on_message = [&](std::shared_ptr<const void> p) {
    tags.push_back(*static_cast<const int*>(p.get()));
  };
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rig.pair.client.send(msg(200, i)));
  }
  rig.sim.run();
  ASSERT_EQ(tags.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(tags[static_cast<std::size_t>(i)], i);
}

// Once warm, the wire path allocates nothing: the message queues,
// scoreboards, read FIFO and the links' in-flight slots keep their
// capacity, and a segment rides inside its packet by value. 10k messages
// sharing one payload, after a warm-up that sizes all of it, make at most
// a few allocations for capacity that grows once (one here), however many
// segments either side sends.
TEST(Tcp, WarmPairAllocatesOnlyItsSegments) {
  const auto setup = obs::profiler().snapshot();
  Rig rig;
  if (obs::profiler().snapshot().since(setup).alloc_count == 0) {
    GTEST_SKIP() << "allocation counting is off in this build";
  }
  rig.establish();
  int delivered = 0;
  rig.pair.server.on_message = [&](std::shared_ptr<const void>) {
    ++delivered;
  };
  const auto payload = std::make_shared<int>(7);
  const auto carry = [&](int n) {
    for (int sent = 0; sent < n; rig.sim.run_for(millis(2))) {
      while (sent < n && rig.pair.client.send(AppMessage{200, payload})) {
        ++sent;
      }
    }
    rig.sim.run_for(seconds(1));
  };
  const auto segments = [&] {
    return rig.pair.client.stats().segments_sent +
           rig.pair.server.stats().segments_sent;
  };
  carry(1000);  // Warm-up.
  const auto start = obs::profiler().snapshot();
  const std::uint64_t segments_before = segments();
  carry(10000);
  const auto allocs = obs::profiler().snapshot().since(start).alloc_count;
  const std::uint64_t sent = segments() - segments_before;
  EXPECT_EQ(delivered, 11000);
  EXPECT_LE(allocs, 8u) << allocs << " allocations for " << sent
                        << " segments carrying 10k messages";
}

TEST(Tcp, LargeMessageSpansSegments) {
  Rig rig;
  rig.establish();
  int delivered = 0;
  rig.pair.server.on_message = [&](std::shared_ptr<const void>) {
    ++delivered;
  };
  EXPECT_TRUE(rig.pair.client.send(msg(10000)));
  rig.sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(rig.pair.client.stats().data_segments_sent, 7u);
}

TEST(Tcp, BidirectionalTransfer) {
  Rig rig;
  rig.establish();
  int to_server = 0, to_client = 0;
  rig.pair.server.on_message = [&](std::shared_ptr<const void>) {
    ++to_server;
  };
  rig.pair.client.on_message = [&](std::shared_ptr<const void>) {
    ++to_client;
  };
  for (int i = 0; i < 10; ++i) {
    rig.pair.client.send(msg(100));
    rig.pair.server.send(msg(100));
  }
  rig.sim.run();
  EXPECT_EQ(to_server, 10);
  EXPECT_EQ(to_client, 10);
}

TEST(Tcp, SendBufferBackpressure) {
  Config config;
  config.send_buffer = 1000;
  Rig rig(0.0, millis(1), config);
  rig.establish();
  rig.pair.server.set_auto_read(false);  // Stall the reader.
  // Fill the send buffer; at some point send() must refuse.
  int accepted = 0;
  while (rig.pair.client.send(msg(400)) && accepted < 100) ++accepted;
  EXPECT_LT(accepted, 100);
  EXPECT_LT(rig.pair.client.send_buffer_free(), 400);
}

TEST(Tcp, OnWritableFiresAfterAck) {
  Config config;
  config.send_buffer = 1000;
  Rig rig(0.0, millis(1), config);
  rig.establish();
  rig.pair.server.on_message = [](std::shared_ptr<const void>) {};
  while (rig.pair.client.send(msg(400))) {
  }
  bool writable = false;
  rig.pair.client.on_writable = [&] { writable = true; };
  rig.sim.run();
  EXPECT_TRUE(writable);
  EXPECT_TRUE(rig.pair.client.send(msg(400)));
}

TEST(Tcp, RecoversFromModerateLoss) {
  Rig rig(/*loss=*/0.1);
  rig.establish();
  int delivered = 0;
  rig.pair.server.on_message = [&](std::shared_ptr<const void>) {
    ++delivered;
  };
  for (int i = 0; i < 100; ++i) rig.pair.client.send(msg(300, i));
  rig.sim.run(seconds(120));
  EXPECT_EQ(delivered, 100);
  EXPECT_GT(rig.pair.client.stats().retransmissions, 0u);
}

TEST(Tcp, NoDuplicateDeliveryUnderLoss) {
  Rig rig(/*loss=*/0.25);
  rig.establish();
  std::vector<int> tags;
  rig.pair.server.on_message = [&](std::shared_ptr<const void> p) {
    tags.push_back(*static_cast<const int*>(p.get()));
  };
  for (int i = 0; i < 60; ++i) rig.pair.client.send(msg(250, i));
  rig.sim.run(seconds(300));
  ASSERT_EQ(tags.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(tags[static_cast<std::size_t>(i)], i);
}

TEST(Tcp, ResetAfterRepeatedRtoFailure) {
  Config config;
  config.max_consecutive_rtos = 3;
  Rig rig(0.0, millis(1), config);
  rig.establish();
  bool reset = false;
  rig.pair.client.on_reset = [&] { reset = true; };
  // Blackhole everything after establishment.
  rig.link.a_to_b.set_loss_model(std::make_shared<net::BernoulliLoss>(1.0));
  rig.pair.client.send(msg(500));
  rig.sim.run(seconds(120));
  EXPECT_TRUE(reset);
  EXPECT_EQ(rig.pair.client.stats().resets, 1u);
}

TEST(Tcp, ReconnectAfterResetDeliversNewData) {
  Config config;
  config.max_consecutive_rtos = 3;
  Rig rig(0.0, millis(1), config);
  rig.establish();
  int delivered = 0;
  rig.pair.server.on_message = [&](std::shared_ptr<const void>) {
    ++delivered;
  };
  bool reset = false;
  rig.pair.client.on_reset = [&] { reset = true; };
  rig.link.a_to_b.set_loss_model(std::make_shared<net::BernoulliLoss>(1.0));
  rig.pair.client.send(msg(500));
  rig.sim.run(seconds(120));
  ASSERT_TRUE(reset);

  // Heal the network and reincarnate.
  rig.link.a_to_b.set_loss_model(std::make_shared<net::NoLoss>());
  rig.pair.client.connect();
  rig.sim.run_for(seconds(5));
  ASSERT_TRUE(rig.pair.client.established());
  EXPECT_EQ(rig.pair.client.epoch(), 2u);
  rig.pair.client.send(msg(100, 7));
  rig.sim.run();
  EXPECT_EQ(delivered, 1);  // Only the post-reconnect message arrives.
}

TEST(Tcp, ManualReadAccumulatesAndWindowCloses) {
  Config config;
  config.receive_window = 2000;
  Rig rig(0.0, millis(1), config);
  rig.establish();
  rig.pair.server.set_auto_read(false);
  bool readable = false;
  rig.pair.server.on_readable = [&] { readable = true; };
  for (int i = 0; i < 20; ++i) rig.pair.client.send(msg(400, i));
  rig.sim.run_for(seconds(2));
  EXPECT_TRUE(readable);
  EXPECT_GT(rig.pair.server.ready_messages(), 0u);
  // The receiver buffer fills to roughly the advertised window.
  EXPECT_LE(rig.pair.server.unread_bytes(), 2000);
  // The sender cannot have everything acked (flow control bound).
  EXPECT_GT(rig.pair.client.bytes_outstanding(), 0);
}

TEST(Tcp, ReadReopensWindowAndTransferCompletes) {
  Config config;
  config.receive_window = 2000;
  Rig rig(0.0, millis(1), config);
  rig.establish();
  rig.pair.server.set_auto_read(false);
  for (int i = 0; i < 20; ++i) rig.pair.client.send(msg(400, i));
  int read_count = 0;
  // Read one message every 5 ms until all 20 arrive.
  std::function<void()> reader = [&] {
    while (auto m = rig.pair.server.read()) {
      EXPECT_EQ(m->size, 400);
      ++read_count;
    }
    if (read_count < 20) rig.sim.after(millis(5), reader);
  };
  rig.sim.after(millis(5), reader);
  rig.sim.run(seconds(30));
  EXPECT_EQ(read_count, 20);
}

TEST(Tcp, ZeroWindowProbeRecovery) {
  // Even if the window-update ack is lost, persist probes must discover
  // the reopened window.
  Config config;
  config.receive_window = 1000;
  config.persist_interval = millis(50);
  Rig rig(0.0, millis(1), config);
  rig.establish();
  rig.pair.server.set_auto_read(false);
  for (int i = 0; i < 10; ++i) rig.pair.client.send(msg(500, i));
  rig.sim.run_for(seconds(1));
  // Drop the reverse path while reading (the window update is lost).
  rig.link.b_to_a.set_loss_model(std::make_shared<net::BernoulliLoss>(1.0));
  while (rig.pair.server.read()) {
  }
  rig.sim.run_for(seconds(1));
  rig.link.b_to_a.set_loss_model(std::make_shared<net::NoLoss>());
  int read_count = 0;
  std::function<void()> reader = [&] {
    while (rig.pair.server.read()) ++read_count;
    if (read_count < 8) rig.sim.after(millis(20), reader);
  };
  rig.sim.after(millis(20), reader);
  rig.sim.run(seconds(30));
  EXPECT_GE(read_count, 8);
}

TEST(Tcp, StatsAreConsistent) {
  Rig rig(/*loss=*/0.05);
  rig.establish();
  rig.pair.server.on_message = [](std::shared_ptr<const void>) {};
  for (int i = 0; i < 50; ++i) rig.pair.client.send(msg(200, i));
  rig.sim.run(seconds(60));
  const auto& s = rig.pair.client.stats();
  EXPECT_EQ(s.messages_sent, 50u);
  EXPECT_GE(s.segments_sent, s.data_segments_sent);
  EXPECT_GE(s.data_segments_sent, 50u);
  EXPECT_EQ(rig.pair.server.stats().messages_delivered, 50u);
  EXPECT_GT(s.bytes_acked, 0);
}

TEST(Tcp, RefusesSendWhenDead) {
  Rig rig;
  EXPECT_FALSE(rig.pair.client.send(msg(100)));  // Closed, never connected.
}

TEST(Tcp, MessageBoundarySegmentation) {
  Rig rig;
  rig.establish();
  rig.pair.server.on_message = [](std::shared_ptr<const void>) {};
  for (int i = 0; i < 10; ++i) rig.pair.client.send(msg(100, i));
  rig.sim.run();
  // Each small message must ride its own segment.
  EXPECT_GE(rig.pair.client.stats().data_segments_sent, 10u);
}

}  // namespace
}  // namespace ks::tcp
