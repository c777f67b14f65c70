// Calibration constants for the simulated testbed.
//
// The paper's absolute numbers come from a specific Docker testbed (three
// broker containers on one host, NetEm fault injection, a producer that is
// CPU-bound around a few thousand messages per second). Our substrate is a
// simulator, so these constants pin the simulated producer, broker and
// network to a regime that reproduces the paper's qualitative behaviour:
//
//  - producer serialization: t_ser(M) = kSerializeBase + kSerializePerByte*M
//    => the full-load arrival rate lambda(M) = 1/t_ser(M) falls with M
//    (the paper's mu-vs-M relation from ref. [6]);
//  - broker service: t_req = kBrokerRequestOverhead + bytes * kBrokerPerByte,
//    multiplied by kBrokerBadSlowdown during Bad regimes (JVM GC /
//    log-flush stalls), producing the full-load sojourn tails behind
//    Figs. 5 and 6;
//  - network: a LAN-grade base link; NetEm adds delay D and loss L on the
//    producer->cluster direction (the paper injects faults at the producer
//    side);
//  - TCP: SACK-like recovery, so goodput degrades gently below ~8% loss and
//    collapses above (the Fig. 7 knee).
//
// Change these in one place; every experiment and bench reads them here.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"

namespace ks::testbed {

// --- producer ---------------------------------------------------------------
// Calibrated to a container-grade producer: lambda(100B) ~ 400 msg/s,
// lambda(1000B) ~ 150 msg/s — the regime in which the paper's absolute
// loss levels are self-consistent with TCP goodput at high loss rates.
inline constexpr Duration kSerializeBase = micros(2000);
inline constexpr double kSerializePerByteUs = 7.0;

/// Full-load source emission tracks the producer's serialization speed for
/// the configured message size (the "highest speed the I/O can handle").
constexpr Duration full_load_interval(Bytes message_size) noexcept {
  return kSerializeBase +
         static_cast<Duration>(kSerializePerByteUs *
                               static_cast<double>(message_size));
}

// --- broker -----------------------------------------------------------------
inline constexpr Duration kBrokerRequestOverhead = micros(2000);
inline constexpr double kBrokerAppendPerByteUs = 0.1;
inline constexpr double kBrokerBadSlowdown = 40.0;
inline constexpr Duration kBrokerMeanGood = millis(900);
inline constexpr Duration kBrokerMeanBad = millis(600);

// --- replication ------------------------------------------------------------
// Real follower fetch sessions replace the former fixed acks=all service
// surcharge: the acks=all cost is now the actual commit wait (leader ->
// follower fetch round trip over the inter-broker links below).
/// replica.lag.time.max analog: ISR eviction threshold, scaled to sim runs.
inline constexpr Duration kReplicaLagTimeMax = millis(300);
/// Follower poll interval when caught up (long-poll stand-in).
inline constexpr Duration kReplicaFetchInterval = micros(500);
/// Controller fail-stop detection latency (ZooKeeper session timeout
/// analog, scaled).
inline constexpr Duration kLeaderDetectDelay = millis(100);
/// Inter-broker one-way delay: brokers share a host/bridge in the paper's
/// testbed, so this stays at LAN grade and is never impaired by NetEm.
inline constexpr Duration kInterBrokerDelay = micros(200);

// --- network ----------------------------------------------------------------
inline constexpr double kLinkBandwidthBps = 100e6;   ///< 100 Mbit/s bridge.
inline constexpr Bytes kLinkQueueCapacity = 256 * 1024;
inline constexpr Duration kBaseLanDelay = micros(200);  ///< No-fault delay.

// --- tcp --------------------------------------------------------------------
inline constexpr Bytes kTcpSendBuffer = 16 * 1024;   // backlogs must spill into the accumulator where T_o applies (Figs. 5-6)
inline constexpr Bytes kTcpReceiveWindow = 32 * 1024;
inline constexpr Duration kTcpRtoMin = millis(200);
inline constexpr Duration kTcpRtoMax = millis(800);  // RACK/TLP-grade recovery.
/// Consecutive RTO failures before the connection resets. Low enough that a
/// ~19% loss rate produces periodic resets — the silent-loss hazard that
/// separates at-most-once from at-least-once in Fig. 4.
inline constexpr int kTcpMaxConsecutiveRtos = 4;
/// Loss-tolerant modern stack: a floor on packets in flight under heavy
/// random loss (RACK/BBR-grade), so high-delay+loss runs stay pipelined
/// while tail-loss RTO stalls still produce the Fig. 7 collapse.
/// Ack-clocked (acks>=1) request/response flows keep their RTT estimate
/// and pacing fresh and recover better than the open-loop at-most-once
/// flood — hence the per-semantics floors (the Fig. 4 semantics gap).
inline constexpr double kTcpCwndFloorAckClocked = 26.0;
inline constexpr double kTcpCwndFloorOpenLoop = 18.0;

// --- run control ------------------------------------------------------------
inline constexpr Duration kMaxSimTime = seconds(3600);
inline constexpr Duration kDrainGrace = seconds(15);

/// Sim-time cap on a run's message phase: kMaxSimTime, or twice the
/// full-load emission time of N messages of size M when that is longer.
/// The paper's N = 10^6 at M = 200 B emits for 3,400 s, so it gets 6,800 s;
/// runs below ~530k messages at 200 B keep the fixed cap.
constexpr Duration max_sim_time(std::uint64_t num_messages,
                                Bytes message_size) noexcept {
  return std::max(kMaxSimTime, 2 * static_cast<Duration>(num_messages) *
                                   full_load_interval(message_size));
}

}  // namespace ks::testbed
