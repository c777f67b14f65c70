#include "testbed/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "kafka/consumer.hpp"
#include "kafka/group.hpp"
#include "kafka/group_consumer.hpp"
#include "kafka/partitioner.hpp"
#include "net/netem.hpp"
#include "obs/health.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "tcp/endpoint.hpp"
#include "testbed/calibration.hpp"

namespace ks::testbed {

namespace {

kafka::ProducerConfig producer_config(const Scenario& s) {
  auto c = kafka::ProducerConfig::for_semantics(s.semantics);
  c.batch_size = s.batch_size;
  c.poll_interval = s.poll_interval;
  c.message_timeout = s.message_timeout;
  if (s.request_timeout > 0) c.request_timeout = s.request_timeout;
  if (s.retries_override >= 0) c.retries = s.retries_override;
  if (s.retry_backoff > 0) c.retry_backoff = s.retry_backoff;
  if (s.retry_backoff_max > 0) c.retry_backoff_max = s.retry_backoff_max;
  c.serialize_base = kSerializeBase;
  c.serialize_per_byte_us = kSerializePerByteUs;
  // Preserve the paper's queue:run ratio (librdkafka's 100k cap vs 1e6
  // messages) at our scaled-down run sizes.
  c.max_queued_records =
      std::max<std::size_t>(s.num_messages / 10, 200);
  return c;
}

tcp::Config tcp_config(kafka::DeliverySemantics semantics) {
  tcp::Config c;
  c.send_buffer = kTcpSendBuffer;
  c.receive_window = kTcpReceiveWindow;
  c.rto_min = kTcpRtoMin;
  c.rto_max = kTcpRtoMax;
  c.max_consecutive_rtos = kTcpMaxConsecutiveRtos;
  c.cwnd_floor_segments =
      semantics == kafka::DeliverySemantics::kAtMostOnce
          ? kTcpCwndFloorOpenLoop
          : kTcpCwndFloorAckClocked;
  return c;
}

// Three brokers. With replication_factor > 1 the cluster also builds the
// inter-broker fetch fabric and plays the controller.
kafka::Cluster::Config cluster_config(const Scenario& s) {
  kafka::Cluster::Config c;
  c.num_brokers = 3;
  c.broker.request_overhead = kBrokerRequestOverhead;
  c.broker.append_per_byte_us = kBrokerAppendPerByteUs;
  c.broker.bad_slowdown = kBrokerBadSlowdown;
  c.broker.regime.enabled = s.broker_regimes;
  c.broker.regime.mean_good = kBrokerMeanGood;
  c.broker.regime.mean_bad = kBrokerMeanBad;
  c.broker.replica_lag_time_max = kReplicaLagTimeMax;
  c.broker.replica_fetch_interval = kReplicaFetchInterval;
  c.broker.storage.flush_messages = static_cast<std::int64_t>(s.flush_messages);
  c.broker.storage.flush_interval = s.flush_interval;
  c.replication_factor = s.replication_factor;
  c.min_insync_replicas = s.min_insync_replicas;
  c.unclean_leader_election = s.unclean_leader_election;
  c.leader_detect_delay = kLeaderDetectDelay;
  c.interbroker_delay = kInterBrokerDelay;
  c.interbroker_link.bandwidth_bps = kLinkBandwidthBps;
  c.interbroker_link.queue_capacity = kLinkQueueCapacity;
  return c;
}

bool is_broker_fault(FaultAction::Kind k) {
  using K = FaultAction::Kind;
  return k == K::kBrokerFail || k == K::kBrokerResume || k == K::kPowerLoss ||
         k == K::kPowerRestore || k == K::kDiskCorrupt || k == K::kFlushStall;
}

// Broker faults go through the cluster so the controller reacts.
void inject_broker_fault(kafka::Cluster& c, const FaultAction& f) {
  using K = FaultAction::Kind;
  switch (f.kind) {
    case K::kBrokerFail: c.fail_broker(f.broker); break;
    case K::kBrokerResume: c.resume_broker(f.broker); break;
    case K::kPowerLoss: c.power_off_broker(f.broker, f.torn_write); break;
    case K::kPowerRestore: c.restart_broker(f.broker); break;
    case K::kDiskCorrupt: c.corrupt_broker_disk(f.broker, f.disk_seed); break;
    case K::kFlushStall: c.stall_broker_flushes(f.broker, f.delay); break;
    default: break;
  }
}

/// Cap on each anomalous-key list in the report.
constexpr std::size_t kMaxAnomalyKeys = 32;

/// A client's clean LAN connection to one broker: the duplex link
/// `<client>-broker<b>` and the TCP pair `<client>-conn<b>` over it.
struct Connection {
  std::unique_ptr<net::DuplexLink> link;
  std::unique_ptr<tcp::Pair> pair;
};

/// Per-key delivery counts of one consumer side (the drain consumer or the
/// group), with its first-delivery and repeat totals.
struct Deliveries {
  std::vector<std::uint32_t> count;
  std::uint64_t unique = 0;
  std::uint64_t repeats = 0;
};

/// Everything the stages of one run share. Callbacks hold its address, so
/// it is neither copied nor moved. Members are declared in wiring order, so
/// teardown runs in reverse and the simulation outlives every component
/// attached to it. Stages write their summary keys into `summary`; the
/// report stage moves it into the RunReport.
struct Testbed {
  explicit Testbed(const Scenario& scenario);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Connect `client` to broker `b` and attach the server end to it.
  Connection connect(const std::string& client, int b);
  /// The current leader of a partition, for producer/consumer failover.
  std::function<int(std::int32_t)> leader_lookup() {
    return [this](std::int32_t pid) { return cluster.current_leader(pid); };
  }
  /// Partition `pid`'s log on its current leader (null while offline).
  const kafka::PartitionLog* leader_log(std::int32_t pid) {
    const int lb = cluster.current_leader(pid);
    return lb >= 0 ? cluster.broker(lb).partition(pid) : nullptr;
  }
  /// High watermark of `pid` on its current leader (0 while offline).
  std::int64_t hw_of(std::int32_t pid) {
    const auto* log = leader_log(pid);
    return log ? log->high_watermark() : 0;
  }
  /// Broker on_append hook: offset discipline, Fig. 2 state, latency.
  void observe_append(int b, std::int32_t part, const kafka::Record& r,
                      std::int64_t offset);
  /// First-delivery accounting for a record the application received.
  void deliver(Deliveries& d, std::uint64_t key) {
    if (key >= d.count.size()) return;
    const TimePoint now = sim.now();
    if (d.count[key]++ == 0) {
      ++d.unique;
      if (health && ack_time[key] > 0) {
        health->observe_latency(now, now - ack_time[key]);
      }
      trace.record(now, key, obs::TraceEvent::kDelivered);
    } else {
      ++d.repeats;
      trace.record(now, key, obs::TraceEvent::kDupDetected);
    }
  }
  /// Up to kMaxAnomalyKeys keys satisfying `pick`, trace-sampled keys
  /// first, so the ks_explain narrative has their lifecycles.
  template <typename Pred>
  std::vector<std::uint64_t> sample_keys(Pred pick) const {
    std::vector<std::uint64_t> out;
    const auto full = [&out] { return out.size() >= kMaxAnomalyKeys; };
    for (int pass = 0; pass < 2 && !full(); ++pass) {
      for (std::uint64_t k = 0; k < sc.num_messages && !full(); ++k) {
        if (trace.sampled(k) == (pass == 0) && pick(k)) out.push_back(k);
      }
    }
    return out;
  }

  const Scenario& sc;
  const int num_partitions;
  const bool replicated;
  const bool grouped;
  ExperimentResult result;
  std::map<std::string, double> summary;
  std::vector<std::uint64_t> acked_lost_keys, lost_keys, group_lost_keys;

  sim::Simulation sim;
  kafka::Cluster cluster;
  std::vector<std::int32_t> partition_ids;

  // Topology: producers and their impaired connections.
  std::vector<Connection> producer_conns;
  std::vector<std::unique_ptr<net::NetEm>> netems;
  std::unique_ptr<kafka::Source> source;
  std::unique_ptr<kafka::PartitionRouter> router;
  std::vector<std::unique_ptr<kafka::Producer>> producers;
  obs::MessageTrace trace;
  kafka::MessageStateTracker tracker;
  /// Acked-key bitmap: what the application believes was delivered.
  std::vector<std::uint8_t> acked;
  obs::Histogram delivery_latency;
  std::uint64_t stale = 0;
  std::uint64_t appends_observed = 0;
  struct OffsetWatch {
    std::int64_t base = -1;
    std::int64_t count = 1;
  };
  std::map<std::pair<int, std::int32_t>, OffsetWatch> offsets;
  std::uint64_t elections_seen = 0;
  std::uint64_t hard_restarts_seen = 0;

  // Probes.
  obs::Sampler sampler;
  std::function<void()> sampler_tick;
  std::unique_ptr<obs::HealthMonitor> health;
  std::vector<TimePoint> ack_time;  ///< Per-key ack time (health only).
  std::function<void()> health_tick;
  std::uint64_t health_last_retries = 0;
  std::unique_ptr<AdaptiveDriver> adaptive;
  std::function<void()> adaptive_tick;

  // Consumer group.
  std::unique_ptr<kafka::GroupCoordinator> coordinator;
  std::vector<Connection> member_conns;
  std::vector<std::unique_ptr<kafka::GroupConsumer>> members;
  Deliveries group;
  /// Per-(partition, generation) offset -> (member, incarnation) that
  /// delivered it, for the fencing check.
  std::map<std::pair<std::int32_t, std::int32_t>,
           std::map<std::int64_t, std::pair<int, std::uint64_t>>>
      generation_offsets;
};

Testbed::Testbed(const Scenario& scenario)
    : sc(scenario),
      num_partitions(std::max(scenario.partitions, 1)),
      replicated(scenario.replication_factor > 1),
      grouped(scenario.group_size > 0),
      sim(scenario.seed),
      cluster(sim, cluster_config(scenario)),
      // Message-lifecycle trace (Fig. 2 transitions with cause + timestamp)
      // for a sampled subset of keys, bounded by a ring.
      trace(scenario.trace_capacity,
            scenario.trace_sample_every > 0
                ? scenario.trace_sample_every
                : std::max<std::uint64_t>(scenario.num_messages / 64, 1)),
      tracker(scenario.num_messages),
      acked(scenario.num_messages, 0),
      sampler(sim.metrics(), scenario.sample_interval > 0
                                 ? scenario.sample_interval
                                 : millis(200)) {
  cluster.create_topic("stream", num_partitions);
  for (int p = 0; p < num_partitions; ++p) {
    partition_ids.push_back(cluster.partition_id("stream", p));
  }
}

Connection Testbed::connect(const std::string& client, int b) {
  net::Link::Config link_config;
  link_config.bandwidth_bps = kLinkBandwidthBps;
  link_config.queue_capacity = kLinkQueueCapacity;
  const std::string suffix = std::to_string(b);
  Connection c;
  c.link = std::make_unique<net::DuplexLink>(
      sim, link_config, std::make_shared<net::ConstantDelay>(kBaseLanDelay),
      std::make_shared<net::NoLoss>(),
      std::make_shared<net::ConstantDelay>(kBaseLanDelay),
      std::make_shared<net::NoLoss>(), client + "-broker" + suffix);
  c.pair = std::make_unique<tcp::Pair>(sim, tcp_config(sc.semantics), *c.link,
                                       client + "-conn" + suffix);
  cluster.broker(b).attach(c.pair->server);
  return c;
}

// Per-broker offset discipline: on_append reports the batch base offset for
// each record, so within a batch the offset repeats and the next batch must
// start exactly at base + batch_record_count (contiguous, monotone log).
// Leader changes legitimately move the append point (a new leader starts
// from its replicated log end; a re-elected one from its truncated end), so
// elections reset the watch — as do hard restarts, whose recovery scan can
// truncate the log end backward even at replication_factor == 1.
void Testbed::observe_append(int b, std::int32_t part, const kafka::Record& r,
                             std::int64_t offset) {
  ++appends_observed;
  const auto& cs = cluster.stats();
  if (cs.elections != elections_seen ||
      cs.hard_restarts != hard_restarts_seen) {
    elections_seen = cs.elections;
    hard_restarts_seen = cs.hard_restarts;
    offsets.clear();
  }
  auto& w = offsets[{b, part}];
  const bool fresh_after_election =
      (replicated || hard_restarts_seen > 0) && w.base == -1 && offset > 0;
  if (offset == w.base) {
    ++w.count;  // Another record of the same batch.
  } else {
    if (!fresh_after_election && offset != w.base + w.count) {
      ++result.offset_gap_violations;
    }
    w.base = offset;
    w.count = 1;
  }
  tracker.on_append(r.key);
  trace.record(sim.now(), r.key, obs::TraceEvent::kAppended, b);
  if (tracker.state_of(r.key) == kafka::MessageState::kDelivered) {
    const Duration d = sim.now() - r.created_at;
    delivery_latency.observe(d);
    if (d > sc.timeliness) ++stale;
  }
}

// ---- topology: producer connections, source, router, producers -----------
// One producer per partition, each with NetEm-impaired connections: its
// partition's home broker at rf=1, every broker when replicated (failover).
// Every producer pulls through the partition router; idempotent producer
// ids are distinct per partition producer, so each (producer, partition)
// sequence space stands alone.
void build_topology(Testbed& tb) {
  const Scenario& sc = tb.sc;
  auto& sim = tb.sim;
  std::vector<std::vector<tcp::Endpoint*>> endpoints(
      static_cast<std::size_t>(tb.num_partitions));
  for (int p = 0; p < tb.num_partitions; ++p) {
    const int home =
        std::max(tb.cluster.current_leader(tb.partition_ids[p]), 0);
    for (int b = 0; b < tb.cluster.num_brokers(); ++b) {
      if (!tb.replicated && b != home) continue;
      tb.producer_conns.push_back(tb.connect("prod" + std::to_string(p), b));
      auto& c = tb.producer_conns.back();
      tb.netems.push_back(std::make_unique<net::NetEm>(
          sim, *c.link, net::NetEm::Direction::kForward, kBaseLanDelay));
      tb.netems.back()->apply(kBaseLanDelay + sc.network_delay,
                              sc.packet_loss);
      endpoints[static_cast<std::size_t>(p)].push_back(&c.pair->client);
    }
  }

  // Source: full load tracks serialization speed; otherwise the given rate.
  kafka::Source::Config source_config;
  source_config.total_messages = sc.num_messages;
  source_config.message_size = sc.message_size;
  source_config.size_jitter = sc.message_size_jitter;
  // Scale the upstream ring with the run size (like the producer queue) so
  // scaled-down runs keep the paper's buffering:N proportions.
  source_config.buffer_capacity =
      std::max<std::size_t>(sc.num_messages / 20, 500);
  if (sc.source_mode == SourceMode::kOnDemand) {
    source_config.emit_interval = 0;  // Stamp at pull; no ring, no overrun.
  } else {
    // The paper defines the polling interval via the arrival rate lambda =
    // 1/delta: a slower-polling producer consumes a correspondingly slower
    // stream (skipped updates never become messages). Full load means
    // arrivals track serialization speed.
    const Duration base_interval = sc.source_interval > 0
                                       ? sc.source_interval
                                       : full_load_interval(sc.message_size);
    source_config.emit_interval = std::max(base_interval, sc.poll_interval);
  }
  tb.source = std::make_unique<kafka::Source>(sim, source_config);
  tb.router = std::make_unique<kafka::PartitionRouter>(
      *tb.source, tb.num_partitions, sc.partitioner);
  for (int p = 0; p < tb.num_partitions; ++p) {
    auto pc = producer_config(sc);
    if (pc.producer_id != 0) pc.producer_id += static_cast<std::uint64_t>(p);
    const auto& eps = endpoints[static_cast<std::size_t>(p)];
    tb.producers.push_back(std::make_unique<kafka::Producer>(
        sim, pc, *eps.front(), tb.router->lane(p), tb.partition_ids[p]));
    if (tb.replicated) {
      tb.producers.back()->enable_failover(eps, tb.leader_lookup());
    }
  }

  // Causal spans share the trace's key sampling by default so a traced key
  // has both its lifecycle events and its span tree. The tracer lives on
  // the Simulation; components record through it unconditionally, and a
  // disabled tracer (sample_every == 0) makes every call a cheap no-op.
  if (sc.spans_enabled) {
    sim.tracer().configure(sc.span_capacity, sc.span_sample_every > 0
                                                 ? sc.span_sample_every
                                                 : tb.trace.sample_every());
  }
  auto& trace = tb.trace;
  tb.source->on_overrun = [&](const kafka::Record& r) {
    trace.record(sim.now(), r.key, obs::TraceEvent::kOverrun);
  };
  for (auto& pr : tb.producers) {
    pr->on_send_attempt = [&](const kafka::Record& r, int attempt) {
      tb.tracker.on_send_attempt(r.key, attempt);
      trace.record(sim.now(), r.key,
                   attempt <= 1 ? obs::TraceEvent::kSendAttempt
                                : obs::TraceEvent::kRetry,
                   attempt);
    };
    pr->on_record_expired = [&](const kafka::Record& r) {
      trace.record(sim.now(), r.key, obs::TraceEvent::kExpired);
    };
    pr->on_record_failed = [&](const kafka::Record& r) {
      trace.record(sim.now(), r.key, obs::TraceEvent::kFailed, r.attempts);
    };
    pr->on_record_acked = [&](const kafka::Record& r) {
      if (r.key < tb.acked.size()) tb.acked[r.key] = 1;
      if (tb.health && r.key < tb.ack_time.size()) {
        tb.ack_time[r.key] = sim.now();
      }
      trace.record(sim.now(), r.key, obs::TraceEvent::kAcked, r.attempts);
    };
  }
  tb.delivery_latency = sim.metrics().histogram("delivery_latency_us");
  for (int b = 0; b < tb.cluster.num_brokers(); ++b) {
    tb.cluster.broker(b).on_append = [&tb, b](std::int32_t part,
                                              const kafka::Record& r,
                                              std::int64_t offset) {
      tb.observe_append(b, part, r, offset);
    };
  }
}

// ---- faults -----------------------------------------------------------------
// Timed fault schedule: netem steps, bandwidth changes and broker outages on
// top of the static impairment. A kNetem/kGilbertElliott step replaces the
// static (D, L) condition from its time onward. Network impairments hit the
// producer's egress (every broker connection — the fault is at the producer
// side, as in the paper). Member faults are wired by the group stage.
void schedule_faults(Testbed& tb) {
  auto& sim = tb.sim;
  for (const auto& f : tb.sc.faults) {
    // Timeline marker for every injected fault, so failure narratives can
    // line message fates up against the fault schedule.
    sim.at(f.at, [&sim, f] {
      sim.timeline().record(sim.now(), obs::ClusterEventKind::kFaultInjected,
                            is_broker_fault(f.kind) ? f.broker : -1, -1, 0, 0,
                            f.describe());
    });
    switch (f.kind) {
      case FaultAction::Kind::kNetem:
        for (auto& n : tb.netems) {
          n->apply_at(f.at, kBaseLanDelay + f.delay, f.loss);
        }
        break;
      case FaultAction::Kind::kGilbertElliott:
        for (auto& n : tb.netems) {
          n->apply_at(f.at, kBaseLanDelay + f.delay,
                      std::make_shared<net::GilbertElliottLoss>(f.ge));
        }
        break;
      case FaultAction::Kind::kBandwidth:
        for (auto& n : tb.netems) n->set_bandwidth_at(f.at, f.bandwidth_bps);
        break;
      default:
        if (is_broker_fault(f.kind)) {
          sim.at(f.at, [&c = tb.cluster, f] { inject_broker_fault(c, f); });
        }
        break;
    }
  }
}

// ---- probes: metric sampler -------------------------------------------------
// A recurring sim event snapshots every counter and gauge on the scenario's
// sampling interval. Its first tick precedes the group's t = 0 member start,
// so it is scheduled before the group stage.
void start_sampler(Testbed& tb) {
  tb.sampler_tick = [&tb] {
    tb.sampler.sample(tb.sim.now());
    tb.sim.after(tb.sampler.interval(), tb.sampler_tick);
  };
  if (tb.sc.sample_interval > 0) tb.sim.after(0, tb.sampler_tick);
}

// ---- group ------------------------------------------------------------------
// A member crash, ahead of the crash itself: record its ground-truth backlog,
// the unconsumed records on the partitions this member owns, read straight
// off cluster + coordinator state (independent of the health monitor, which
// the chaos harness scores against it).
void crash_member(Testbed& tb, kafka::GroupConsumer& gm) {
  auto& coordinator = *tb.coordinator;
  std::int64_t backlog = 0;
  // Partitions whose commits were live when the freeze began: these feed the
  // post-crash probe below, which measures the evidence the detector's fast
  // STALL path actually sees.
  std::vector<std::pair<std::int32_t, std::int64_t>> warm_pids;
  for (const auto pid : coordinator.assignment_of(gm.member_id())) {
    const std::int64_t committed = coordinator.committed(pid);
    backlog += std::max<std::int64_t>(0, tb.hw_of(pid) - committed);
    if (committed > 0) warm_pids.emplace_back(pid, committed);
  }
  auto& backlogs = tb.result.group_crash_backlogs;
  const auto idx = backlogs.size();
  backlogs.push_back(ExperimentResult::CrashBacklog{tb.sim.now(), backlog, 0});
  gm.crash();
  // The STALL rule fires on lag > 0 at a tick where commits have been frozen
  // stall_ticks windows — so the obligating evidence is the lag stall_ticks
  // intervals AFTER the crash (producers keep appending; lag at the crash
  // instant is often still zero), counted only on partitions whose committed
  // offset is still frozen at that point.
  const obs::HealthConfig hc =
      tb.health ? tb.health->config() : obs::HealthConfig{};
  tb.sim.after(static_cast<Duration>(hc.stall_ticks) * hc.interval,
               [&tb, idx, warm_pids = std::move(warm_pids)] {
                 std::int64_t warm = 0;
                 for (const auto& [pid, frozen] : warm_pids) {
                   if (tb.coordinator->committed(pid) != frozen) continue;
                   warm += std::max<std::int64_t>(0, tb.hw_of(pid) - frozen);
                 }
                 tb.result.group_crash_backlogs[idx].warm_backlog = warm;
               });
}

// Initial members join staggered (exercising join-window coalescing);
// standby members activate at their kGroupScaleOut times, in schedule order.
// Member faults target the members by index.
void schedule_members(Testbed& tb) {
  auto& sim = tb.sim;
  const auto member = [&tb](int m) {
    return tb.members[static_cast<std::size_t>(m)].get();
  };
  for (int m = 0; m < tb.sc.group_size; ++m) {
    sim.at(static_cast<TimePoint>(m) * millis(5),
           [gm = member(m)] { gm->start(); });
  }
  int standby = tb.sc.group_size;
  const int total = static_cast<int>(tb.members.size());
  for (const auto& f : tb.sc.faults) {
    using K = FaultAction::Kind;
    if (f.kind == K::kGroupScaleOut && standby < total) {
      sim.at(f.at, [gm = member(standby++)] { gm->start(); });
    }
    if (f.member < 0 || f.member >= total) continue;
    auto* gm = member(f.member);
    if (f.kind == K::kConsumerCrash) {
      sim.at(f.at, [&tb, gm] { crash_member(tb, *gm); });
    } else if (f.kind == K::kConsumerRestart) {
      sim.at(f.at, [gm] { gm->restart(); });
    } else if (f.kind == K::kConsumerPause) {
      sim.at(f.at, [gm, d = f.delay] { gm->pause_for(d); });
    }
  }
}

// Consumer group: members consume live during production, each over one
// clean LAN connection per broker (the faults under study are member faults
// and producer-side network faults, as in the paper). A repeat delivery of
// one (partition, offset) within one generation is a fencing violation — two
// owners, or a live member repeating itself — unless the same member
// redelivers after a crash wiped its delivery state (a static member that
// bounces inside the session timeout keeps its generation). Repeats across
// generations are the ordinary rebalance signature.
void build_group(Testbed& tb) {
  const Scenario& sc = tb.sc;
  if (!tb.grouped) return;
  kafka::GroupCoordinator::Config gc;
  gc.strategy = sc.group_strategy;
  gc.session_timeout = sc.group_session_timeout;
  gc.partitions = tb.partition_ids;
  tb.coordinator = std::make_unique<kafka::GroupCoordinator>(tb.sim, gc);
  tb.group.count.assign(sc.num_messages, 0);

  const auto scale_outs = std::count_if(
      sc.faults.begin(), sc.faults.end(), [](const FaultAction& f) {
        return f.kind == FaultAction::Kind::kGroupScaleOut;
      });
  const int total = sc.group_size + static_cast<int>(scale_outs);
  for (int m = 0; m < total; ++m) {
    const std::string name = "member" + std::to_string(m);
    std::vector<tcp::Endpoint*> eps;
    for (int b = 0; b < tb.cluster.num_brokers(); ++b) {
      tb.member_conns.push_back(tb.connect(name, b));
      eps.push_back(&tb.member_conns.back().pair->client);
    }
    kafka::GroupConsumer::Config mc;
    mc.name = name;
    if (sc.group_static_membership) {
      mc.instance_id = "inst-" + std::to_string(m);
    }
    mc.commit_mode = sc.group_commit_mode;
    mc.process_time = sc.group_process_time;
    mc.heartbeat_interval = sc.group_heartbeat_interval;
    auto& gm = *tb.members.emplace_back(std::make_unique<kafka::GroupConsumer>(
        tb.sim, mc, *tb.coordinator, std::move(eps), tb.leader_lookup()));
    gm.on_fetched = [&tb](const kafka::FetchedRecord& r, std::int32_t) {
      ++tb.result.group_records_fetched;
      tb.trace.record(tb.sim.now(), r.key, obs::TraceEvent::kFetched,
                      static_cast<std::int32_t>(r.offset));
    };
    gm.on_delivery = [&tb, &gm, m](const kafka::FetchedRecord& r,
                                   std::int32_t part, std::int32_t gen) {
      const std::pair<int, std::uint64_t> deliverer{m, gm.stats().crashes};
      auto [slot, fresh] =
          tb.generation_offsets[{part, gen}].emplace(r.offset, deliverer);
      if (!fresh) {
        if (slot->second.first != m ||
            slot->second.second == deliverer.second) {
          ++tb.result.group_same_generation_dups;
        }
        slot->second = deliverer;
      }
      tb.deliver(tb.group, r.key);
    };
  }
  schedule_members(tb);
}

// ---- probes: health monitor and adaptive controller -------------------------
// Health probe tick: read cluster/coordinator/producer state, push plain
// numbers at the monitor, evaluate. Purely observational — nothing here
// mutates model state, so enabling the monitor cannot change a run's message
// fates (only its report/timeline contents).
void probe_health(Testbed& tb) {
  auto& health = *tb.health;
  auto& cluster = tb.cluster;
  const TimePoint t = tb.sim.now();
  health.begin_tick(t);
  for (const auto pid : tb.partition_ids) {
    if (tb.grouped) {
      health.observe_partition(pid, tb.coordinator->committed(pid),
                               tb.hw_of(pid),
                               tb.coordinator->member_count() > 0);
    }
    if (tb.replicated) {
      const auto& ref = cluster.partition_ref(pid);
      health.observe_isr(pid, static_cast<std::int64_t>(ref.isr.size()),
                         static_cast<std::int64_t>(ref.replicas.size()));
    }
  }
  for (int b = 0; b < cluster.num_brokers(); ++b) {
    auto& broker = cluster.broker(b);
    std::int64_t hw_sum = 0;
    std::int64_t replica_lag = 0;
    for (const auto pid : tb.partition_ids) {
      const auto* log = broker.partition(pid);
      if (log == nullptr) continue;
      hw_sum += log->high_watermark();
      if (tb.replicated && cluster.current_leader(pid) != b) {
        replica_lag +=
            std::max<std::int64_t>(0, tb.hw_of(pid) - log->high_watermark());
      }
    }
    health.observe_broker(b, broker.parked_acks(), hw_sum);
    if (tb.replicated) health.observe_replica_lag(b, replica_lag);
  }
  double in_flight = 0.0;
  std::uint64_t retries = 0;
  for (const auto& pr : tb.producers) {
    in_flight += static_cast<double>(pr->in_flight_requests());
    retries += pr->stats().requests_retried;
  }
  health.observe_producer(
      in_flight, static_cast<double>(retries - tb.health_last_retries));
  tb.health_last_retries = retries;
  health.evaluate(t);
}

// Telemetry for one controller tick. TCP counters are summed over every
// producer connection, idle failover connections included, so they stay
// monotone for the driver's differencing; SRTT is the largest among the
// producers' current connections. Producer counters are summed over all
// producers; the live parameters are the first producer's.
AdaptiveTelemetry sample_telemetry(const Testbed& tb) {
  AdaptiveTelemetry t;
  for (const auto& c : tb.producer_conns) {
    const auto& s = c.pair->client.stats();
    t.segments_sent += s.segments_sent;
    t.data_segments_sent += s.data_segments_sent;
    t.retransmissions += s.retransmissions;
    t.rto_events += s.rto_events;
  }
  for (const auto& p : tb.producers) {
    t.smoothed_rtt = std::max(t.smoothed_rtt, p->connection().smoothed_rtt());
    const auto& s = p->stats();
    t.records_acked += s.records_acked;
    t.records_retried += s.requests_retried;
    t.records_timed_out += s.records_failed;
  }
  const auto& live = tb.producers.front()->config();
  t.batch_size = live.batch_size;
  t.poll_interval = live.poll_interval;
  t.message_timeout = live.message_timeout;
  return t;
}

// Online adaptive controller tick: snapshot live transport/producer
// telemetry, let the policy decide, and apply the chosen parameters to every
// live producer. Each evaluated decision (applied or suppressed) lands on the
// cluster timeline as a `reconfigure` event, so ks_explain can narrate why
// the configuration changed (or deliberately did not).
void tick_adaptive(Testbed& tb) {
  auto& r = tb.result;
  const TimePoint t = tb.sim.now();
  ++r.adaptive_ticks;
  const auto decision = tb.adaptive->tick(t, sample_telemetry(tb));
  if (decision.evaluated) {
    ++r.adaptive_evaluations;
    if (decision.apply) {
      ++r.adaptive_reconfigurations;
      const Duration linger = tb.producers.front()->config().linger;
      for (auto& pr : tb.producers) {
        pr->reconfigure(decision.batch_size, linger, decision.poll_interval,
                        decision.message_timeout);
      }
    } else {
      ++r.adaptive_suppressed;
    }
    tb.sim.timeline().record(
        t, obs::ClusterEventKind::kReconfigure, /*broker=*/-1,
        /*partition=*/-1, decision.apply ? 1 : 0,
        std::llround(decision.chosen_gamma * 1e6), decision.note);
  }
  tb.sim.after(tb.adaptive->interval(), tb.adaptive_tick);
}

// The monitors are null when disabled: every hot-path hook is then a single
// pointer test, and a disabled controller schedules no tick at all (the
// passivity invariant).
void start_monitors(Testbed& tb) {
  const Scenario& sc = tb.sc;
  if (sc.health_enabled) {
    tb.health = std::make_unique<obs::HealthMonitor>(obs::HealthConfig{},
                                                     &tb.sim.timeline());
    tb.ack_time.assign(sc.num_messages, 0);
    tb.health_tick = [&tb] {
      probe_health(tb);
      tb.sim.after(tb.health->config().interval, tb.health_tick);
    };
    tb.sim.after(0, tb.health_tick);
  }
  if (sc.adaptive_enabled && sc.adaptive_factory) {
    tb.adaptive = sc.adaptive_factory(sc);
  }
  if (!tb.adaptive) return;
  tb.adaptive_tick = [&tb] {
    // The controller's job ends with the message run: once any producer has
    // finished there is nothing left to retune, and ticking through the
    // drain grace would break the duration/cooldown no-thrash bound.
    for (const auto& pr : tb.producers) {
      if (pr->finished()) return;
    }
    tick_adaptive(tb);
  };
  tb.result.adaptive_cooldown = tb.adaptive->cooldown();
  tb.sim.after(tb.adaptive->interval(), tb.adaptive_tick);
}

// ---- run and drains ---------------------------------------------------------
// Run to completion (with a hard cap), then drain in-flight traffic
// (including follower catch-up and pending elections).
void run_producers(Testbed& tb) {
  auto& sim = tb.sim;
  tb.cluster.start();
  tb.source->start();
  for (auto& pr : tb.producers) pr->start();
  const auto finished = [&tb] {
    return std::all_of(tb.producers.begin(), tb.producers.end(),
                       [](const auto& pr) { return pr->finished(); });
  };
  const Duration cap = max_sim_time(tb.sc.num_messages, tb.sc.message_size);
  while (!finished() && sim.now() < cap) {
    sim.run(sim.now() + seconds(1));
  }
  tb.result.completed = finished();
  const TimePoint finish_time = sim.now();
  tb.result.duration_s = to_seconds(finish_time);
  sim.run(finish_time + kDrainGrace);
  tb.summary["completed"] = tb.result.completed ? 1.0 : 0.0;
  tb.summary["duration_s"] = tb.result.duration_s;
}

// Consumer drain: read partition 0's committed log back through a real
// consumer over clean links, so each traced key's lifecycle extends to the
// consumer side (kFetched/kDelivered/kDupDetected) and Fig. 2 is observable
// source-to-consumer. Runs after the fault schedule; fetches never mutate
// broker logs, and the high watermark only advances, so the census is
// unaffected by the extra simulated time. Grouped runs consume live instead.
void drain_consumer(Testbed& tb) {
  auto& sim = tb.sim;
  auto& cluster = tb.cluster;
  Deliveries seen;
  std::uint64_t truncations = 0;
  bool drained = false;
  const std::int32_t partition = tb.partition_ids.front();
  const int leader = tb.replicated ? cluster.current_leader(partition) : 0;
  const auto* log =
      leader >= 0 ? cluster.broker(leader).partition(partition) : nullptr;
  const std::int64_t target = log ? log->high_watermark() : 0;
  if (tb.sc.consumer_drain && !tb.grouped && target > 0) {
    std::vector<Connection> conns;
    std::vector<tcp::Endpoint*> eps;
    for (int b = 0; b < cluster.num_brokers(); ++b) {
      if (!tb.replicated && b != leader) continue;
      conns.push_back(tb.connect("cons", b));
      eps.push_back(&conns.back().pair->client);
    }
    // The drain runs over clean LAN links after the fault schedule: a fetch
    // timeout here means a dead broker, not congestion, so a tight retry
    // budget lets an undrainable cluster stall in seconds of sim time
    // instead of grinding through the default WAN-scale backoffs.
    kafka::Consumer::Config drain_config;
    drain_config.fetch_timeout = millis(500);
    drain_config.max_fetch_retries = 8;
    drain_config.fetch_retry_backoff_max = millis(1000);
    kafka::Consumer consumer(
        sim, drain_config,
        *eps[static_cast<std::size_t>(tb.replicated ? leader : 0)], partition);
    if (tb.replicated) consumer.enable_failover(eps, tb.leader_lookup());
    seen.count.assign(tb.sc.num_messages, 0);
    consumer.on_record = [&](const kafka::FetchedRecord& r) {
      ++tb.result.consumer_records;
      tb.trace.record(sim.now(), r.key, obs::TraceEvent::kFetched,
                      static_cast<std::int32_t>(r.offset));
      tb.deliver(seen, r.key);
    };
    consumer.on_drained = [&] { drained = true; };
    consumer.start();
    consumer.drain_until(target);
    const TimePoint deadline = sim.now() + seconds(30);
    while (!drained && !consumer.stalled() && sim.now() < deadline) {
      sim.run(sim.now() + millis(100));
    }
    truncations = consumer.stats().offset_truncations;
  }
  tb.summary["consumer_records"] = tb.result.consumer_records;
  tb.summary["consumer_delivered"] = seen.unique;
  tb.summary["consumer_duplicates"] = seen.repeats;
  tb.summary["consumer_truncations"] = truncations;
  tb.summary["consumer_drained"] = drained ? 1.0 : 0.0;
}

// Group drain: keep the simulation running until every partition's group
// committed offset reaches its leader's final high watermark (the group has
// consumed and committed everything a consumer can ever read), or a
// deadline — some chaos schedules legitimately leave the group short-handed
// or stalled.
void drain_group(Testbed& tb) {
  if (!tb.grouped) return;
  const auto caught_up = [&tb] {
    for (const auto pid : tb.partition_ids) {
      if (tb.coordinator->committed(pid) < tb.hw_of(pid)) return false;
    }
    return true;
  };
  const TimePoint deadline = tb.sim.now() + seconds(60);
  while (!caught_up() && tb.sim.now() < deadline) {
    tb.sim.run(tb.sim.now() + millis(100));
  }
  tb.result.group_drained = caught_up();
  tb.summary["group_drained"] = tb.result.group_drained ? 1.0 : 0.0;
}

// ---- census -----------------------------------------------------------------
// The paper's key comparison (committed records only), acked-record loss,
// broker-side invariant inputs and the KPI inputs.
void take_census(Testbed& tb) {
  const Scenario& sc = tb.sc;
  auto& r = tb.result;
  auto& s = tb.summary;
  auto& cluster = tb.cluster;
  r.census = cluster.census("stream", sc.num_messages);
  r.p_loss = r.census.p_loss();
  r.p_duplicate = r.census.p_duplicate();
  r.cases = tb.tracker.census();
  r.events = tb.sim.events_executed();

  // Acked-record loss: keys the producer reported as delivered that no
  // committed log holds.
  const auto counts = cluster.committed_key_counts("stream", sc.num_messages);
  std::uint64_t acked_records = 0;
  for (std::uint64_t k = 0; k < sc.num_messages; ++k) {
    if (!tb.acked[k]) continue;
    ++acked_records;
    if (counts[k] == 0) ++r.acked_lost;
  }
  tb.acked_lost_keys = tb.sample_keys(
      [&](std::uint64_t k) { return tb.acked[k] && counts[k] == 0; });
  tb.lost_keys =
      tb.sample_keys([&](std::uint64_t k) { return counts[k] == 0; });

  r.replica_prefix_violations = cluster.replica_prefix_violations();
  r.power_losses = cluster.stats().power_losses;
  r.hard_restarts = cluster.stats().hard_restarts;
  std::uint64_t torn_tails = 0;
  for (int b = 0; b < cluster.num_brokers(); ++b) {
    const auto& bs = cluster.broker(b).stats();
    torn_tails += bs.torn_tails;
    r.recovery_prefix_violations += bs.recovery_prefix_violations;
  }

  // KPI inputs.
  r.service_rate_mu =
      1e6 / static_cast<double>(full_load_interval(sc.message_size));
  r.bandwidth_utilization_phi =
      tb.producer_conns.front().link->a_to_b.utilization();
  if (r.duration_s > 0) {
    r.delivered_throughput =
        static_cast<double>(r.census.delivered + r.census.duplicated) /
        r.duration_s;
  }
  const LatencyHistogram& latency = *tb.delivery_latency.get();
  if (latency.count() > 0) {
    r.stale_fraction = static_cast<double>(tb.stale) /
                       static_cast<double>(latency.count());
    r.mean_latency_ms = latency.mean() / 1000.0;
    r.p99_latency_ms = to_millis(latency.p99());
  }

  s["p_loss"] = r.p_loss;
  s["p_duplicate"] = r.p_duplicate;
  s["stale_fraction"] = r.stale_fraction;
  s["mean_latency_ms"] = r.mean_latency_ms;
  s["p99_latency_ms"] = r.p99_latency_ms;
  s["service_rate_mu"] = r.service_rate_mu;
  s["bandwidth_utilization_phi"] = r.bandwidth_utilization_phi;
  s["delivered_throughput"] = r.delivered_throughput;
  s["appends_observed"] = tb.appends_observed;
  s["offset_gap_violations"] = r.offset_gap_violations;
  s["acked_records"] = acked_records;
  s["acked_lost"] = r.acked_lost;
  s["replica_prefix_violations"] = r.replica_prefix_violations;
  s["power_losses"] = r.power_losses;
  s["hard_restarts"] = r.hard_restarts;
  s["torn_tails"] = torn_tails;
  s["recovery_prefix_violations"] = r.recovery_prefix_violations;
  for (int p = 0; p < tb.num_partitions; ++p) {
    s["partition_records_" + std::to_string(p)] = tb.hw_of(tb.partition_ids[p]);
  }
}

// Group-lost records: keys the committed log holds, whose every occurrence
// lies below the group's final committed offset, yet the application never
// saw — the at-most-once crash signature (commit-before-deliver moved the
// offset past an undelivered tail). Keys with an occurrence at or above the
// committed offset are merely unconsumed (the drain deadline hit), not lost.
void take_group_census(Testbed& tb) {
  if (!tb.grouped) return;
  const Scenario& sc = tb.sc;
  auto& r = tb.result;
  auto& s = tb.summary;
  const auto& coordinator = *tb.coordinator;
  struct KeyFate {
    bool in_log = false;
    bool reachable = false;
  };
  std::vector<KeyFate> fates(sc.num_messages);
  for (int p = 0; p < tb.num_partitions; ++p) {
    const auto pid = tb.partition_ids[p];
    const std::int64_t committed = coordinator.committed(pid);
    s["partition_committed_" + std::to_string(p)] = committed;
    const auto* log = tb.leader_log(pid);
    if (log == nullptr) continue;
    const auto& entries = log->entries();
    const auto end = std::min<std::int64_t>(
        log->high_watermark(), static_cast<std::int64_t>(entries.size()));
    for (std::int64_t off = 0; off < end; ++off) {
      const auto key = entries[static_cast<std::size_t>(off)].key;
      if (key >= sc.num_messages) continue;
      fates[key].in_log = true;
      if (off >= committed) fates[key].reachable = true;
    }
  }
  const auto is_group_lost = [&](std::uint64_t k) {
    return fates[k].in_log && !fates[k].reachable && tb.group.count[k] == 0;
  };
  for (std::uint64_t k = 0; k < sc.num_messages; ++k) {
    if (is_group_lost(k)) ++r.group_lost;
  }
  tb.group_lost_keys = tb.sample_keys(is_group_lost);

  const auto& gs = coordinator.stats();
  r.group_unique_delivered = tb.group.unique;
  r.group_duplicate_deliveries = tb.group.repeats;
  r.group_rebalances = gs.rebalances;
  r.group_evictions = gs.evictions;
  r.group_commits = gs.commits_accepted;
  r.group_commits_fenced = gs.commits_fenced;
  s["group_generation"] = coordinator.generation();
  s["group_rebalances"] = r.group_rebalances;
  s["group_evictions"] = r.group_evictions;
  s["group_static_rejoins"] = gs.static_rejoins;
  s["group_commits"] = r.group_commits;
  s["group_commits_fenced"] = r.group_commits_fenced;
  s["group_partitions_moved"] = gs.partitions_moved;
  s["group_offset_log_entries"] = coordinator.offset_log().size();
  s["group_records_fetched"] = r.group_records_fetched;
  s["group_records_delivered"] = tb.group.unique + tb.group.repeats;
  s["group_unique_delivered"] = r.group_unique_delivered;
  s["group_duplicate_deliveries"] = r.group_duplicate_deliveries;
  s["group_same_generation_dups"] = r.group_same_generation_dups;
  s["group_lost"] = r.group_lost;
}

// ---- report -----------------------------------------------------------------
// Structured run artifact: the scenario, the final snapshot (components
// destroyed by earlier stages, like the drain consumer, report their frozen
// final values), time series, the sampled message trace, the causal spans
// and the cluster timeline, plus the run-level summary the stages wrote.
ExperimentResult write_report(Testbed& tb,
                              std::chrono::steady_clock::time_point wall_start,
                              const obs::Profiler::Snapshot& prof_start) {
  auto& sim = tb.sim;
  auto& r = tb.result;
  const bool sampled = tb.sc.sample_interval > 0;
  if (sampled) tb.sampler.sample(sim.now());
  sim.tracer().close_open(sim.now());
  r.report = obs::build_run_report(sim.metrics(),
                                   sampled ? &tb.sampler : nullptr, &tb.trace,
                                   &sim.tracer(), &sim.timeline());
  r.report.scenario = *obs::parse_json(to_json(tb.sc));
  r.report.acked_lost_keys = std::move(tb.acked_lost_keys);
  r.report.lost_keys = std::move(tb.lost_keys);
  r.report.group_lost_keys = std::move(tb.group_lost_keys);
  auto& s = tb.summary;
  if (tb.health) {
    const auto& health = *tb.health;
    r.report.health = health.export_health();
    r.health_ticks = health.ticks();
    r.health_alerts_opened = health.alerts_opened();
    r.health_lag_alerts = std::count_if(
        health.alerts().begin(), health.alerts().end(), [](const auto& a) {
          return a.detector == obs::HealthDetector::kLagStall ||
                 a.detector == obs::HealthDetector::kLagStop;
        });
    s["health_ticks"] = r.health_ticks;
    s["health_alerts_opened"] = r.health_alerts_opened;
    s["health_alerts_resolved"] = health.alerts_resolved();
    s["health_lag_alerts"] = r.health_lag_alerts;
  }
  if (tb.adaptive) {
    s["adaptive_ticks"] = r.adaptive_ticks;
    s["adaptive_evaluations"] = r.adaptive_evaluations;
    s["adaptive_reconfigurations"] = r.adaptive_reconfigurations;
    s["adaptive_suppressed"] = r.adaptive_suppressed;
    s["adaptive_cooldown_ms"] = to_millis(r.adaptive_cooldown);
  }
  r.report.summary = std::move(s);

  // Perf metadata last, so the wall duration covers the whole run including
  // report building. Allocation counters tick whether or not the profiler
  // is armed (the hooks are process-global); section timings need it armed.
  auto& perf = r.report.perf;
  const auto prof_delta = obs::profiler().snapshot().since(prof_start);
  perf.wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  perf.peak_rss_kb = obs::peak_rss_kb();
  perf.profiled = obs::profiler().enabled();
  perf.alloc_count = prof_delta.alloc_count;
  perf.alloc_bytes = prof_delta.alloc_bytes;
  if (perf.profiled) perf.sections = prof_delta.named_sections();
  return std::move(r);
}

}  // namespace

ExperimentResult run_experiment(const Scenario& scenario) {
  // Host-side run metadata: wall-clock duration always; the self-profiler's
  // hot-path breakdown when an outer harness (ks_bench, perfbench) armed
  // it. All of it lands in the report's perf section, which
  // canonical_json() excludes, so replays stay byte-identical.
  const auto wall_start = std::chrono::steady_clock::now();
  const auto prof_start = obs::profiler().snapshot();

  // Start a new Kafka system (a fresh simulation and cluster) and create a
  // new topic.
  Testbed tb(scenario);
  // Wire producers, faults, the group and the probes. Events at the same
  // sim time run in insertion order and every link forks the simulation
  // RNG when built, so this order is part of what a seed means.
  build_topology(tb);
  schedule_faults(tb);
  start_sampler(tb);
  build_group(tb);
  start_monitors(tb);
  // Run the producers while the faults are injected, then drain.
  run_producers(tb);
  drain_consumer(tb);
  drain_group(tb);
  // Count unique keys.
  take_census(tb);
  take_group_census(tb);
  return write_report(tb, wall_start, prof_start);
}

}  // namespace ks::testbed
