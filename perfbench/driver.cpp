// The repo benchmark driver: one workload per process.
//
// A workload is a closed loop of testbed::run_experiment calls made back
// to back in this thread: each experiment starts when the previous one
// returns. Every experiment seed derives from --seed. Each round runs the
// workload's experiments at N (timed) and again at N/4 on the same seed
// (the linearity probe behind ns_per_msg_growth). Every result is checked
// with chaos::check_invariants under the workload's guarantees, and on the
// default seed its message fates are compared with reference_fates.txt.
//
//   --trace 0  measures for --seconds and prints the end-to-end metrics.
//   --trace 1  runs the same untraced loop, replays its experiments with
//              the self-profiler armed (traced arm) and with observability
//              off (obs-off arm), checks that both reproduce the untraced
//              fates, runs the layer drivers, and prints per-layer metrics.
//
// Human-readable lines go first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 on any failed
// check, 2 on bad arguments.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/generator.hpp"
#include "chaos/invariants.hpp"
#include "common/rng.hpp"
#include "kafka/log.hpp"
#include "net/delay_model.hpp"
#include "net/link.hpp"
#include "net/loss_model.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "testbed/calibration.hpp"
#include "testbed/experiment.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ks;
using Clock = std::chrono::steady_clock;

// Initialized before main(): setup_s counts from here.
const Clock::time_point g_process_start = Clock::now();

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupReps = 5;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// ---------------------------------------------------------------------------
// Benchmark-side spans around every call the benchmark makes into a layer.
// Kept in memory, written as Chrome trace-event JSON when the run ends.

class BenchTrace {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(),
                      now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i ? "," : "", s.name.c_str(), s.begin_ns / 1e3,
                    (s.end_ns - s.begin_ns) / 1e3, i, s.parent);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::uint64_t now_ns() { return ns_between(g_process_start, Clock::now()); }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

BenchTrace g_trace;

class BenchSpan {
 public:
  explicit BenchSpan(std::string name) : id_(g_trace.open(std::move(name))) {}
  ~BenchSpan() { g_trace.close(id_); }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  std::uint64_t n = 0;        ///< Messages per timed experiment.
  std::uint64_t smoke_n = 0;  ///< Messages per experiment under --smoke.
  /// Share of EventQueue pushes later cancelled, measured at commit
  /// 3e9db5b with a counting build of the event queue (the simulator does
  /// not export it); drives the queue layer driver.
  double cancel_share = 0.0;
  /// An invariant the workload cannot promise; its violations are counted
  /// and printed but do not fail the run. Empty: none.
  std::string waived;
  /// The experiments of one round at `n` messages, all on `seed`.
  std::function<std::vector<chaos::ChaosScenario>(std::uint64_t seed,
                                                  std::uint64_t n)>
      round;
};

chaos::ChaosScenario paper_scale(std::uint64_t seed, std::uint64_t n) {
  // Scenario defaults: real-time full-load source, at-least-once, B = 1,
  // clean LAN, broker regimes on, observability on.
  chaos::ChaosScenario cs;
  cs.chaos_seed = seed;
  cs.scenario.num_messages = n;
  cs.scenario.seed = seed;
  return cs;
}

chaos::ChaosScenario lossy(std::uint64_t seed, std::uint64_t n,
                           kafka::DeliverySemantics semantics) {
  // The Table-I shape: L = 19% Bernoulli loss, D = 100 ms.
  chaos::ChaosScenario cs;
  cs.chaos_seed = seed;
  auto& sc = cs.scenario;
  sc.message_size = 100;
  sc.network_delay = millis(100);
  sc.packet_loss = 0.19;
  sc.message_timeout = millis(2000);
  sc.request_timeout = millis(1200);
  sc.source_interval = micros(4000);
  sc.semantics = semantics;
  sc.num_messages = n;
  sc.seed = seed;
  cs.expect_no_duplicates =
      semantics != kafka::DeliverySemantics::kAtLeastOnce;
  return cs;
}

chaos::ChaosScenario group_replicated(std::uint64_t seed, std::uint64_t n) {
  chaos::ChaosScenario cs;
  cs.chaos_seed = seed;
  auto& sc = cs.scenario;
  sc.semantics = kafka::DeliverySemantics::kExactlyOnce;  // acks=all, idempotent
  sc.replication_factor = 3;
  sc.min_insync_replicas = 2;
  sc.partitions = 4;
  sc.partitioner = kafka::PartitionerKind::kKeyed;
  sc.group_size = 3;
  sc.group_strategy = kafka::AssignmentStrategy::kCooperativeSticky;
  sc.group_commit_mode = kafka::CommitMode::kCommitAfterDeliver;
  sc.source_mode = testbed::SourceMode::kOnDemand;
  sc.num_messages = n;
  sc.seed = seed;
  cs.expect_no_loss = true;
  cs.expect_no_duplicates = true;
  cs.expect_no_acked_loss = true;
  cs.expect_group_no_loss = true;
  return cs;
}

std::vector<Workload> workloads() {
  using kafka::DeliverySemantics;
  return {
      {"paper_scale", 32000, 600, 0.165, "",
       [](std::uint64_t seed, std::uint64_t n) {
         return std::vector<chaos::ChaosScenario>{paper_scale(seed, n)};
       }},
      {"lossy_sweep", 4000, 300, 0.033, "",
       [](std::uint64_t seed, std::uint64_t n) {
         return std::vector<chaos::ChaosScenario>{
             lossy(seed, n, DeliverySemantics::kAtMostOnce),
             lossy(seed, n, DeliverySemantics::kAtLeastOnce),
             lossy(seed, n, DeliverySemantics::kExactlyOnce)};
       }},
      // health-precision assumes a fault-free run never stalls commits. A
      // member commits only after processing its whole fetched batch at
      // 500 us/record, which keeps the committed offset frozen for more
      // than the lag_stall window, so every run raises lag alerts.
      {"group_replicated", 8000, 400, 0.233, "health-precision",
       [](std::uint64_t seed, std::uint64_t n) {
         return std::vector<chaos::ChaosScenario>{group_replicated(seed, n)};
       }},
  };
}

// ---------------------------------------------------------------------------
// One experiment: run, check, and keep what the metrics need.

enum class Arm { kUntraced, kTraced, kObsOff };

const char* to_string(Arm arm) {
  switch (arm) {
    case Arm::kUntraced: return "untraced";
    case Arm::kTraced: return "traced";
    case Arm::kObsOff: return "obs_off";
  }
  return "?";
}

/// The message fates of one experiment: what must not change between the
/// arms of a run, nor from the recorded reference on the default seed.
struct Fates {
  std::uint64_t delivered = 0, duplicated = 0, lost = 0;
  std::array<std::uint64_t, 6> cases{};
  std::uint64_t group_unique = 0, group_lost = 0, acked_lost = 0;
  /// Digest of the anomalous-key lists that are complete (below the
  /// report's 32-key cap), sorted, so sampling order cannot change it.
  std::uint64_t keys_digest = kFnvBasis;

  static Fates of(const testbed::ExperimentResult& r) {
    Fates f;
    f.delivered = r.census.delivered;
    f.duplicated = r.census.duplicated;
    f.lost = r.census.lost;
    f.cases = r.cases.cases;
    f.group_unique = r.group_unique_delivered;
    f.group_lost = r.group_lost;
    f.acked_lost = r.acked_lost;
    for (const auto* list : {&r.report.lost_keys, &r.report.acked_lost_keys,
                             &r.report.group_lost_keys}) {
      std::vector<std::uint64_t> keys = *list;
      if (keys.size() >= 32) keys.clear();
      std::sort(keys.begin(), keys.end());
      const std::uint64_t size = list->size();
      f.keys_digest = fnv1a(f.keys_digest, &size, sizeof(size));
      f.keys_digest =
          fnv1a(f.keys_digest, keys.data(), keys.size() * sizeof(keys[0]));
    }
    return f;
  }

  std::string str() const {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "delivered=%" PRIu64 " duplicated=%" PRIu64 " lost=%" PRIu64
                  " cases=%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  ",%" PRIu64 ",%" PRIu64 " group_unique=%" PRIu64
                  " group_lost=%" PRIu64 " acked_lost=%" PRIu64
                  " keys=%016" PRIx64,
                  delivered, duplicated, lost, cases[0], cases[1], cases[2],
                  cases[3], cases[4], cases[5], group_unique, group_lost,
                  acked_lost, keys_digest);
    return buf;
  }
};

/// Sum of a metric's final values over all its label sets.
double metric_sum(const obs::RunReport& report, const std::string& name) {
  double sum = 0.0;
  for (const auto& m : report.metrics) {
    if (m.name == name) sum += m.value;
  }
  return sum;
}

/// Per-experiment counters the per-layer metrics are built from.
struct Counts {
  double events = 0, link_offered = 0, link_dropped = 0, tcp_sent = 0,
         tcp_retrans = 0, batches_sent = 0, batches_retried = 0,
         broker_fetches = 0, replica_fetches = 0, group_fetched = 0,
         group_unique = 0, group_commits = 0, consumer_records = 0;

  static Counts of(const testbed::ExperimentResult& r) {
    const auto& rep = r.report;
    Counts c;
    c.events = static_cast<double>(r.events);
    c.link_offered = metric_sum(rep, "link_packets_offered_total");
    c.link_dropped = metric_sum(rep, "link_packets_dropped_total");
    c.tcp_sent = metric_sum(rep, "tcp_segments_sent_total");
    c.tcp_retrans = metric_sum(rep, "tcp_retransmissions_total");
    c.batches_sent = metric_sum(rep, "kafka_producer_batches_sent_total");
    c.batches_retried = metric_sum(rep, "kafka_producer_batches_retried_total");
    c.broker_fetches = metric_sum(rep, "kafka_broker_fetch_requests_total");
    c.replica_fetches = metric_sum(rep, "kafka_broker_replica_fetches_total");
    c.group_fetched = static_cast<double>(r.group_records_fetched);
    c.group_unique = static_cast<double>(r.group_unique_delivered);
    c.group_commits = static_cast<double>(r.group_commits);
    c.consumer_records = static_cast<double>(r.consumer_records);
    return c;
  }

  void add(const Counts& o) {
    events += o.events;
    link_offered += o.link_offered;
    link_dropped += o.link_dropped;
    tcp_sent += o.tcp_sent;
    tcp_retrans += o.tcp_retrans;
    batches_sent += o.batches_sent;
    batches_retried += o.batches_retried;
    broker_fetches += o.broker_fetches;
    replica_fetches += o.replica_fetches;
    group_fetched += o.group_fetched;
    group_unique += o.group_unique;
    group_commits += o.group_commits;
    consumer_records += o.consumer_records;
  }
};

struct Experiment {
  std::uint64_t round = 0;
  std::size_t slot = 0;  ///< Position within the round.
  bool main = true;      ///< At N (timed); false for the N/4 companion.
  std::uint64_t n = 0;
  std::uint64_t wall_ns = 0;
  obs::Profiler::Snapshot prof;  ///< Profiler delta over run_experiment.
  Fates fates;
  Counts counts;
  std::uint64_t canonical_digest = 0;  ///< Traced runs only.
  std::vector<double> pending;         ///< sim_pending_events samples.
  std::vector<std::string> violations;
};

/// Experiments attempted and failed across the whole process, and waived
/// invariant violations seen.
std::uint64_t g_attempted = 0;
std::uint64_t g_failed = 0;
std::uint64_t g_waived = 0;

void fail(Experiment& e, std::string why) { e.violations.push_back(std::move(why)); }

Experiment run_one(const chaos::ChaosScenario& planned, Arm arm,
                   bool want_canonical, const std::string& waived) {
  chaos::ChaosScenario cs = planned;
  if (arm == Arm::kObsOff) {
    cs.scenario.spans_enabled = false;
    cs.scenario.health_enabled = false;
    cs.scenario.sample_interval = 0;
    // The message trace has no off switch: sample key 0 only.
    cs.scenario.trace_sample_every = std::numeric_limits<std::uint64_t>::max();
  }

  Experiment e;
  e.n = cs.scenario.num_messages;
  std::optional<testbed::ExperimentResult> result;
  {
    BenchSpan span("testbed::run_experiment");
    const auto snap = obs::profiler().snapshot();
    const auto t0 = Clock::now();
    result.emplace(testbed::run_experiment(cs.scenario));
    e.wall_ns = ns_between(t0, Clock::now());
    e.prof = obs::profiler().snapshot().since(snap);
  }
  const auto& r = *result;
  {
    BenchSpan span("chaos::check_invariants");
    for (const auto& v : chaos::check_invariants(cs, r)) {
      if (v.invariant == waived) {
        ++g_waived;
      } else {
        fail(e, v.invariant + ": " + v.detail);
      }
    }
  }
  // What the workloads promise beyond the invariant library: group runs
  // deliver every key to the group, and every run finishes in sim time.
  if (!r.completed) fail(e, "producer did not finish before the sim-time cap");
  if (cs.scenario.group_size > 0 &&
      r.group_unique_delivered != cs.scenario.num_messages) {
    fail(e, "group delivered " + std::to_string(r.group_unique_delivered) +
                " of " + std::to_string(cs.scenario.num_messages) + " keys");
  }
  if (want_canonical) {
    BenchSpan span("obs::RunReport::canonical_json");
    const std::string json = r.report.canonical_json();
    e.canonical_digest = fnv1a(kFnvBasis, json.data(), json.size());
  }
  e.fates = Fates::of(r);
  e.counts = Counts::of(r);
  for (const auto& s : r.report.series) {
    if (s.name == "sim_pending_events") e.pending = s.v;
  }
  return e;
}

// ---------------------------------------------------------------------------
// Reference fates for the default seed (reference_fates.txt): one line per
// experiment, "<workload> <scale> <round> <slot> <main|quarter> <fates>".

using ReferenceKey = std::string;

ReferenceKey reference_key(const std::string& workload, bool smoke,
                           const Experiment& e) {
  return workload + (smoke ? " smoke " : " full ") + std::to_string(e.round) +
         " " + std::to_string(e.slot) + (e.main ? " main" : " quarter");
}

std::map<ReferenceKey, std::string> load_reference(const std::string& path) {
  std::map<ReferenceKey, std::string> ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The key is the first five space-separated fields.
    std::size_t pos = 0;
    for (int field = 0; field < 5 && pos != std::string::npos; ++field) {
      pos = line.find(' ', pos + (field ? 1 : 0));
    }
    if (pos == std::string::npos) continue;
    ref[line.substr(0, pos)] = line.substr(pos + 1);
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Layer drivers. Each drives one layer directly with the workload's
// parameters and checks its own output, so a driver that skips work fails
// instead of looking fast.

struct DriverResult {
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;
};

/// sim::EventQueue at the workload's pending depth and cancel share: pop
/// the earliest event, push a successor, and with probability
/// `cancel_share` cancel a recently pushed pending event and push its
/// replacement (a timer re-arm). Pops must come out in (time, insertion)
/// order and never run a cancelled event.
DriverResult drive_event_queue(std::size_t depth, double cancel_share,
                               std::uint64_t pops, std::uint64_t seed) {
  DriverResult out;
  struct Check {
    std::vector<std::uint8_t> state;  ///< 0 pending, 1 popped, 2 cancelled.
    TimePoint last_time = -1;
    std::uint64_t last_seq = 0;
    std::uint64_t bad = 0;
    void on_pop(std::uint64_t seq, TimePoint t) {
      if (state[seq] != 0) ++bad;
      if (t < last_time || (t == last_time && seq < last_seq)) ++bad;
      state[seq] = 1;
      last_time = t;
      last_seq = seq;
    }
  } ck;
  sim::EventQueue q;
  Rng rng(seed);
  std::vector<sim::EventId> ids;
  ids.reserve(depth + pops * 2 + 1);
  ck.state.reserve(ids.capacity());
  const auto span = static_cast<std::int64_t>(2 * depth);
  auto push = [&](TimePoint t) {
    const std::uint64_t seq = ids.size();
    ck.state.push_back(0);
    // Captures 24 bytes, like the simulator's callbacks.
    ids.push_back(q.push(t, [&ck, seq, t] { ck.on_pop(seq, t); }));
  };
  for (std::size_t i = 0; i < depth; ++i) push(rng.uniform_int(0, span));

  std::uint64_t cancels = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < pops; ++k) {
    auto ev = q.pop();
    ev.fn();
    push(ev.time + rng.uniform_int(0, span));
    if (rng.bernoulli(cancel_share)) {
      const auto window =
          static_cast<std::int64_t>(std::min<std::size_t>(depth, ids.size()));
      const std::uint64_t seq =
          ids.size() - 1 - static_cast<std::uint64_t>(rng.uniform_int(0, window - 1));
      if (ck.state[seq] == 0) {
        if (!q.cancel(ids[seq])) ++ck.bad;
        ck.state[seq] = 2;
        ++cancels;
        push(ev.time + rng.uniform_int(0, span));
      }
    }
  }
  const auto wall = ns_between(t0, Clock::now());

  // Everything still pending must pop, in order, and nothing cancelled.
  const auto pending = static_cast<std::size_t>(
      std::count(ck.state.begin(), ck.state.end(), std::uint8_t{0}));
  if (q.size() != pending) {
    out.errors.push_back("event queue holds " + std::to_string(q.size()) +
                         " events, expected " + std::to_string(pending));
  }
  while (!q.empty()) q.pop().fn();
  if (std::count(ck.state.begin(), ck.state.end(), std::uint8_t{0}) != 0) {
    out.errors.push_back("event queue lost pending events");
  }
  if (ck.bad != 0) {
    out.errors.push_back(std::to_string(ck.bad) +
                         " event-queue pops out of order or cancelled");
  }
  if (cancel_share > 0.0 && cancels == 0) {
    out.errors.push_back("event-queue driver cancelled nothing");
  }
  out.metrics["sim.queue_ns_per_event"] = static_cast<double>(wall) / pops;
  return out;
}

/// net::DuplexLink send -> receiver with the workload's delay and loss on
/// the forward direction, paced just under line rate. The receiver must see
/// exactly what was offered minus what the link dropped, each packet once.
DriverResult drive_link(Duration delay, double loss, std::uint64_t packets,
                        std::uint64_t seed) {
  DriverResult out;
  sim::Simulation sim(seed);
  net::Link::Config config;
  config.bandwidth_bps = testbed::kLinkBandwidthBps;
  config.queue_capacity = testbed::kLinkQueueCapacity;
  std::shared_ptr<net::LossModel> loss_model;
  if (loss > 0.0) {
    loss_model = std::make_shared<net::BernoulliLoss>(loss);
  } else {
    loss_model = std::make_shared<net::NoLoss>();
  }
  net::DuplexLink link(
      sim, config,
      std::make_shared<net::ConstantDelay>(testbed::kBaseLanDelay + delay),
      loss_model, std::make_shared<net::ConstantDelay>(testbed::kBaseLanDelay),
      std::make_shared<net::NoLoss>(), "perfbench");
  std::vector<std::uint8_t> seen(packets + 1, 0);
  std::uint64_t received = 0, repeats = 0;
  link.a_to_b.set_receiver([&](net::Packet p) {
    if (p.id == 0 || p.id > packets || seen[p.id]) {
      ++repeats;
    } else {
      seen[p.id] = 1;
    }
    ++received;
  });
  constexpr Bytes kPacketBytes = 1500;
  constexpr Duration kGap = micros(130);  // 1500 B take 120 us at 100 Mbit/s.
  std::uint64_t sent = 0;
  std::function<void()> tick = [&] {
    link.a_to_b.send(net::Packet{0, kPacketBytes,
                                 std::make_shared<const std::uint64_t>(sent)});
    if (++sent < packets) sim.after(kGap, tick);
  };
  sim.after(0, tick);
  const auto t0 = Clock::now();
  sim.run();
  const auto wall = ns_between(t0, Clock::now());

  const auto& st = link.a_to_b.stats();
  const std::uint64_t expected =
      st.packets_offered - st.packets_lost - st.packets_dropped_queue;
  if (st.packets_offered != packets || received != expected ||
      received != st.packets_delivered || repeats != 0) {
    out.errors.push_back(
        "link offered " + std::to_string(st.packets_offered) + ", lost " +
        std::to_string(st.packets_lost) + ", queue-dropped " +
        std::to_string(st.packets_dropped_queue) + ", receiver saw " +
        std::to_string(received) + " (" + std::to_string(repeats) +
        " repeats)");
  }
  out.metrics["net.ns_per_packet"] = static_cast<double>(wall) / packets;
  return out;
}

/// kafka::PartitionLog::append of `batch`-record batches up to `length`
/// records; ns/record overall and in two windows (ending at one quarter
/// and at the full length), and allocated bytes per record. Offsets must
/// be contiguous and read back equal to what was appended.
DriverResult drive_log(std::uint64_t length, std::uint64_t batch,
                       Bytes value_size, bool idempotent, int reps) {
  DriverResult out;
  std::vector<double> ns_per_record, growth, bytes_per_record;
  const std::uint64_t w = std::max<std::uint64_t>(length / 16, batch);
  const std::uint64_t q_end = length / 4, q_begin = q_end - std::min(w, q_end);
  const std::uint64_t f_begin = length - w;
  for (int rep = 0; rep < reps; ++rep) {
    kafka::PartitionLog log;
    std::vector<kafka::Record> records(batch);
    std::uint64_t key = 0, bad = 0;
    Clock::time_point t_q0{}, t_q1{}, t_f0{};
    std::uint64_t k_q0 = 0, k_q1 = 0, k_f0 = 0;
    const auto snap = obs::profiler().snapshot();
    const auto t0 = Clock::now();
    while (key < length) {
      const auto now = Clock::now();
      if (k_q0 == 0 && key >= q_begin) { t_q0 = now; k_q0 = key + 1; }
      if (k_q1 == 0 && key >= q_end) { t_q1 = now; k_q1 = key + 1; }
      if (k_f0 == 0 && key >= f_begin) { t_f0 = now; k_f0 = key + 1; }
      const std::uint64_t b = std::min(batch, length - key);
      for (std::uint64_t i = 0; i < b; ++i) {
        records[i] = kafka::Record{key + i, value_size, 0, 1};
      }
      const auto res = log.append(
          std::span<const kafka::Record>(records.data(), b),
          static_cast<TimePoint>(key), idempotent ? 1 : 0,
          idempotent ? static_cast<std::int64_t>(key) : -1);
      if (res.error != kafka::ErrorCode::kNone || res.deduplicated ||
          res.base_offset != static_cast<std::int64_t>(key)) {
        ++bad;
      }
      key += b;
    }
    const auto t_end = Clock::now();
    const auto alloc = obs::profiler().snapshot().since(snap);

    const auto entries = log.read(0, length);
    if (entries.size() != length) ++bad;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].offset != static_cast<std::int64_t>(i) ||
          entries[i].key != i) {
        ++bad;
        break;
      }
    }
    if (bad != 0) {
      out.errors.push_back("partition log: " + std::to_string(bad) +
                           " appends or read-backs wrong");
    }
    const double window_q =
        static_cast<double>(ns_between(t_q0, t_q1)) / static_cast<double>(k_q1 - k_q0);
    const double window_f =
        static_cast<double>(ns_between(t_f0, t_end)) /
        static_cast<double>(length + 1 - k_f0);
    ns_per_record.push_back(static_cast<double>(ns_between(t0, t_end)) / length);
    growth.push_back(window_f / window_q);
    bytes_per_record.push_back(static_cast<double>(alloc.alloc_bytes) / length);
  }
  out.metrics["log.append_ns_per_record"] = median(ns_per_record);
  out.metrics["log.append_growth"] = median(growth);
  out.metrics["log.alloc_bytes_per_record"] = median(bytes_per_record);
  return out;
}

/// An enabled obs::SpanTracer at the workload's capacity and sampling:
/// begin/end pairs for consecutive keys. The ring must hold exactly
/// min(sampled, capacity) spans and count the rest as dropped.
DriverResult drive_spans(std::size_t capacity, std::uint64_t sample_every,
                         std::uint64_t pairs) {
  DriverResult out;
  obs::SpanTracer tracer(capacity, sample_every);
  const auto t0 = Clock::now();
  for (std::uint64_t key = 0; key < pairs; ++key) {
    const auto t = static_cast<TimePoint>(key);
    const obs::SpanId id = tracer.begin(t, obs::SpanKind::kProduceBatch,
                                        obs::kTrackProducer, 0, key);
    tracer.end(t + 1, id);
  }
  const auto wall = ns_between(t0, Clock::now());
  const std::uint64_t sampled = (pairs + sample_every - 1) / sample_every;
  const std::uint64_t held = std::min<std::uint64_t>(sampled, capacity);
  const auto spans = tracer.spans();
  if (spans.size() != held || tracer.started() != sampled ||
      tracer.dropped() != sampled - held || tracer.open_count() != 0) {
    out.errors.push_back("span ring holds " + std::to_string(spans.size()) +
                         " of " + std::to_string(sampled) +
                         " sampled spans, expected " + std::to_string(held));
  }
  out.metrics["obs.span_pair_ns"] = static_cast<double>(wall) / pairs;
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

void print_metric(const Metric& m) {
  std::printf("%-34s %.6g %s (samples=%" PRIu64 ")\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

std::string json_line(bool correct, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << g_attempted << ", \"failed\": " << g_failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string reference;         ///< Reference fates to compare against.
  std::string record_reference;  ///< Append this run's fates here instead.
  std::string trace_out;         ///< Bench span output (traced runs).
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--reference FILE] "
               "[--record-reference FILE] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = std::stoi(value()) != 0;
      else if (arg == "--smoke") o.smoke = true;
      else if (arg == "--reference") o.reference = value();
      else if (arg == "--record-reference") o.record_reference = value();
      else if (arg == "--trace-out") o.trace_out = value();
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// The experiments of a run, per arm, in run order.
struct Arms {
  std::vector<Experiment> untraced, traced, obs_off;
};

/// Plans the workload's rounds from the seed and runs them.
class Runner {
 public:
  Runner(const Options& opt, const Workload& wl)
      : opt_(opt), wl_(wl), n_(opt.smoke ? wl.smoke_n : wl.n) {
    if (!opt.reference.empty() && opt.seed == kDefaultSeed) {
      reference_ = load_reference(opt.reference);
    }
  }

  std::uint64_t n() const { return n_; }

  std::uint64_t round_seed(std::uint64_t round) const {
    std::uint64_t salt = fnv1a(kFnvBasis, wl_.name.data(), wl_.name.size());
    return chaos::scenario_seed(opt_.seed ^ salt, round);
  }

  /// The warm-up: round 0 at N, untimed, checked like the rest. It lets
  /// the allocator and caches reach the state the timed rounds run in.
  void warm_up() {
    BenchSpan span("setup.warm_up");
    for (const auto& cs : wl_.round(round_seed(0), n_)) {
      Experiment e = run_one(cs, Arm::kUntraced, false, wl_.waived);
      account(e, Arm::kUntraced);
    }
  }

  /// Runs rounds 0, 1, ... until `deadline` passes (at least one round).
  /// Each experiment of a round runs at N and then at N/4. A traced run
  /// runs every experiment once per arm, rotating the arm order from one
  /// experiment to the next so that no arm always goes first, and fails
  /// an arm whose fates differ from the untraced arm's.
  Arms run(Clock::time_point deadline, bool traced) {
    Arms out;
    std::uint64_t k = 0;
    for (std::uint64_t r = 0; r == 0 || Clock::now() < deadline; ++r) {
      const auto mains = wl_.round(round_seed(r), n_);
      for (std::size_t slot = 0; slot < mains.size(); ++slot) {
        for (bool main : {true, false}) {
          auto cs = mains[slot];
          if (!main) cs.scenario.num_messages = std::max<std::uint64_t>(n_ / 4, 1);
          std::vector<Arm> order{Arm::kUntraced};
          if (traced) order = {Arm::kUntraced, Arm::kTraced, Arm::kObsOff};
          std::rotate(order.begin(), order.begin() + (k++ % order.size()),
                      order.end());
          std::map<Arm, Experiment> got;
          for (Arm arm : order) {
            obs::profiler().enable(arm == Arm::kTraced);
            Experiment e = run_one(cs, arm, traced, wl_.waived);
            obs::profiler().enable(false);
            e.round = r;
            e.slot = slot;
            e.main = main;
            check_reference(e, arm);
            got.emplace(arm, std::move(e));
          }
          for (auto& [arm, e] : got) {
            const auto& base = got.at(Arm::kUntraced);
            if (e.fates.str() != base.fates.str() ||
                (arm == Arm::kTraced &&
                 e.canonical_digest != base.canonical_digest)) {
              fail(e, "the run differs from the untraced arm's");
            }
            account(e, arm);
          }
          out.untraced.push_back(std::move(got.at(Arm::kUntraced)));
          if (traced) {
            out.traced.push_back(std::move(got.at(Arm::kTraced)));
            out.obs_off.push_back(std::move(got.at(Arm::kObsOff)));
          }
        }
      }
    }
    return out;
  }

 private:
  std::ofstream& record_out() {
    if (!record_.is_open()) record_.open(opt_.record_reference, std::ios::app);
    return record_;
  }

  void check_reference(Experiment& e, Arm arm) {
    if (arm != Arm::kUntraced || opt_.seed != kDefaultSeed) return;
    const auto key = reference_key(wl_.name, opt_.smoke, e);
    if (!opt_.record_reference.empty()) {
      record_out() << key << " " << e.fates.str() << "\n";
      return;
    }
    const auto it = reference_.find(key);
    if (it != reference_.end() && it->second != e.fates.str()) {
      fail(e, "fates differ from the reference: got " + e.fates.str() +
                  ", expected " + it->second);
    }
  }

  void account(const Experiment& e, Arm arm) {
    ++g_attempted;
    if (e.violations.empty()) return;
    ++g_failed;
    for (const auto& v : e.violations) {
      std::fprintf(stderr, "FAIL %s round %" PRIu64 " slot %zu n=%" PRIu64 ": %s\n",
                   to_string(arm), e.round, e.slot, e.n, v.c_str());
    }
  }

  const Options& opt_;
  const Workload& wl_;
  std::uint64_t n_;
  std::map<ReferenceKey, std::string> reference_;
  std::ofstream record_;
};

double sum_wall(const std::vector<Experiment>& xs, bool mains_only) {
  double s = 0;
  for (const auto& e : xs) {
    if (!mains_only || e.main) s += static_cast<double>(e.wall_ns);
  }
  return s;
}

/// The end-to-end metrics of an untraced arm.
std::vector<Metric> end_to_end(const std::vector<Experiment>& xs,
                               const std::vector<double>& setup_s) {
  std::vector<double> walls_ms;
  double msgs = 0, wall = 0, allocs = 0, bytes = 0;
  double quarter_msgs = 0, quarter_wall = 0;
  std::uint64_t quarters = 0;
  for (const auto& e : xs) {
    if (!e.main) {
      quarter_msgs += static_cast<double>(e.n);
      quarter_wall += static_cast<double>(e.wall_ns);
      ++quarters;
      continue;
    }
    walls_ms.push_back(static_cast<double>(e.wall_ns) / 1e6);
    msgs += static_cast<double>(e.n);
    wall += static_cast<double>(e.wall_ns);
    allocs += static_cast<double>(e.prof.alloc_count);
    bytes += static_cast<double>(e.prof.alloc_bytes);
  }
  // Every main experiment has an N/4 companion on the same seed, so the
  // two sums cover the same seeds.
  const double growth = (wall / msgs) / (quarter_wall / quarter_msgs);
  const auto n = static_cast<std::uint64_t>(walls_ms.size());
  return {
      {"msgs_per_s", msgs / (wall / 1e9), "msg/s", n},
      {"exp_wall_ms_p50", median(walls_ms), "ms", n},
      {"ns_per_msg_growth", growth, "ratio", quarters},
      {"allocs_per_msg", allocs / msgs, "allocs/msg", n},
      {"alloc_bytes_per_msg", bytes / msgs, "bytes/msg", n},
      {"peak_rss_mb", static_cast<double>(obs::peak_rss_kb()) / 1024.0, "MB", 1},
      {"setup_s", median(setup_s), "s", static_cast<std::uint64_t>(setup_s.size())},
  };
}

/// The highest percentile with at least ten experiments beyond it, when
/// there are enough experiments for one.
void print_tail(const std::vector<Experiment>& xs) {
  std::vector<double> walls_ms;
  for (const auto& e : xs) {
    if (e.main) walls_ms.push_back(static_cast<double>(e.wall_ns) / 1e6);
  }
  if (walls_ms.size() < 20) {
    std::printf("%-34s n/a (samples=%zu, needs 20)\n", "exp_wall_ms_tail",
                walls_ms.size());
    return;
  }
  std::sort(walls_ms.begin(), walls_ms.end());
  const std::size_t idx = walls_ms.size() - 11;
  const double pct = 100.0 * static_cast<double>(idx + 1) / walls_ms.size();
  std::printf("%-34s %.6g ms at p%.0f (samples=%zu)\n", "exp_wall_ms_tail",
              walls_ms[idx], pct, walls_ms.size());
}

/// The per-layer metrics of a traced run.
std::vector<Metric> per_layer(const Options& opt, const Workload& wl,
                              const Runner& runner, const Arms& arms,
                              std::vector<std::string>& driver_errors) {
  const auto& untraced = arms.untraced;
  const auto& traced = arms.traced;
  Counts c;
  obs::Profiler::Snapshot prof;
  double msgs = 0, run_ns = 0;
  std::uint64_t mains = 0;
  for (const auto& e : traced) {
    if (!e.main) continue;
    ++mains;
    c.add(e.counts);
    msgs += static_cast<double>(e.n);
    run_ns += static_cast<double>(e.wall_ns);
    for (std::size_t k = 0; k < obs::kProfKeyCount; ++k) {
      prof.sections[k].calls += e.prof.sections[k].calls;
      prof.sections[k].total_ns += e.prof.sections[k].total_ns;
    }
    prof.alloc_count += e.prof.alloc_count;
  }
  const auto sec = [&](obs::ProfKey k) { return prof.section(k); };
  const double dispatch_ns = static_cast<double>(sec(obs::ProfKey::kEventDispatch).total_ns);
  const auto tcp = sec(obs::ProfKey::kTcpSegment);
  const auto produce = sec(obs::ProfKey::kBrokerProduce);
  const auto fetch = sec(obs::ProfKey::kBrokerFetch);
  const auto report = sec(obs::ProfKey::kReportBuild);
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // Layer drivers, parameterized from the workload's first experiment.
  const auto first = wl.round(runner.round_seed(0), runner.n()).front();
  const auto& sc = first.scenario;
  std::vector<double> pending;
  for (const auto& e : untraced) {
    if (e.main && !e.pending.empty()) {
      pending = e.pending;
      break;
    }
  }
  const auto depth = static_cast<std::size_t>(std::max(1.0, median(pending)));
  const std::uint64_t scale = opt.smoke ? 16 : 1;
  const std::uint64_t span_every =
      sc.span_sample_every > 0 ? sc.span_sample_every
                               : std::max<std::uint64_t>(sc.num_messages / 64, 1);
  DriverResult drivers;
  const auto merge = [&](DriverResult d) {
    for (auto& [k, v] : d.metrics) drivers.metrics[k] = v;
    for (auto& err : d.errors) driver_errors.push_back(std::move(err));
  };
  {
    BenchSpan span("driver.sim::EventQueue");
    merge(drive_event_queue(depth, wl.cancel_share, 2'000'000 / scale, opt.seed));
  }
  {
    BenchSpan span("driver.net::DuplexLink");
    merge(drive_link(sc.network_delay, sc.packet_loss, 200'000 / scale, opt.seed));
  }
  {
    BenchSpan span("driver.kafka::PartitionLog");
    const auto partitions = static_cast<std::uint64_t>(std::max(sc.partitions, 1));
    merge(drive_log(std::max<std::uint64_t>(sc.num_messages / partitions, 64),
                    static_cast<std::uint64_t>(std::max(sc.batch_size, 1)),
                    sc.message_size,
                    sc.semantics == kafka::DeliverySemantics::kExactlyOnce, 3));
  }
  {
    BenchSpan span("driver.obs::SpanTracer");
    merge(drive_spans(sc.span_capacity, span_every,
                      std::max<std::uint64_t>(span_every * sc.span_capacity * 2,
                                              1'000'000) / scale));
  }

  const double bench_run_ns = run_ns;
  const double untraced_wall = sum_wall(untraced, false);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>> values = {
      {"sim.events_per_msg", {per(c.events, msgs), "events/msg"}},
      {"sim.allocs_per_event",
       {per(static_cast<double>(prof.alloc_count), c.events), "allocs/event"}},
      {"sim.queue_ns_per_event", {drivers.metrics["sim.queue_ns_per_event"], "ns/event"}},
      {"sim.dispatch_other_ns_per_event",
       {per(dispatch_ns - static_cast<double>(tcp.total_ns) -
                static_cast<double>(produce.total_ns),
            c.events),
        "ns/event"}},
      {"testbed.outside_dispatch_share",
       {1.0 - per(dispatch_ns + static_cast<double>(report.total_ns), bench_run_ns),
        "share"}},
      {"net.packets_per_msg", {per(c.link_offered, msgs), "packets/msg"}},
      {"net.drop_ratio", {per(c.link_dropped, c.link_offered), "ratio"}},
      {"net.ns_per_packet", {drivers.metrics["net.ns_per_packet"], "ns/packet"}},
      {"tcp.segments_per_msg", {per(static_cast<double>(tcp.calls), msgs), "segments/msg"}},
      {"tcp.retransmit_ratio", {per(c.tcp_retrans, c.tcp_sent), "ratio"}},
      {"tcp.segment_ns",
       {per(static_cast<double>(tcp.total_ns), static_cast<double>(tcp.calls)), "ns"}},
      {"producer.batches_per_msg", {per(c.batches_sent, msgs), "batches/msg"}},
      {"producer.retry_ratio", {per(c.batches_retried, c.batches_sent), "ratio"}},
      {"broker.produce_ns",
       {per(static_cast<double>(produce.total_ns), static_cast<double>(produce.calls)),
        "ns"}},
      {"broker.produce_share",
       {per(static_cast<double>(produce.total_ns), bench_run_ns), "share"}},
      {"log.append_ns_per_record",
       {drivers.metrics["log.append_ns_per_record"], "ns/record"}},
      {"log.append_growth", {drivers.metrics["log.append_growth"], "ratio"}},
      {"log.alloc_bytes_per_record",
       {drivers.metrics["log.alloc_bytes_per_record"], "bytes/record"}},
      {"broker.fetches_per_msg", {per(c.broker_fetches, msgs), "fetches/msg"}},
      {"replica.fetches_per_msg", {per(c.replica_fetches, msgs), "fetches/msg"}},
      {"broker.fetch_ns",
       {per(static_cast<double>(fetch.total_ns), static_cast<double>(fetch.calls)), "ns"}},
      {"group.fetched_per_delivered", {per(c.group_fetched, c.group_unique), "ratio"}},
      {"group.commits_per_msg", {per(c.group_commits, msgs), "commits/msg"}},
      {"consumer.records_per_msg", {per(c.consumer_records, msgs), "records/msg"}},
      {"obs.overhead_ratio",
       {per(untraced_wall, sum_wall(arms.obs_off, false)), "ratio"}},
      {"obs.span_pair_ns", {drivers.metrics["obs.span_pair_ns"], "ns"}},
      {"obs.report_build_ms",
       {per(static_cast<double>(report.total_ns) / 1e6, static_cast<double>(report.calls)),
        "ms"}},
      {"trace.overhead_ratio", {per(sum_wall(traced, false), untraced_wall), "ratio"}},
  };
  std::vector<Metric> out;
  for (const auto& [name, vu] : values) out.push_back({name, vu.first, vu.second, mains});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == opt.workload; });
  if (it == all.end()) usage(("unknown workload " + opt.workload).c_str());
  const Workload& wl = *it;

  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "smoke=%d nproc=%u build=%s n=%" PRIu64 "\n",
              wl.name.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              opt.smoke ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, opt.smoke ? wl.smoke_n : wl.n);

  Runner runner(opt, wl);

  // Set-up: build the workload and run its warm-up, several times; the
  // first repetition counts from process start.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = rep == 0 ? g_process_start : Clock::now();
    runner.warm_up();
    setup_s.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e9);
  }

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  const Arms arms = runner.run(deadline, opt.trace);
  const auto& untraced = arms.untraced;
  std::printf("# rounds=%" PRIu64 " experiments per arm=%zu\n",
              untraced.back().round + 1, untraced.size());

  std::vector<Metric> metrics;
  std::vector<std::string> driver_errors;
  if (!opt.trace) {
    metrics = end_to_end(untraced, setup_s);
    for (const auto& m : metrics) print_metric(m);
    print_tail(untraced);
  } else {
    metrics = per_layer(opt, wl, runner, arms, driver_errors);
    for (const auto& m : metrics) print_metric(m);
    for (const auto& err : driver_errors) {
      std::fprintf(stderr, "FAIL driver: %s\n", err.c_str());
    }
    if (!opt.trace_out.empty() && !g_trace.write(opt.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
      driver_errors.push_back("trace output");
    }
  }

  if (g_waived != 0) {
    std::printf("# waived %s violations: %" PRIu64 "\n", wl.waived.c_str(),
                g_waived);
  }
  const bool correct = g_failed == 0 && driver_errors.empty();
  std::printf("%-34s %.6g (failed=%" PRIu64 " attempted=%" PRIu64 ")\n",
              "failed_ratio",
              g_attempted ? static_cast<double>(g_failed) / g_attempted : 0.0,
              g_failed, g_attempted);
  std::printf("%s\n", json_line(correct, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
