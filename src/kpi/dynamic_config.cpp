#include "kpi/dynamic_config.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "kpi/perf_model.hpp"
#include "net/netem.hpp"
#include "sim/simulation.hpp"
#include "tcp/endpoint.hpp"
#include "testbed/calibration.hpp"

namespace ks::kpi {

namespace {

constexpr std::array<int, 6> kBatchSteps = {1, 2, 3, 5, 8, 10};
const std::array<Duration, 6> kPollSteps = {0,          millis(1),
                                            millis(5),  millis(20),
                                            millis(50), millis(90)};
const std::array<Duration, 6> kTimeoutSteps = {millis(500),  millis(1000),
                                               millis(1500), millis(2000),
                                               millis(3000), millis(5000)};

template <typename T, std::size_t N>
std::size_t nearest_index(const std::array<T, N>& steps, T value) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < N; ++i) {
    if (std::llabs(static_cast<long long>(steps[i]) -
                   static_cast<long long>(value)) <
        std::llabs(static_cast<long long>(steps[best]) -
                   static_cast<long long>(value))) {
      best = i;
    }
  }
  return best;
}

/// Move `from` one grid index toward `to` (at most).
std::size_t step_toward(std::size_t from, std::size_t to) {
  if (to > from) return from + 1;
  if (to < from) return from - 1;
  return from;
}

}  // namespace

const std::vector<int>& batch_steps() {
  static const std::vector<int> steps(kBatchSteps.begin(), kBatchSteps.end());
  return steps;
}

const std::vector<Duration>& poll_steps() {
  static const std::vector<Duration> steps(kPollSteps.begin(),
                                           kPollSteps.end());
  return steps;
}

const std::vector<Duration>& timeout_steps() {
  static const std::vector<Duration> steps(kTimeoutSteps.begin(),
                                           kTimeoutSteps.end());
  return steps;
}

DynamicParams clamp_single_step(const DynamicParams& from,
                                const DynamicParams& target) {
  const std::size_t bi = nearest_index(kBatchSteps, from.batch_size);
  const std::size_t pi = nearest_index(kPollSteps, from.poll_interval);
  const std::size_t ti = nearest_index(kTimeoutSteps, from.message_timeout);
  const std::size_t tb = nearest_index(kBatchSteps, target.batch_size);
  const std::size_t tp = nearest_index(kPollSteps, target.poll_interval);
  const std::size_t tt = nearest_index(kTimeoutSteps, target.message_timeout);
  DynamicParams out;
  out.batch_size = kBatchSteps[step_toward(bi, tb)];
  out.poll_interval = kPollSteps[step_toward(pi, tp)];
  out.message_timeout = kTimeoutSteps[step_toward(ti, tt)];
  return out;
}

double DynamicConfigurator::predicted_gamma(
    const testbed::Workload& workload, kafka::DeliverySemantics semantics,
    Duration delay, double loss, const DynamicParams& params) const {
  testbed::Scenario s;
  s.message_size = workload.message_size;
  s.timeliness = workload.timeliness;
  s.network_delay = delay;
  s.packet_loss = loss;
  s.semantics = semantics;
  s.batch_size = params.batch_size;
  s.poll_interval = params.poll_interval;
  s.message_timeout = params.message_timeout;
  const auto rel = predictor_->predict(s);
  const auto perf = predict_performance(workload.message_size,
                                        params.batch_size,
                                        params.poll_interval);
  return weighted_kpi(perf.phi, perf.mu_normalized, rel.p_loss,
                      rel.p_duplicate, weights_);
}

DynamicParams DynamicConfigurator::choose(const testbed::Workload& workload,
                                          kafka::DeliverySemantics semantics,
                                          Duration delay, double loss,
                                          DynamicParams start) const {
  // Fig. 3's split drives the search: under network faults the
  // normal-effective features (T_o, delta) are pinned to their proper
  // values and the faulty-network model ranks the batching choice; under a
  // healthy network the normal model tunes T_o and delta.
  const bool abnormal = loss > 0.02 || delay >= millis(200);
  if (abnormal) {
    // Walk the whole batching axis (it is tiny) instead of greedy
    // neighbour steps: the trained model carries noise of the order of a
    // single step's gamma difference. Ties within the model's resolution
    // break toward larger batches — the conservative choice under faults.
    constexpr double kModelResolution = 0.01;
    DynamicParams best{kBatchSteps.front(), 0, kTimeoutSteps.back()};
    double best_gamma =
        predicted_gamma(workload, semantics, delay, loss, best);
    for (std::size_t i = 1; i < kBatchSteps.size(); ++i) {
      DynamicParams p = best;
      p.batch_size = kBatchSteps[i];
      const double g = predicted_gamma(workload, semantics, delay, loss, p);
      if (g > best_gamma - kModelResolution) {
        if (g > best_gamma) best_gamma = g;
        best = p;
      }
    }
    return best;
  }

  // Index-space coordinate stepping, exactly the paper's "move the current
  // value stepwise forward or backward, substitute into the model, repeat".
  std::size_t bi = nearest_index(kBatchSteps, start.batch_size);
  std::size_t pi = nearest_index(kPollSteps, start.poll_interval);
  std::size_t ti = nearest_index(kTimeoutSteps, start.message_timeout);

  auto params_at = [&](std::size_t b, std::size_t p, std::size_t t) {
    return DynamicParams{kBatchSteps[b], kPollSteps[p], kTimeoutSteps[t]};
  };
  double best = predicted_gamma(workload, semantics, delay, loss,
                                params_at(bi, pi, ti));

  bool improved = true;
  while (improved && best < gamma_requirement_) {
    improved = false;
    struct Candidate {
      std::size_t b, p, t;
    };
    std::vector<Candidate> candidates;
    if (bi + 1 < kBatchSteps.size()) candidates.push_back({bi + 1, pi, ti});
    if (bi > 0) candidates.push_back({bi - 1, pi, ti});
    if (pi + 1 < kPollSteps.size()) candidates.push_back({bi, pi + 1, ti});
    if (pi > 0) candidates.push_back({bi, pi - 1, ti});
    if (ti + 1 < kTimeoutSteps.size()) candidates.push_back({bi, pi, ti + 1});
    if (ti > 0) candidates.push_back({bi, pi, ti - 1});
    for (const auto& c : candidates) {
      const double g = predicted_gamma(workload, semantics, delay, loss,
                                       params_at(c.b, c.p, c.t));
      if (g > best + 1e-9) {
        best = g;
        bi = c.b;
        pi = c.p;
        ti = c.t;
        improved = true;
      }
    }
  }
  return params_at(bi, pi, ti);
}

kafka::DeliverySemantics DynamicConfigurator::choose_semantics(
    const net::NetworkTrace& trace, const testbed::Workload& workload) const {
  const std::array<kafka::DeliverySemantics, 2> options = {
      kafka::DeliverySemantics::kAtMostOnce,
      kafka::DeliverySemantics::kAtLeastOnce};
  double best_gamma = -1.0;
  auto best = kafka::DeliverySemantics::kAtLeastOnce;
  for (auto semantics : options) {
    double sum = 0.0;
    for (const auto& p : trace.points) {
      const auto params = choose(workload, semantics, p.delay, p.loss_rate);
      sum += predicted_gamma(workload, semantics, p.delay, p.loss_rate,
                             params);
    }
    const double mean = trace.points.empty()
                            ? 0.0
                            : sum / static_cast<double>(trace.points.size());
    if (mean > best_gamma) {
      best_gamma = mean;
      best = semantics;
    }
  }
  return best;
}

std::vector<ScheduleEntry> DynamicConfigurator::build_schedule(
    const net::NetworkTrace& trace, Duration check_interval,
    const testbed::Workload& workload,
    kafka::DeliverySemantics semantics) const {
  std::vector<ScheduleEntry> schedule;
  DynamicParams current;
  for (TimePoint t = 0; t < trace.total_duration(); t += check_interval) {
    // Evaluate the condition over the upcoming window (known trace).
    // Configure for the worst stretch, not the average — a one-minute mean
    // dilutes exactly the bursts that destroy reliability.
    std::int64_t n = 0;
    double delay_sum = 0.0, worst_loss = 0.0;
    for (TimePoint u = t; u < std::min(t + check_interval,
                                       trace.total_duration());
         u += trace.interval) {
      const auto& p = trace.at(u);
      delay_sum += static_cast<double>(p.delay);
      worst_loss = std::max(worst_loss, p.loss_rate);
      ++n;
    }
    if (n == 0) break;
    const auto delay = static_cast<Duration>(delay_sum / static_cast<double>(n));
    const double loss = worst_loss;

    current = choose(workload, semantics, delay, loss, current);
    ScheduleEntry entry;
    entry.start = t;
    entry.params = current;
    entry.predicted_gamma =
        predicted_gamma(workload, semantics, delay, loss, current);
    schedule.push_back(entry);
  }
  return schedule;
}

DynamicRunResult run_dynamic_experiment(
    const net::NetworkTrace& trace, const testbed::Workload& workload,
    kafka::DeliverySemantics semantics,
    const std::vector<ScheduleEntry>* schedule, KpiWeights weights,
    std::uint64_t seed, testbed::AdaptiveDriver* online) {
  namespace tb = ks::testbed;
  DynamicRunResult result;

  sim::Simulation sim(seed);

  kafka::Cluster::Config cluster_config;
  cluster_config.num_brokers = 3;
  cluster_config.broker.request_overhead = tb::kBrokerRequestOverhead;
  cluster_config.broker.append_per_byte_us = tb::kBrokerAppendPerByteUs;
  cluster_config.broker.bad_slowdown = tb::kBrokerBadSlowdown;
  cluster_config.broker.regime.enabled = true;
  cluster_config.broker.regime.mean_good = tb::kBrokerMeanGood;
  cluster_config.broker.regime.mean_bad = tb::kBrokerMeanBad;
  kafka::Cluster cluster(sim, cluster_config);
  cluster.create_topic("stream", 1);
  auto& leader = cluster.leader_of("stream", 0);
  const std::int32_t partition = cluster.partition_id("stream", 0);

  net::Link::Config link_config;
  link_config.bandwidth_bps = tb::kLinkBandwidthBps;
  link_config.queue_capacity = tb::kLinkQueueCapacity;
  net::DuplexLink link(sim, link_config,
                       std::make_shared<net::ConstantDelay>(tb::kBaseLanDelay),
                       std::make_shared<net::NoLoss>(),
                       std::make_shared<net::ConstantDelay>(tb::kBaseLanDelay),
                       std::make_shared<net::NoLoss>(), "dyn-link");
  net::NetEm netem(sim, link, net::NetEm::Direction::kForward,
                   tb::kBaseLanDelay);
  netem.replay(trace);

  tcp::Config tconf;
  tconf.send_buffer = tb::kTcpSendBuffer;
  tconf.receive_window = tb::kTcpReceiveWindow;
  tconf.rto_min = tb::kTcpRtoMin;
  tconf.rto_max = tb::kTcpRtoMax;
  tconf.max_consecutive_rtos = tb::kTcpMaxConsecutiveRtos;
  tcp::Pair conn(sim, tconf, link, "dyn-conn");
  leader.attach(conn.server);

  // Workload-driven real-time source for the length of the trace.
  kafka::Source::Config source_config;
  source_config.total_messages = static_cast<std::uint64_t>(
      trace.total_duration() / std::max<Duration>(1, workload.emit_interval));
  source_config.message_size = workload.message_size;
  source_config.size_jitter = workload.size_jitter;
  source_config.emit_interval = workload.emit_interval;
  source_config.buffer_capacity = tb::kSourceRingCapacity;
  kafka::Source source(sim, source_config);

  auto pconf = kafka::ProducerConfig::for_semantics(semantics);
  pconf.serialize_base = tb::kSerializeBase;
  pconf.serialize_per_byte_us = tb::kSerializePerByteUs;
  pconf.max_queued_records = tb::kFloodQueueCapacity;
  pconf.ack_window = tb::kAckWindow;
  if (schedule != nullptr && !schedule->empty()) {
    pconf.batch_size = schedule->front().params.batch_size;
    pconf.poll_interval = schedule->front().params.poll_interval;
    pconf.message_timeout = schedule->front().params.message_timeout;
  }
  kafka::Producer producer(sim, pconf, conn.client, source, partition);

  if (schedule != nullptr) {
    for (const auto& entry : *schedule) {
      if (entry.start == 0) continue;  // Applied via the initial config.
      sim.at(entry.start, [&producer, entry] {
        producer.reconfigure(entry.params.batch_size, /*linger=*/0,
                             entry.params.poll_interval,
                             entry.params.message_timeout);
      });
      ++result.reconfigurations;
    }
  }

  // Online controller: tick on sim time, sample the live connection and
  // producer through the same sample_telemetry() as run_experiment, apply
  // what the policy decides.
  std::function<void()> online_tick = [&] {
    if (producer.finished()) return;  // Drain phase: nothing left to tune.
    const auto decision = online->tick(
        sim.now(), testbed::sample_telemetry({&producer}, {&conn.client}));
    if (decision.evaluated) {
      ++result.online_evaluations;
      if (decision.apply) {
        ++result.reconfigurations;
        producer.reconfigure(decision.batch_size, producer.config().linger,
                             decision.poll_interval,
                             decision.message_timeout);
      } else {
        ++result.online_suppressed;
      }
    }
    sim.after(online->interval(), online_tick);
  };
  if (online != nullptr) sim.after(online->interval(), online_tick);

  cluster.start();
  source.start();
  producer.start();

  const TimePoint cap = trace.total_duration() + seconds(60);
  while (!producer.finished() && sim.now() < cap) {
    sim.run(sim.now() + seconds(1));
  }
  result.completed = producer.finished();
  const TimePoint finish = sim.now();
  sim.run(finish + tb::kDrainGrace);

  result.census = cluster.census("stream", source.total_messages());
  result.overall_loss_rate = result.census.p_loss();
  result.overall_duplicate_rate = result.census.p_duplicate();
  result.duration_s = to_seconds(finish);

  const auto perf = predict_performance(workload.message_size,
                                        pconf.batch_size,
                                        pconf.poll_interval);
  result.measured_gamma =
      weighted_kpi(link.a_to_b.utilization(), perf.mu_normalized,
                   result.overall_loss_rate, result.overall_duplicate_rate,
                   weights);
  return result;
}

}  // namespace ks::kpi
