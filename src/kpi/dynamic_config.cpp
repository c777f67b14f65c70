#include "kpi/dynamic_config.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <numeric>

#include "kpi/perf_model.hpp"

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

/// Replays an offline schedule. Ticks fall on every entry's start time (their
/// spacing is the gcd of the starts), and the tick at an entry's start
/// applies it; every other tick decides nothing.
class ScheduleDriver final : public testbed::AdaptiveDriver {
 public:
  ScheduleDriver(std::vector<ScheduleEntry> schedule, Duration spacing)
      : schedule_(std::move(schedule)), spacing_(spacing) {}

  Duration interval() const override { return spacing_; }
  Duration cooldown() const override { return spacing_; }

  testbed::AdaptiveDecision tick(TimePoint now,
                                 const testbed::AdaptiveTelemetry&) override {
    testbed::AdaptiveDecision d;
    if (next_ == schedule_.size() || schedule_[next_].start > now) return d;
    const ScheduleEntry& e = schedule_[next_++];
    d.evaluated = d.apply = true;
    d.batch_size = e.params.batch_size;
    d.poll_interval = e.params.poll_interval;
    d.message_timeout = e.params.message_timeout;
    d.chosen_gamma = e.predicted_gamma;
    char note[96];
    std::snprintf(note, sizeof(note),
                  "offline schedule: batch %d poll %lldms T_o %lldms",
                  d.batch_size,
                  static_cast<long long>(d.poll_interval / kMillisecond),
                  static_cast<long long>(d.message_timeout / kMillisecond));
    d.note = note;
    return d;
  }

 private:
  std::vector<ScheduleEntry> schedule_;
  Duration spacing_;
  std::size_t next_ = 1;
};

}  // namespace

void DynamicParams::apply_to(testbed::Scenario& scenario) const {
  scenario.batch_size = batch_size;
  scenario.poll_interval = poll_interval;
  scenario.message_timeout = message_timeout;
}

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
  params.apply_to(s);
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

void follow_schedule(testbed::Scenario& scenario,
                     std::vector<ScheduleEntry> schedule) {
  if (schedule.empty()) return;
  schedule.front().params.apply_to(scenario);
  Duration spacing = 0;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    spacing = std::gcd(spacing, schedule[i].start);
  }
  if (spacing <= 0) return;
  scenario.adaptive_enabled = true;
  scenario.adaptive_factory = [schedule = std::move(schedule),
                               spacing](const testbed::Scenario&) {
    return std::make_unique<ScheduleDriver>(schedule, spacing);
  };
}

}  // namespace ks::kpi
