#include "testbed/collector.hpp"

namespace ks::testbed {

CollectorConfig CollectorConfig::quick() {
  CollectorConfig c;
  c.num_messages = 8000;
  c.repeats = 2;
  c.timeouts = {millis(250), millis(500), millis(1000), millis(2000), millis(4000)};
  c.polls = {0, millis(1), millis(20)};
  c.timeliness = {seconds(2)};
  c.sizes = {100, 400, 1000};
  c.delays = {millis(50)};
  c.losses = {0.0, 0.10, 0.16, 0.25};
  c.batches = {1, 4};
  c.semantics = {kafka::DeliverySemantics::kAtMostOnce,
                 kafka::DeliverySemantics::kAtLeastOnce};
  return c;
}

CollectorConfig CollectorConfig::full() {
  CollectorConfig c;
  c.num_messages = 8000;
  c.timeouts = {millis(250),  millis(500),  millis(750), millis(1000),
                millis(1500), millis(2000), millis(3000), millis(5000)};
  c.polls = {0, millis(1), millis(5), millis(20), millis(50), millis(90)};
  c.timeliness = {seconds(1), seconds(5)};
  c.sizes = {50, 100, 200, 400, 700, 1000};
  c.delays = {millis(20), millis(100), millis(200)};
  c.losses = {0.0, 0.05, 0.08, 0.13, 0.19, 0.30, 0.40};
  c.batches = {1, 2, 5, 10};
  c.semantics = {kafka::DeliverySemantics::kAtMostOnce,
                 kafka::DeliverySemantics::kAtLeastOnce};
  return c;
}

std::size_t Collector::normal_grid_size() const {
  return config_.timeouts.size() * config_.polls.size() *
         config_.timeliness.size() * config_.semantics.size() *
         config_.batches.size() * static_cast<std::size_t>(config_.repeats);
}

std::size_t Collector::abnormal_grid_size() const {
  return config_.sizes.size() * config_.delays.size() *
         config_.losses.size() * config_.batches.size() *
         config_.semantics.size() * static_cast<std::size_t>(config_.repeats);
}

ExperimentResult Collector::run(const Scenario& scenario) {
  auto r = run_experiment(scenario);
  sim_seconds_ += r.duration_s;
  sim_events_ += r.events;
  ++runs_;
  return r;
}

ann::Dataset Collector::collect_normal() {
  ann::Dataset ds;
  std::size_t done = 0;
  const std::size_t total = normal_grid_size();
  std::uint64_t seed = config_.base_seed;
  for (auto semantics : config_.semantics) {
    for (auto s_val : config_.timeliness) {
      for (auto t_o : config_.timeouts) {
        for (auto delta : config_.polls) {
          for (auto b : config_.batches) {
            for (int rep = 0; rep < config_.repeats; ++rep) {
              Scenario sc;
              sc.semantics = semantics;
              sc.timeliness = s_val;
              sc.message_timeout = t_o;
              sc.poll_interval = delta;
              sc.batch_size = b;
              sc.num_messages = config_.num_messages;
              sc.seed = seed++;
              const auto r = run(sc);
              ds.add(sc.normal_features(), {r.p_loss, r.p_duplicate});
              if (on_progress) on_progress(++done, total);
            }
          }
        }
      }
    }
  }
  ds.finalize();
  return ds;
}

ann::Dataset Collector::collect_abnormal() {
  ann::Dataset ds;
  std::size_t done = 0;
  const std::size_t total = abnormal_grid_size();
  std::uint64_t seed = config_.base_seed + 100000;
  for (auto semantics : config_.semantics) {
    for (auto m : config_.sizes) {
      for (auto d : config_.delays) {
        for (auto l : config_.losses) {
          for (auto b : config_.batches) {
            for (int rep = 0; rep < config_.repeats; ++rep) {
              Scenario sc;
              sc.semantics = semantics;
              sc.message_size = m;
              sc.network_delay = d;
              sc.packet_loss = l;
              sc.batch_size = b;
              // Fig. 3: normal-case features pinned to proper values.
              sc.message_timeout = millis(1500);
              sc.poll_interval = 0;
              sc.num_messages = config_.num_messages;
              sc.seed = seed++;
              const auto r = run(sc);
              ds.add(sc.abnormal_features(), {r.p_loss, r.p_duplicate});
              if (on_progress) on_progress(++done, total);
            }
          }
        }
      }
    }
  }
  ds.finalize();
  return ds;
}

}  // namespace ks::testbed
