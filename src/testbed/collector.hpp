// Training-data collection following the paper's Fig. 3 scheme.
//
// The feature space is split by network condition:
//  - normal cases (D < 200 ms, L = 0): sweep the effective features
//    {S, T_o, delta} x semantics;
//  - abnormal cases (faults injected): pin the normal-case features to good
//    values (T_o = 1500 ms, delta = 0 — i.e. values at which they no longer
//    matter) and sweep {M, D, L, semantics, B}.
// Each grid point is one testbed run; the targets are the measured
// {P_l, P_d}.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ann/dataset.hpp"
#include "common/types.hpp"
#include "kafka/producer.hpp"
#include "testbed/experiment.hpp"

namespace ks::testbed {

struct CollectorConfig {
  std::uint64_t num_messages = 4000;  ///< Per run; paper uses 1e6.
  std::uint64_t base_seed = 1000;
  int repeats = 1;                    ///< Seeds per grid point.

  // Normal-case grid.
  std::vector<Duration> timeouts;     ///< T_o.
  std::vector<Duration> polls;        ///< delta.
  std::vector<Duration> timeliness;   ///< S.

  // Abnormal-case grid.
  std::vector<Bytes> sizes;           ///< M.
  std::vector<Duration> delays;       ///< D.
  std::vector<double> losses;         ///< L.
  std::vector<int> batches;           ///< B.

  std::vector<kafka::DeliverySemantics> semantics;

  /// Small grid for CI-grade runs (~1 min).
  static CollectorConfig quick();
  /// The full study grid (several minutes).
  static CollectorConfig full();
};

class Collector {
 public:
  explicit Collector(CollectorConfig config) : config_(std::move(config)) {}

  /// Optional progress callback: (runs_done, runs_total).
  std::function<void(std::size_t, std::size_t)> on_progress;

  /// Normal-network dataset: features = Scenario::normal_features(),
  /// targets = {P_l, P_d}.
  ann::Dataset collect_normal();

  /// Faulty-network dataset: features = Scenario::abnormal_features(),
  /// targets = {P_l, P_d}.
  ann::Dataset collect_abnormal();

  std::size_t normal_grid_size() const;
  std::size_t abnormal_grid_size() const;

  /// Work of every run so far: simulated seconds, events and runs.
  double sim_seconds() const noexcept { return sim_seconds_; }
  std::uint64_t sim_events() const noexcept { return sim_events_; }
  std::uint64_t runs() const noexcept { return runs_; }

 private:
  /// Run one grid point and add its work to the totals.
  ExperimentResult run(const Scenario& scenario);

  CollectorConfig config_;
  double sim_seconds_ = 0.0;
  std::uint64_t sim_events_ = 0;
  std::uint64_t runs_ = 0;
};

}  // namespace ks::testbed
