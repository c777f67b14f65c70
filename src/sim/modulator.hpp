// A two-state Markov-modulated regime process driven by simulation events.
//
// Used to model broker-side service-rate regimes (steady service vs
// GC/log-flush stalls) — the mechanism behind the full-load queueing tails
// the paper observes in Figs. 5 and 6.
#pragma once

#include <functional>

#include "common/rng.hpp"
#include "sim/simulation.hpp"

namespace ks::sim {

enum class Regime { kGood, kBad };

class TwoStateModulator {
 public:
  struct Config {
    Duration mean_good = millis(900);  ///< Mean sojourn in the Good regime.
    Duration mean_bad = millis(450);   ///< Mean sojourn in the Bad regime.
    bool enabled = true;               ///< Disabled => always Good.
  };

  TwoStateModulator(Simulation& sim, Config config)
      : sim_(sim), config_(config), rng_(sim.rng().fork()), timer_(sim) {}

  /// Begin regime switching (starts in Good).
  void start();

  Regime state() const noexcept { return state_; }
  bool good() const noexcept { return state_ == Regime::kGood; }

  /// Invoked on every regime change (after the state is updated).
  void on_change(std::function<void(Regime)> cb) { on_change_ = std::move(cb); }

 private:
  void schedule_next();

  Simulation& sim_;
  Config config_;
  Rng rng_;
  Timer timer_;
  Regime state_ = Regime::kGood;
  std::function<void(Regime)> on_change_;
};

}  // namespace ks::sim
