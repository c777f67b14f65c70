// Packet-loss processes, mirroring what NetEm offers: independent
// (Bernoulli) loss, bursty Gilbert-Elliott loss, and trace-driven
// time-varying loss for the dynamic-configuration experiment.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ks::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Decide the fate of one packet observed at time `now`.
  virtual bool drop(TimePoint now, Rng& rng) = 0;
  /// Long-run loss probability (for reporting; exact where well-defined).
  virtual double stationary_rate() const = 0;
};

/// No loss. Cheaper and clearer than Bernoulli(0) at call sites.
class NoLoss final : public LossModel {
 public:
  bool drop(TimePoint, Rng&) override { return false; }
  double stationary_rate() const override { return 0.0; }
};

/// Independent per-packet loss with fixed probability.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p) : p_(p) {}
  bool drop(TimePoint, Rng& rng) override { return rng.bernoulli(p_); }
  double stationary_rate() const override { return p_; }
  void set_rate(double p) noexcept { p_ = p; }

 private:
  double p_;
};

/// Two-state Gilbert-Elliott loss: per-packet Markov transitions between a
/// Good and a Bad state, each with its own loss probability. The classic
/// model for bursty wireless loss (paper ref. [24]).
class GilbertElliottLoss final : public LossModel {
 public:
  struct Params {
    double p_good_to_bad = 0.01;  ///< P(transition G->B) per packet.
    double p_bad_to_good = 0.10;  ///< P(transition B->G) per packet.
    double loss_good = 0.001;     ///< Loss probability in Good.
    double loss_bad = 0.30;       ///< Loss probability in Bad.
  };

  explicit GilbertElliottLoss(Params params) : params_(params) {}

  bool drop(TimePoint, Rng& rng) override;
  double stationary_rate() const override;

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  bool bad_ = false;
};

/// Piecewise-constant loss rate over time, for replaying a recorded or
/// generated network trace (Fig. 9).
class TraceLoss final : public LossModel {
 public:
  /// `points` are (start_time, loss_rate), sorted ascending by time; the
  /// rate before the first point is 0.
  explicit TraceLoss(std::vector<std::pair<TimePoint, double>> points)
      : points_(std::move(points)) {}

  bool drop(TimePoint now, Rng& rng) override {
    return rng.bernoulli(rate_at(now));
  }
  double stationary_rate() const override;
  double rate_at(TimePoint now) const noexcept;

 private:
  std::vector<std::pair<TimePoint, double>> points_;
};

}  // namespace ks::net
