#include "net/netem.hpp"

namespace ks::net {

namespace {

std::shared_ptr<LossModel> bernoulli_or_none(double loss_rate) {
  if (loss_rate > 0.0) return std::make_shared<BernoulliLoss>(loss_rate);
  return std::make_shared<NoLoss>();
}

}  // namespace

NetEm::NetEm(sim::Simulation& sim, DuplexLink& link, Direction direction,
             Duration base_reverse_delay)
    : sim_(sim),
      link_(link),
      direction_(direction),
      base_reverse_delay_(base_reverse_delay),
      base_bandwidth_bps_(link.a_to_b.bandwidth()) {}

void NetEm::install(Duration one_way_delay, std::shared_ptr<LossModel> loss) {
  link_.a_to_b.set_delay_model(std::make_shared<ConstantDelay>(one_way_delay));
  link_.a_to_b.set_loss_model(loss);
  if (direction_ == Direction::kBoth) {
    link_.b_to_a.set_delay_model(
        std::make_shared<ConstantDelay>(one_way_delay));
    // Stateful models (Gilbert-Elliott) must not be shared across
    // directions; the return path gets an independent Bernoulli process at
    // the same long-run rate.
    link_.b_to_a.set_loss_model(bernoulli_or_none(loss->stationary_rate()));
  } else {
    // Forward-only: the return path stays at base LAN latency (faults are
    // injected at the producer's egress, as in the paper's testbed).
    link_.b_to_a.set_delay_model(
        std::make_shared<ConstantDelay>(base_reverse_delay_));
    link_.b_to_a.set_loss_model(std::make_shared<NoLoss>());
  }
}

void NetEm::apply(Duration one_way_delay, double loss_rate) {
  install(one_way_delay, bernoulli_or_none(loss_rate));
}

void NetEm::apply(Duration one_way_delay, std::shared_ptr<LossModel> loss) {
  install(one_way_delay, std::move(loss));
}

void NetEm::apply_at(TimePoint t, Duration one_way_delay, double loss_rate) {
  sim_.at(t, [this, one_way_delay, loss_rate] {
    install(one_way_delay, bernoulli_or_none(loss_rate));
  });
}

void NetEm::apply_at(TimePoint t, Duration one_way_delay,
                     std::shared_ptr<LossModel> loss) {
  sim_.at(t, [this, one_way_delay, loss = std::move(loss)] {
    install(one_way_delay, loss);
  });
}

void NetEm::set_bandwidth_at(TimePoint t, double bandwidth_bps) {
  sim_.at(t, [this, bandwidth_bps] {
    const double bps =
        bandwidth_bps > 0.0 ? bandwidth_bps : base_bandwidth_bps_;
    link_.a_to_b.set_bandwidth(bps);
    if (direction_ == Direction::kBoth) link_.b_to_a.set_bandwidth(bps);
  });
}

void NetEm::clear() { install(0, std::make_shared<NoLoss>()); }

}  // namespace ks::net
