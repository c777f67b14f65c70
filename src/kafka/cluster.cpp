#include "kafka/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "net/delay_model.hpp"
#include "net/loss_model.hpp"

namespace ks::kafka {

Cluster::Cluster(sim::Simulation& sim, Config config)
    : sim_(sim), config_(config), metrics_binding_(sim.metrics()) {
  assert(config_.num_brokers > 0);
  config_.replication_factor =
      std::clamp(config_.replication_factor, 1, config_.num_brokers);
  brokers_.reserve(static_cast<std::size_t>(config_.num_brokers));
  for (int i = 0; i < config_.num_brokers; ++i) {
    Broker::Config bc = config_.broker;
    bc.id = i;
    brokers_.push_back(std::make_unique<Broker>(sim_, bc));
  }
  alive_.assign(static_cast<std::size_t>(config_.num_brokers), true);

  auto& m = metrics_binding_;
  m.counter("kafka_cluster_elections_total", {}, &stats_.elections);
  m.counter("kafka_cluster_unclean_elections_total", {},
            &stats_.unclean_elections);
  m.counter("kafka_cluster_committed_regressions_total", {},
            &stats_.committed_regressions);
  m.counter("kafka_cluster_isr_shrinks_total", {}, &stats_.isr_shrinks);
  m.counter("kafka_cluster_isr_expands_total", {}, &stats_.isr_expands);
  m.counter("kafka_cluster_leader_elections_total", {{"clean", "true"}},
            [this] {
              return static_cast<double>(stats_.elections -
                                         stats_.unclean_elections);
            });
  m.counter("kafka_cluster_leader_elections_total", {{"clean", "false"}},
            &stats_.unclean_elections);

  if (config_.replication_factor > 1) {
    // Inter-broker fetch fabric: one duplex pipe per ordered broker pair
    // (a fetches from b over a's client endpoint). Built only for RF > 1
    // so unreplicated clusters draw no extra randomness and stay
    // byte-identical to the pre-replication behaviour.
    for (int a = 0; a < config_.num_brokers; ++a) {
      for (int b = 0; b < config_.num_brokers; ++b) {
        if (a == b) continue;
        const std::string name =
            "ib:" + std::to_string(a) + "->" + std::to_string(b);
        PeerConn conn;
        conn.link = std::make_unique<net::DuplexLink>(
            sim_, config_.interbroker_link,
            std::make_shared<net::ConstantDelay>(config_.interbroker_delay),
            std::make_shared<net::NoLoss>(),
            std::make_shared<net::ConstantDelay>(config_.interbroker_delay),
            std::make_shared<net::NoLoss>(), name);
        conn.pair = std::make_unique<tcp::Pair>(sim_, config_.interbroker_tcp,
                                                *conn.link, name);
        brokers_[static_cast<std::size_t>(a)]->set_peer(b,
                                                        &conn.pair->client);
        brokers_[static_cast<std::size_t>(b)]->attach(conn.pair->server);
        conn.pair->client.connect();
        fabric_.push_back(std::move(conn));
      }
    }
    for (int i = 0; i < config_.num_brokers; ++i) {
      Broker* broker = brokers_[static_cast<std::size_t>(i)].get();
      broker->on_isr_change = [this, i](std::int32_t partition,
                                        const std::vector<int>& isr,
                                        bool shrink) {
        auto& ref = ref_of(partition);
        if (ref.offline || ref.leader != i) return;  // Stale publisher.
        ref.isr = isr;
        if (shrink) {
          ++stats_.isr_shrinks;
        } else {
          ++stats_.isr_expands;
        }
      };
      broker->on_high_watermark = [this, i](std::int32_t partition,
                                            std::int64_t hw) {
        const auto& ref = ref_of(partition);
        if (ref.offline || ref.leader != i) return;
        auto& committed = last_committed_[partition];
        committed = std::max(committed, hw);
      };
    }
  }
}

void Cluster::start() {
  for (auto& b : brokers_) b->start();
}

void Cluster::create_topic(const std::string& name, int partitions) {
  auto& refs = topics_[name];
  refs.clear();
  const int rf = config_.replication_factor;
  for (int p = 0; p < partitions; ++p) {
    PartitionRef ref;
    ref.id = next_partition_id_++;
    ref.leader = p % config_.num_brokers;
    if (rf > 1) {
      for (int r = 0; r < rf; ++r) {
        ref.replicas.push_back((ref.leader + r) % config_.num_brokers);
      }
      ref.isr = ref.replicas;
      std::sort(ref.isr.begin(), ref.isr.end());
      ref.leader_epoch = 1;
      for (int r : ref.replicas) {
        brokers_[static_cast<std::size_t>(r)]->create_partition(ref.id);
      }
      brokers_[static_cast<std::size_t>(ref.leader)]->become_leader(
          ref.id, ref.leader_epoch, ref.replicas, ref.isr,
          config_.min_insync_replicas);
      for (int r : ref.replicas) {
        if (r == ref.leader) continue;
        brokers_[static_cast<std::size_t>(r)]->become_follower(
            ref.id, ref.leader, ref.leader_epoch);
      }
    } else {
      brokers_[static_cast<std::size_t>(ref.leader)]->create_partition(
          ref.id);
    }
    partition_index_[ref.id] = {name, p};
    if (rf > 1) {
      metrics_binding_.gauge(
          "kafka_partition_isr_size", {{"partition", std::to_string(ref.id)}},
          [this, id = ref.id] {
            const auto& r = ref_of(id);
            return r.offline ? 0.0 : static_cast<double>(r.isr.size());
          });
    }
    refs.push_back(ref);
  }
}

const std::vector<Cluster::PartitionRef>& Cluster::topic(
    const std::string& name) const {
  auto it = topics_.find(name);
  if (it == topics_.end()) {
    throw std::out_of_range("unknown topic: " + name);
  }
  return it->second;
}

Cluster::PartitionRef& Cluster::ref_of(std::int32_t partition) {
  const auto& [topic_name, index] = partition_index_.at(partition);
  return topics_.at(topic_name).at(static_cast<std::size_t>(index));
}

const Cluster::PartitionRef& Cluster::ref_of(std::int32_t partition) const {
  const auto& [topic_name, index] = partition_index_.at(partition);
  return topics_.at(topic_name).at(static_cast<std::size_t>(index));
}

Broker& Cluster::leader_of(const std::string& topic_name,
                           int partition_index) {
  const auto& refs = topic(topic_name);
  return *brokers_.at(static_cast<std::size_t>(
      refs.at(static_cast<std::size_t>(partition_index)).leader));
}

std::int32_t Cluster::partition_id(const std::string& topic_name,
                                   int partition_index) const {
  return topic(topic_name).at(static_cast<std::size_t>(partition_index)).id;
}

int Cluster::current_leader(std::int32_t partition) const {
  const auto& ref = ref_of(partition);
  return ref.offline ? -1 : ref.leader;
}

const Cluster::PartitionRef& Cluster::partition_ref(
    std::int32_t partition) const {
  return ref_of(partition);
}

std::int32_t Cluster::epoch_of(std::int32_t partition) const {
  return ref_of(partition).leader_epoch;
}

// ---- controller ------------------------------------------------------------

void Cluster::fail_broker(int index) {
  brokers_.at(static_cast<std::size_t>(index))->fail();
  alive_[static_cast<std::size_t>(index)] = false;
  sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kBrokerFail,
                         index);
  if (config_.replication_factor <= 1) return;
  // The controller notices via session expiry, not instantly. A broker
  // that resumes inside the window keeps its roles (no election).
  sim_.after(config_.leader_detect_delay,
             [this, index] { handle_broker_failure(index); });
}

void Cluster::resume_broker(int index) {
  auto& broker = *brokers_.at(static_cast<std::size_t>(index));
  if (broker.powered_off()) {
    // A power-lost broker cannot simply resume: its volatile state is
    // gone and the disk must be scanned first.
    restart_broker(index);
    return;
  }
  broker.resume();
  alive_[static_cast<std::size_t>(index)] = true;
  sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kBrokerResume,
                         index);
  if (config_.replication_factor <= 1) return;
  handle_broker_recovery(index);
}

void Cluster::power_off_broker(int index, bool torn_write) {
  auto& broker = *brokers_.at(static_cast<std::size_t>(index));
  if (broker.powered_off()) return;  // Already off; nothing left to lose.
  const std::int64_t dropped = broker.power_loss(torn_write);
  alive_[static_cast<std::size_t>(index)] = false;
  ++stats_.power_losses;
  sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kPowerLoss, index,
                         -1, dropped, torn_write ? 1 : 0);
  if (config_.replication_factor <= 1) return;
  sim_.after(config_.leader_detect_delay,
             [this, index] { handle_broker_failure(index); });
}

void Cluster::restart_broker(int index) {
  auto& broker = *brokers_.at(static_cast<std::size_t>(index));
  if (!broker.is_down()) return;
  if (!broker.powered_off()) {
    resume_broker(index);
    return;
  }
  ++stats_.hard_restarts;
  // The recovery scan's bookkeeping runs now (kRecoveryScan & friends land
  // at restart time); the broker stays down for the modeled scan duration
  // before it serves again and rejoins behind the ISR.
  const Duration scan = broker.recover_storage();
  sim_.after(scan, [this, index] {
    auto& b = *brokers_.at(static_cast<std::size_t>(index));
    if (b.powered_off()) return;  // Lost power again mid-scan.
    b.resume();
    alive_[static_cast<std::size_t>(index)] = true;
    // a=1 marks a hard restart (recovered from disk), unlike a fail-stop
    // resume whose log survived intact.
    sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kBrokerResume,
                           index, -1, 1);
    if (config_.replication_factor <= 1) return;
    handle_broker_recovery(index);
  });
}

void Cluster::corrupt_broker_disk(int index, std::uint64_t pick) {
  brokers_.at(static_cast<std::size_t>(index))->corrupt_disk(pick);
}

void Cluster::stall_broker_flushes(int index, Duration window) {
  brokers_.at(static_cast<std::size_t>(index))->stall_flushes(window);
}

void Cluster::handle_broker_failure(int index) {
  if (alive_[static_cast<std::size_t>(index)]) return;  // Came back in time.
  sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kFailureDetected,
                         index);
  for (auto& [name, refs] : topics_) {
    for (auto& ref : refs) {
      if (ref.replicas.empty() || ref.offline) continue;
      if (std::find(ref.replicas.begin(), ref.replicas.end(), index) ==
          ref.replicas.end()) {
        continue;
      }
      if (ref.leader == index) {
        if (!elect(ref, index)) {
          ref.offline = true;  // Leader log kept for post-mortem census.
          sim_.timeline().record(sim_.now(),
                                 obs::ClusterEventKind::kPartitionOffline,
                                 index, ref.id);
        }
      } else if (alive_[static_cast<std::size_t>(ref.leader)]) {
        brokers_[static_cast<std::size_t>(ref.leader)]
            ->controller_remove_from_isr(ref.id, index);
      }
    }
  }
}

void Cluster::handle_broker_recovery(int index) {
  for (auto& [name, refs] : topics_) {
    for (auto& ref : refs) {
      if (ref.replicas.empty()) continue;
      if (std::find(ref.replicas.begin(), ref.replicas.end(), index) ==
          ref.replicas.end()) {
        continue;
      }
      if (ref.offline) {
        if (elect(ref, -1)) ref.offline = false;
      } else if (ref.leader != index) {
        // Rejoin as follower of the current leader (restarts the fetch
        // session; the broker truncates to its high watermark first).
        brokers_[static_cast<std::size_t>(index)]->become_follower(
            ref.id, ref.leader, ref.leader_epoch);
      }
      // ref.leader == index: it resumed inside the detection window and
      // is still the leader; nothing to re-sync.
    }
  }
}

bool Cluster::elect(PartitionRef& ref, int failed) {
  // Clean preference: the lowest-id live ISR member has everything that
  // was ever acked under acks=all.
  std::vector<int> live_isr;
  for (int r : ref.isr) {
    if (r != failed && alive_[static_cast<std::size_t>(r)]) {
      live_isr.push_back(r);
    }
  }
  int new_leader = -1;
  bool unclean = false;
  if (!live_isr.empty()) {
    new_leader = *std::min_element(live_isr.begin(), live_isr.end());
  } else if (config_.unclean_leader_election) {
    // Unclean: any live replica; prefer the longest log, then lowest id.
    std::int64_t best_len = -1;
    for (int r : ref.replicas) {
      if (r == failed || !alive_[static_cast<std::size_t>(r)]) continue;
      const auto* log =
          brokers_[static_cast<std::size_t>(r)]->partition(ref.id);
      const std::int64_t len = log ? log->log_end_offset() : 0;
      if (len > best_len) {
        best_len = len;
        new_leader = r;
      }
    }
    unclean = new_leader >= 0;
  }
  if (new_leader < 0) return false;

  ++ref.leader_epoch;
  ++stats_.elections;
  if (unclean) ++stats_.unclean_elections;
  ref.leader = new_leader;
  ref.offline = false;
  ref.isr = unclean ? std::vector<int>{new_leader} : live_isr;
  std::sort(ref.isr.begin(), ref.isr.end());
  sim_.timeline().record(sim_.now(), obs::ClusterEventKind::kLeaderElected,
                         new_leader, ref.id, ref.leader_epoch,
                         unclean ? 0 : 1);

  // Detect acked-data loss: the new leader must hold at least everything
  // that was ever committed. A clean election always satisfies this; an
  // unclean one may not.
  const auto* log =
      brokers_[static_cast<std::size_t>(new_leader)]->partition(ref.id);
  const std::int64_t leo = log ? log->log_end_offset() : 0;
  auto& committed = last_committed_[ref.id];
  if (leo < committed) {
    ++stats_.committed_regressions;
    sim_.timeline().record(sim_.now(),
                           obs::ClusterEventKind::kCommittedRegression,
                           new_leader, ref.id, committed - leo, leo);
  }
  committed = log ? log->high_watermark() : 0;

  brokers_[static_cast<std::size_t>(new_leader)]->become_leader(
      ref.id, ref.leader_epoch, ref.replicas, ref.isr,
      config_.min_insync_replicas);
  for (int r : ref.replicas) {
    if (r == new_leader || !alive_[static_cast<std::size_t>(r)]) continue;
    brokers_[static_cast<std::size_t>(r)]->become_follower(
        ref.id, new_leader, ref.leader_epoch);
  }
  return true;
}

// ---- measurement -----------------------------------------------------------

std::vector<std::uint32_t> Cluster::committed_key_counts(
    const std::string& topic_name, std::uint64_t total_keys) const {
  std::vector<std::uint32_t> counts(total_keys, 0);
  for (const auto& ref : topic(topic_name)) {
    const auto* log =
        brokers_[static_cast<std::size_t>(ref.leader)]->partition(ref.id);
    if (log == nullptr) continue;
    const std::int64_t hw = log->high_watermark();
    for (const auto& e : log->entries()) {
      if (e.offset >= hw) break;
      if (e.key < total_keys) ++counts[e.key];
    }
  }
  return counts;
}

Cluster::CensusResult Cluster::census(const std::string& topic_name,
                                      std::uint64_t total_keys) const {
  CensusResult result;
  result.total_keys = total_keys;
  std::vector<std::uint32_t> counts(total_keys, 0);
  for (const auto& ref : topic(topic_name)) {
    const auto* log =
        brokers_[static_cast<std::size_t>(ref.leader)]->partition(ref.id);
    if (log == nullptr) continue;
    const std::int64_t hw = log->high_watermark();
    for (const auto& e : log->entries()) {
      if (e.offset >= hw) break;  // Uncommitted tail: invisible to readers.
      ++result.appended_records;
      if (e.key < total_keys) ++counts[e.key];
    }
  }
  for (auto c : counts) {
    if (c == 0) {
      ++result.lost;
    } else if (c == 1) {
      ++result.delivered;
    } else {
      ++result.duplicated;
    }
  }
  return result;
}

std::uint64_t Cluster::replica_prefix_violations() const {
  std::uint64_t violations = 0;
  for (const auto& [name, refs] : topics_) {
    for (const auto& ref : refs) {
      if (ref.replicas.empty()) continue;
      const auto* leader_log =
          brokers_[static_cast<std::size_t>(ref.leader)]->partition(ref.id);
      if (leader_log == nullptr) continue;
      for (int r : ref.replicas) {
        if (r == ref.leader) continue;
        const auto* log =
            brokers_[static_cast<std::size_t>(r)]->partition(ref.id);
        if (log == nullptr) continue;
        const std::int64_t upto =
            std::min({log->high_watermark(), leader_log->high_watermark(),
                      log->log_end_offset(), leader_log->log_end_offset()});
        for (std::int64_t i = 0; i < upto; ++i) {
          const auto& mine = log->entries()[static_cast<std::size_t>(i)];
          const auto& theirs =
              leader_log->entries()[static_cast<std::size_t>(i)];
          if (mine.key != theirs.key ||
              mine.leader_epoch != theirs.leader_epoch) {
            ++violations;
          }
        }
      }
    }
  }
  return violations;
}

}  // namespace ks::kafka
