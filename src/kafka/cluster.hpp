// A Kafka cluster: several brokers, topics split into partitions with a
// leader broker each (round-robin assignment, like Kafka's default), and
// the key-census measurement the paper's methodology relies on.
//
// With replication_factor > 1 the cluster also plays the controller role:
// it builds the inter-broker fetch fabric (TCP over simulated links),
// assigns leader/follower roles per partition, detects broker fail-stops
// after a ZooKeeper-session-grade delay, shrinks ISRs, and elects new
// leaders — clean (from the ISR) or, when enabled, unclean (any live
// replica, accepting acked-data loss). With replication_factor == 1 no
// fabric or controller machinery is created and behaviour is identical to
// the pre-replication cluster.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "kafka/broker.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "tcp/endpoint.hpp"

namespace ks::kafka {

class Cluster {
 public:
  struct Config {
    int num_brokers = 3;  ///< The paper's testbed runs three brokers.
    Broker::Config broker{};

    // ---- replication (no effect at replication_factor == 1) ----
    int replication_factor = 1;
    int min_insync_replicas = 1;
    /// Allow electing a non-ISR replica when the ISR is gone. Trades
    /// availability for acked-data loss, like Kafka's
    /// unclean.leader.election.enable.
    bool unclean_leader_election = false;
    /// Fail-stop detection latency (ZooKeeper session timeout analog,
    /// scaled to sim run lengths).
    Duration leader_detect_delay = millis(100);
    /// Inter-broker link: same-host bridge grade.
    Duration interbroker_delay = micros(200);
    net::Link::Config interbroker_link{};
    tcp::Config interbroker_tcp{};
  };

  struct PartitionRef {
    std::int32_t id = 0;          ///< Cluster-global partition id.
    int leader = 0;               ///< Broker index (last known if offline).
    std::vector<int> replicas;    ///< Assignment; empty => unreplicated.
    std::vector<int> isr;         ///< Controller view of the ISR.
    std::int32_t leader_epoch = 0;
    bool offline = false;         ///< No electable leader right now.
  };

  struct Stats {
    std::uint64_t elections = 0;
    std::uint64_t unclean_elections = 0;
    /// Elections after which the new leader's log end was behind the last
    /// known committed offset — acked data was lost (unclean hazard).
    std::uint64_t committed_regressions = 0;
    std::uint64_t isr_shrinks = 0;
    std::uint64_t isr_expands = 0;
    // ---- durable storage / crash recovery ----
    std::uint64_t power_losses = 0;   ///< Hard crashes injected.
    /// Hard restarts: recovery scan run, broker resumed behind the ISR.
    std::uint64_t hard_restarts = 0;
  };

  /// Key-census result: the paper's measurement of P_l and P_d. Counts
  /// only committed records (below the high watermark) — what a consumer
  /// can ever read.
  struct CensusResult {
    std::uint64_t total_keys = 0;
    std::uint64_t delivered = 0;    ///< Keys appearing exactly once.
    std::uint64_t duplicated = 0;   ///< Keys appearing more than once.
    std::uint64_t lost = 0;         ///< Keys never found.
    std::uint64_t appended_records = 0;

    double p_loss() const noexcept {
      return total_keys ? static_cast<double>(lost) /
                              static_cast<double>(total_keys)
                        : 0.0;
    }
    double p_duplicate() const noexcept {
      return total_keys ? static_cast<double>(duplicated) /
                              static_cast<double>(total_keys)
                        : 0.0;
    }
  };

  Cluster(sim::Simulation& sim, Config config);

  /// Begin broker regime processes.
  void start();

  /// Create a topic with `partitions` partitions, leaders assigned
  /// round-robin across brokers; with replication_factor > 1 each
  /// partition gets replicas on the following brokers and the replication
  /// roles are installed.
  void create_topic(const std::string& name, int partitions);

  const std::vector<PartitionRef>& topic(const std::string& name) const;
  Broker& leader_of(const std::string& topic_name, int partition_index);
  std::int32_t partition_id(const std::string& topic_name,
                            int partition_index) const;

  Broker& broker(int index) { return *brokers_.at(index); }
  int num_brokers() const noexcept {
    return static_cast<int>(brokers_.size());
  }

  // ---- controller-side failure handling ----------------------------------

  /// Fail-stop a broker. With replication the controller notices after
  /// leader_detect_delay, shrinks ISRs and elects new leaders for the
  /// partitions it led; without replication this is just Broker::fail().
  void fail_broker(int index);
  /// Bring a broker back: it resumes service and rejoins as follower (or
  /// is elected if its partitions went offline).
  void resume_broker(int index);

  /// Hard crash (power cut), distinct from fail_broker's state-preserving
  /// fail-stop: the broker's volatile state is wiped on the spot and only
  /// the flushed/written-back disk prefix survives — with `torn_write`,
  /// plus a partially-written tail batch. Detection and elections proceed
  /// exactly as for a fail-stop.
  void power_off_broker(int index, bool torn_write);

  /// Hard restart after a power loss: run the recovery scan (CRC
  /// validation, torn-tail truncation, dedup/HW rebuild), hold the broker
  /// down for the modeled scan time, then resume it — rejoining behind the
  /// ISR and catching up via replication. Falls back to resume_broker for
  /// a broker that is merely fail-stopped.
  void restart_broker(int index);

  /// Latent bit-flip on a broker's disk (deterministic from `pick`);
  /// surfaces only at that broker's next recovery scan.
  void corrupt_broker_disk(int index, std::uint64_t pick);

  /// Slow/stalled-disk window on a broker: flushes cost stall_factor more.
  void stall_broker_flushes(int index, Duration window);

  /// Current leader broker index for a partition, or -1 while offline.
  int current_leader(std::int32_t partition) const;
  const PartitionRef& partition_ref(std::int32_t partition) const;
  std::int32_t epoch_of(std::int32_t partition) const;

  const Stats& stats() const noexcept { return stats_; }

  /// Count unique keys across all partitions of a topic against the source
  /// range [0, total_keys); only committed records count.
  CensusResult census(const std::string& topic_name,
                      std::uint64_t total_keys) const;

  /// Per-key committed multiplicities (census raw data) — used by the
  /// acked-record loss check.
  std::vector<std::uint32_t> committed_key_counts(
      const std::string& topic_name, std::uint64_t total_keys) const;

  /// Replica-log prefix consistency: across every partition and replica,
  /// entries below both logs' high watermarks must agree with the leader's
  /// (epoch, key) at the same offset. Always zero under clean-only
  /// elections; unclean elections may legitimately break it until
  /// followers re-truncate. Returns the number of mismatched entries.
  std::uint64_t replica_prefix_violations() const;

 private:
  struct PeerConn {
    std::unique_ptr<net::DuplexLink> link;
    std::unique_ptr<tcp::Pair> pair;
  };

  PartitionRef& ref_of(std::int32_t partition);
  const PartitionRef& ref_of(std::int32_t partition) const;
  void handle_broker_failure(int index);
  void handle_broker_recovery(int index);
  /// Elect a new leader for `ref`, excluding `failed` (or -1). Returns
  /// true when a leader was installed.
  bool elect(PartitionRef& ref, int failed);

  sim::Simulation& sim_;
  Config config_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<PeerConn> fabric_;
  std::vector<bool> alive_;
  std::map<std::string, std::vector<PartitionRef>> topics_;
  std::map<std::int32_t, std::pair<std::string, int>> partition_index_;
  std::map<std::int32_t, std::int64_t> last_committed_;
  std::int32_t next_partition_id_ = 0;
  Stats stats_;

  obs::MetricsBinding metrics_binding_;  ///< Last: reads the members above.
};

}  // namespace ks::kafka
