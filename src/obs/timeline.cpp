#include "obs/timeline.hpp"

#include <utility>

namespace ks::obs {

const char* to_string(ClusterEventKind k) noexcept {
  switch (k) {
    case ClusterEventKind::kBrokerFail: return "broker_fail";
    case ClusterEventKind::kBrokerResume: return "broker_resume";
    case ClusterEventKind::kFailureDetected: return "failure_detected";
    case ClusterEventKind::kLeaderElected: return "leader_elected";
    case ClusterEventKind::kPartitionOffline: return "partition_offline";
    case ClusterEventKind::kIsrShrink: return "isr_shrink";
    case ClusterEventKind::kIsrExpand: return "isr_expand";
    case ClusterEventKind::kTruncation: return "truncation";
    case ClusterEventKind::kCommittedRegression: return "committed_regression";
    case ClusterEventKind::kProducerFailover: return "producer_failover";
    case ClusterEventKind::kSequenceEpochBump: return "sequence_epoch_bump";
    case ClusterEventKind::kConnectionReset: return "connection_reset";
    case ClusterEventKind::kConsumerFailover: return "consumer_failover";
    case ClusterEventKind::kConsumerTruncation: return "consumer_truncation";
    case ClusterEventKind::kConsumerStall: return "consumer_stall";
    case ClusterEventKind::kFaultInjected: return "fault_injected";
    case ClusterEventKind::kGroupMemberJoined: return "group_member_joined";
    case ClusterEventKind::kGroupMemberLeft: return "group_member_left";
    case ClusterEventKind::kGroupMemberEvicted: return "group_member_evicted";
    case ClusterEventKind::kGroupRebalanceBegin:
      return "group_rebalance_begin";
    case ClusterEventKind::kGroupPartitionsRevoked:
      return "group_partitions_revoked";
    case ClusterEventKind::kGroupPartitionsAssigned:
      return "group_partitions_assigned";
    case ClusterEventKind::kGroupGenerationStable:
      return "group_generation_stable";
    case ClusterEventKind::kGroupZombieFenced: return "group_zombie_fenced";
    case ClusterEventKind::kPowerLoss: return "power_loss";
    case ClusterEventKind::kRecoveryScan: return "recovery_scan";
    case ClusterEventKind::kTornTailTruncated: return "torn_tail_truncated";
    case ClusterEventKind::kCorruptBatchDropped:
      return "corrupt_batch_dropped";
    case ClusterEventKind::kHealthAlertOpen: return "health_alert";
    case ClusterEventKind::kHealthAlertResolved: return "health_resolve";
    case ClusterEventKind::kReconfigure: return "reconfigure";
  }
  return "?";
}

void ClusterTimeline::record(TimePoint t, ClusterEventKind kind,
                             std::int32_t broker, std::int32_t partition,
                             std::int64_t a, std::int64_t b,
                             std::string note) {
  ++recorded_;
  ring_.push_back(ClusterEvent{t, kind, broker, partition, a, b,
                               std::move(note)});
}

}  // namespace ks::obs
