// Cluster event timeline: a bounded log of control-plane transitions.
//
// Where MessageTrace follows individual records and SpanTracer times their
// stages, the timeline records the rare, cluster-wide events that explain
// *why* a record's fate changed: broker fail/resume, ISR shrink/expand,
// leader elections (clean and unclean), log truncations, epoch bumps,
// client failovers. It is cheap enough to stay on in every run
// (control-plane events are orders of magnitude rarer than messages) and
// is the backbone of ks_explain narratives and the Perfetto export's
// instant-event track.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/ring.hpp"

namespace ks::obs {

enum class ClusterEventKind : std::uint8_t {
  kBrokerFail = 0,       ///< Fail-stop injected (a = fault-schedule driven).
  kBrokerResume,         ///< Broker back up, log intact.
  kFailureDetected,      ///< Controller noticed the dead broker.
  kLeaderElected,        ///< a = new epoch, b = 1 clean / 0 unclean.
  kPartitionOffline,     ///< No eligible leader remained.
  kIsrShrink,            ///< broker left ISR; a = new ISR size.
  kIsrExpand,            ///< broker rejoined ISR; a = new ISR size.
  kTruncation,           ///< broker dropped a suffix; a = records, b = new LEO.
  kCommittedRegression,  ///< Unclean leader's LEO below committed HW.
  kProducerFailover,     ///< Producer re-pointed; broker = new leader.
  kSequenceEpochBump,    ///< Producer bumped its effective producer id.
  kConnectionReset,      ///< TCP endpoint reset (note = endpoint name).
  kConsumerFailover,     ///< Consumer re-pointed; broker = new leader.
  kConsumerTruncation,   ///< Consumer offset beyond HW; a = new position.
  kConsumerStall,        ///< Consumer exhausted its fetch-retry budget.
  kFaultInjected,        ///< Scheduled net fault applied (note = describe()).
  // ---- consumer-group coordination (note = member id unless stated) ----
  kGroupMemberJoined,    ///< a = member count after the join.
  kGroupMemberLeft,      ///< Graceful leave; a = member count after.
  kGroupMemberEvicted,   ///< Session timeout; a = missed-by (us).
  kGroupRebalanceBegin,  ///< a = outgoing generation, b = member count.
  kGroupPartitionsRevoked,   ///< a = revoked count, b = generation.
  kGroupPartitionsAssigned,  ///< a = assigned count, b = new generation.
  kGroupGenerationStable,    ///< a = generation, b = member count.
  kGroupZombieFenced,    ///< Stale commit rejected; a = stale generation.
  // ---- durable storage / crash recovery ----
  kPowerLoss,            ///< Hard crash; a = records lost from disk, b = torn.
  kRecoveryScan,         ///< Restart scan; a = recovered, b = discarded.
  kTornTailTruncated,    ///< a = torn records dropped, b = recovered LEO.
  kCorruptBatchDropped,  ///< a = corrupt batches, b = recovered LEO.
  // ---- online health monitor (note = detector name) ----
  kHealthAlertOpen,      ///< a = ticks from onset to detection.
  kHealthAlertResolved,  ///< a = open duration (us).
  // ---- online adaptive controller (note = decision summary) ----
  kReconfigure,          ///< a = 1 applied / 0 suppressed, b = predicted
                         ///< gamma of the chosen params, in millionths.
};

const char* to_string(ClusterEventKind k) noexcept;

struct ClusterEvent {
  TimePoint t = 0;
  ClusterEventKind kind = ClusterEventKind::kBrokerFail;
  std::int32_t broker = -1;     ///< Subject broker, -1 when not broker-bound.
  std::int32_t partition = -1;  ///< Subject partition, -1 when cluster-wide.
  std::int64_t a = 0;           ///< Kind-specific (see enum comments).
  std::int64_t b = 0;
  std::string note;             ///< Free-form context, kept deterministic.
};

class ClusterTimeline {
 public:
  explicit ClusterTimeline(std::size_t capacity = 4096) : ring_(capacity) {}

  void record(TimePoint t, ClusterEventKind kind, std::int32_t broker = -1,
              std::int32_t partition = -1, std::int64_t a = 0,
              std::int64_t b = 0, std::string note = {});

  std::size_t size() const noexcept { return ring_.size(); }
  std::uint64_t recorded() const noexcept { return recorded_; }
  std::uint64_t dropped() const noexcept { return ring_.evicted(); }

  /// Retained events, oldest first.
  std::vector<ClusterEvent> events() const { return ring_.to_vector(); }

  /// Drop all recorded events (fresh run on a reused simulation).
  void clear() noexcept {
    ring_.clear();
    recorded_ = 0;
  }

 private:
  Ring<ClusterEvent> ring_;
  std::uint64_t recorded_ = 0;
};

}  // namespace ks::obs
