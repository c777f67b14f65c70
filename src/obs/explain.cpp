#include "obs/explain.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

namespace ks::obs {
namespace {

bool contains(const std::vector<std::uint64_t>& v, std::uint64_t key) {
  return std::find(v.begin(), v.end(), key) != v.end();
}

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Narrative phrasing of one per-key lifecycle event.
std::string describe_trace_entry(const MessageTrace::Entry& e) {
  switch (e.event) {
    case TraceEvent::kOverrun: return "evicted from the source ring (overrun)";
    case TraceEvent::kSendAttempt:
      return fmt("produce attempt %d sent", e.detail);
    case TraceEvent::kRetry: return fmt("retried (attempt %d)", e.detail);
    case TraceEvent::kAppended: return fmt("appended on broker %d", e.detail);
    case TraceEvent::kAcked: return "acked to the producer";
    case TraceEvent::kExpired: return "expired in the accumulator (T_o)";
    case TraceEvent::kFailed: return "failed: retries/timeout exhausted";
    case TraceEvent::kFetched:
      return fmt("fetched by the consumer (offset %d)", e.detail);
    case TraceEvent::kDelivered:
      return "delivered to the consumer application";
    case TraceEvent::kDupDetected:
      return fmt("DUPLICATE delivery detected (offset %d)", e.detail);
  }
  return to_string(e.event);
}

}  // namespace

std::string describe_timeline_entry(const ClusterEvent& e) {
  switch (e.kind) {
    case ClusterEventKind::kBrokerFail:
      return fmt("broker %d fail-stop", e.broker);
    case ClusterEventKind::kBrokerResume:
      return e.a != 0
                 ? fmt("broker %d back up after hard restart (log rebuilt "
                       "from the recovery scan)",
                       e.broker)
                 : fmt("broker %d resumed (log intact)", e.broker);
    case ClusterEventKind::kFailureDetected:
      return fmt("controller detected broker %d failure", e.broker);
    case ClusterEventKind::kLeaderElected:
      return fmt("%s election: broker %d leads partition %d (epoch %lld)",
                 e.b != 0 ? "clean" : "UNCLEAN", e.broker, e.partition,
                 static_cast<long long>(e.a));
    case ClusterEventKind::kPartitionOffline:
      return fmt("partition %d OFFLINE: no eligible leader", e.partition);
    case ClusterEventKind::kIsrShrink:
      return fmt("broker %d dropped from ISR of partition %d (ISR size %lld)",
                 e.broker, e.partition, static_cast<long long>(e.a));
    case ClusterEventKind::kIsrExpand:
      return fmt("broker %d rejoined ISR of partition %d (ISR size %lld)",
                 e.broker, e.partition, static_cast<long long>(e.a));
    case ClusterEventKind::kTruncation:
      return fmt("broker %d truncated %lld records (log end now %lld)",
                 e.broker, static_cast<long long>(e.a),
                 static_cast<long long>(e.b));
    case ClusterEventKind::kCommittedRegression:
      return fmt(
          "COMMITTED REGRESSION: new leader's log end %lld below committed "
          "HW %lld",
          static_cast<long long>(e.a), static_cast<long long>(e.b));
    case ClusterEventKind::kProducerFailover:
      return fmt("producer failed over to broker %d", e.broker);
    case ClusterEventKind::kSequenceEpochBump:
      return "producer bumped its idempotence epoch (sequence gap heal)";
    case ClusterEventKind::kConnectionReset:
      return "connection reset: " + e.note;
    case ClusterEventKind::kConsumerFailover:
      return fmt("consumer failed over to broker %d", e.broker);
    case ClusterEventKind::kConsumerTruncation:
      return fmt("consumer offset beyond leader HW; rewound to %lld",
                 static_cast<long long>(e.a));
    case ClusterEventKind::kConsumerStall:
      return "consumer stalled: fetch-retry budget exhausted";
    case ClusterEventKind::kFaultInjected:
      return "fault injected: " + e.note;
    case ClusterEventKind::kPowerLoss:
      return fmt("broker %d POWER LOSS: %lld records erased from disk%s",
                 e.broker, static_cast<long long>(e.a),
                 e.b != 0 ? " (torn tail batch left behind)" : "");
    case ClusterEventKind::kRecoveryScan:
      return fmt(
          "broker %d recovery scan on partition %d: %lld records "
          "recovered, %lld discarded",
          e.broker, e.partition, static_cast<long long>(e.a),
          static_cast<long long>(e.b));
    case ClusterEventKind::kTornTailTruncated:
      return fmt(
          "broker %d partition %d: torn tail batch failed CRC, %lld "
          "records truncated (log end now %lld)",
          e.broker, e.partition, static_cast<long long>(e.a),
          static_cast<long long>(e.b));
    case ClusterEventKind::kCorruptBatchDropped:
      return fmt(
          "broker %d partition %d: %lld corrupt batch%s failed CRC, "
          "dropped (log end now %lld)",
          e.broker, e.partition, static_cast<long long>(e.a),
          e.a == 1 ? "" : "es", static_cast<long long>(e.b));
    case ClusterEventKind::kGroupMemberJoined:
      return fmt("group member %s joined (%lld member%s)", e.note.c_str(),
                 static_cast<long long>(e.a), e.a == 1 ? "" : "s");
    case ClusterEventKind::kGroupMemberLeft:
      return fmt("group member %s left (%lld remaining)", e.note.c_str(),
                 static_cast<long long>(e.a));
    case ClusterEventKind::kGroupMemberEvicted:
      return fmt("group member %s EVICTED: session expired %.0fms ago",
                 e.note.c_str(), static_cast<double>(e.a) / 1000.0);
    case ClusterEventKind::kGroupRebalanceBegin:
      return fmt("group rebalance begins (generation %lld, %lld member%s)",
                 static_cast<long long>(e.a), static_cast<long long>(e.b),
                 e.b == 1 ? "" : "s");
    case ClusterEventKind::kGroupPartitionsRevoked:
      return fmt("%lld partition%s revoked from %s (generation %lld)",
                 static_cast<long long>(e.a), e.a == 1 ? "" : "s",
                 e.note.c_str(), static_cast<long long>(e.b));
    case ClusterEventKind::kGroupPartitionsAssigned:
      return fmt("%lld partition%s assigned to %s (generation %lld)",
                 static_cast<long long>(e.a), e.a == 1 ? "" : "s",
                 e.note.c_str(), static_cast<long long>(e.b));
    case ClusterEventKind::kGroupGenerationStable:
      return fmt("group stable at generation %lld with %lld member%s",
                 static_cast<long long>(e.a), static_cast<long long>(e.b),
                 e.b == 1 ? "" : "s");
    case ClusterEventKind::kGroupZombieFenced:
      return fmt(
          "ZOMBIE FENCED: commit from %s under stale generation %lld "
          "rejected (current %lld)",
          e.note.c_str(), static_cast<long long>(e.a),
          static_cast<long long>(e.b));
    case ClusterEventKind::kHealthAlertOpen: {
      std::string subject;
      if (e.partition >= 0) subject = fmt(" on partition %d", e.partition);
      if (e.broker >= 0) subject += fmt(" on broker %d", e.broker);
      return fmt("HEALTH ALERT %s%s (detected after %lld windows)",
                 e.note.c_str(), subject.c_str(), static_cast<long long>(e.a));
    }
    case ClusterEventKind::kHealthAlertResolved: {
      std::string subject;
      if (e.partition >= 0) subject = fmt(" on partition %d", e.partition);
      if (e.broker >= 0) subject += fmt(" on broker %d", e.broker);
      return fmt("health alert %s%s resolved (open %.0fms)", e.note.c_str(),
                 subject.c_str(), static_cast<double>(e.a) / 1000.0);
    }
    case ClusterEventKind::kReconfigure:
      return fmt("%s: controller %s [%s] (predicted gamma %.4f)",
                 e.a != 0 ? "RECONFIGURE" : "reconfigure considered",
                 e.a != 0 ? "retuned the producer" : "held the configuration",
                 e.note.c_str(), static_cast<double>(e.b) / 1e6);
  }
  return to_string(e.kind);
}

std::optional<std::uint64_t> pick_explain_key(const RunReport& report) {
  if (!report.acked_lost_keys.empty()) return report.acked_lost_keys.front();
  if (!report.lost_keys.empty()) return report.lost_keys.front();
  if (!report.group_lost_keys.empty()) return report.group_lost_keys.front();
  for (const auto& e : report.trace) {
    if (e.event == TraceEvent::kFailed || e.event == TraceEvent::kExpired) {
      return e.key;
    }
  }
  if (!report.trace.empty()) return report.trace.front().key;
  return std::nullopt;
}

std::string explain_key(const RunReport& report, std::uint64_t key) {
  struct Line {
    TimePoint t;
    std::string text;
  };
  std::vector<Line> lines;

  bool acked = false;
  bool appended = false;
  bool delivered = false;
  int duplicates = 0;
  bool expired = false;
  bool failed = false;
  TimePoint first_t = std::numeric_limits<TimePoint>::max();
  for (const auto& e : report.trace) {
    if (e.key != key) continue;
    first_t = std::min(first_t, e.t);
    if (e.event == TraceEvent::kAcked) acked = true;
    if (e.event == TraceEvent::kAppended) appended = true;
    if (e.event == TraceEvent::kDelivered) delivered = true;
    if (e.event == TraceEvent::kDupDetected) ++duplicates;
    if (e.event == TraceEvent::kExpired) expired = true;
    if (e.event == TraceEvent::kFailed) failed = true;
    lines.push_back({e.t, describe_trace_entry(e)});
  }

  // Spans add durations and offsets the flat trace does not carry.
  for (const auto& s : report.spans) {
    if (s.key != key) continue;
    first_t = std::min(first_t, s.begin);
    std::string text = fmt("span %s: %.3fms", to_string(s.kind),
                           to_millis(s.end - s.begin));
    if (s.kind == SpanKind::kBrokerAppend ||
        s.kind == SpanKind::kReplicaAppend) {
      text += fmt(" (broker %d, base offset %lld)", s.track - 10,
                  static_cast<long long>(s.detail));
    } else if (s.detail != 0) {
      text += fmt(" (detail %lld)", static_cast<long long>(s.detail));
    }
    lines.push_back({s.begin, std::move(text)});
  }

  // Cluster events from the key's first appearance onward explain why the
  // record's fate changed; earlier ones are history it never saw.
  const TimePoint horizon =
      first_t == std::numeric_limits<TimePoint>::max() ? 0 : first_t;
  for (const auto& e : report.timeline) {
    if (e.t < horizon) continue;
    lines.push_back({e.t, "[cluster] " + describe_timeline_entry(e)});
  }

  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.t < b.t; });

  std::string out = fmt("narrative for key %llu:\n",
                        static_cast<unsigned long long>(key));
  if (lines.empty()) {
    out += "  (no recorded events; key not sampled? trace sample_every=" +
           std::to_string(report.trace_sample_every) + ")\n";
  }
  constexpr std::size_t kMaxLines = 200;
  for (std::size_t i = 0; i < lines.size() && i < kMaxLines; ++i) {
    out += "  t=" + format_time(lines[i].t) + "  " + lines[i].text + "\n";
  }
  if (lines.size() > kMaxLines) {
    out += fmt("  ... (+%zu more lines)\n", lines.size() - kMaxLines);
  }

  bool power_loss_seen = false;
  bool unclean_seen = false;
  for (const auto& e : report.timeline) {
    if (e.kind == ClusterEventKind::kPowerLoss) power_loss_seen = true;
    if (e.kind == ClusterEventKind::kLeaderElected && e.b == 0) {
      unclean_seen = true;
    }
  }

  out += "verdict: ";
  if (contains(report.acked_lost_keys, key)) {
    if (power_loss_seen && !unclean_seen) {
      out +=
          "DISK LOST - the producer received a positive ack, but a power "
          "loss erased the record from the only disk that held it before "
          "it was flushed or replicated (the acks=1 / min.insync=1 "
          "durability gap)";
    } else {
      out +=
          "ACKED BUT LOST - the producer received a positive ack, but the "
          "record is absent from the committed log at end of run";
    }
  } else if (contains(report.lost_keys, key)) {
    if (expired) {
      out += "LOST - expired before a successful send";
    } else if (failed) {
      out += "LOST - send failed after exhausting retries";
    } else {
      out += "LOST - never committed to the log";
    }
  } else if (contains(report.group_lost_keys, key)) {
    out +=
        "GROUP LOST - committed to the log and skipped by the consumer "
        "group: its committed offset moved past this record without a "
        "delivery (the commit-before-deliver crash window)";
  } else if (delivered && duplicates > 0) {
    out += fmt("DELIVERED with %d duplicate deliveries", duplicates);
  } else if (delivered) {
    out += "DELIVERED end-to-end";
  } else if (acked) {
    out += "ACKED (consumer-side fate not recorded)";
  } else if (appended) {
    out += "APPENDED but never acked";
  } else if (failed || expired) {
    out += "FAILED before reaching a broker";
  } else {
    out += "no terminal event recorded";
  }
  out += ".\n";

  // Health alerts still open at end of run give the verdict its
  // cluster-level context (a standing STALL/STOP explains a group-lost or
  // undelivered record better than the trace alone).
  std::string open_text;
  std::size_t open_count = 0;
  for (const auto& a : report.health.alerts) {
    if (a.resolved != -1) continue;
    ++open_count;
    if (!open_text.empty()) open_text += ", ";
    open_text += to_string(a.detector);
    if (a.partition >= 0) {
      open_text += fmt(" (partition %d)", a.partition);
    } else if (a.broker >= 0) {
      open_text += fmt(" (broker %d)", a.broker);
    }
  }
  if (open_count > 0) {
    out += fmt("health: %zu alert%s still open at end of run: ", open_count,
               open_count == 1 ? "" : "s") +
           open_text + ".\n";
  }
  return out;
}

}  // namespace ks::obs
