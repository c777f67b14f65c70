#include "testbed/scenario.hpp"

#include <cstdio>

#include "obs/json_fields.hpp"

namespace ks::testbed {

const char* to_string(FaultAction::Kind kind) noexcept {
  using K = FaultAction::Kind;
  switch (kind) {
    case K::kNetem: return "netem";
    case K::kGilbertElliott: return "gilbert_elliott";
    case K::kBandwidth: return "bandwidth";
    case K::kBrokerFail: return "broker_fail";
    case K::kBrokerResume: return "broker_resume";
    case K::kConsumerCrash: return "consumer_crash";
    case K::kConsumerRestart: return "consumer_restart";
    case K::kConsumerPause: return "consumer_pause";
    case K::kGroupScaleOut: return "group_scale_out";
    case K::kPowerLoss: return "power_loss";
    case K::kPowerRestore: return "power_restore";
    case K::kDiskCorrupt: return "disk_corrupt";
    case K::kFlushStall: return "flush_stall";
  }
  return "?";
}

const char* to_string(SourceMode mode) noexcept {
  switch (mode) {
    case SourceMode::kRealTime: return "real_time";
    case SourceMode::kOnDemand: return "on_demand";
  }
  return "?";
}

std::string FaultAction::describe() const {
  char buf[160];
  switch (kind) {
    case Kind::kNetem:
      std::snprintf(buf, sizeof(buf), "t=%.2fs netem D=%.0fms L=%.1f%%",
                    to_seconds(at), to_millis(delay), loss * 100.0);
      break;
    case Kind::kGilbertElliott:
      std::snprintf(buf, sizeof(buf),
                    "t=%.2fs gilbert-elliott D=%.0fms p=%.3f r=%.3f "
                    "Lg=%.1f%% Lb=%.1f%%",
                    to_seconds(at), to_millis(delay), ge.p_good_to_bad,
                    ge.p_bad_to_good, ge.loss_good * 100.0,
                    ge.loss_bad * 100.0);
      break;
    case Kind::kBandwidth:
      std::snprintf(buf, sizeof(buf), "t=%.2fs bandwidth %.1fMbps",
                    to_seconds(at), bandwidth_bps / 1e6);
      break;
    case Kind::kBrokerFail:
      std::snprintf(buf, sizeof(buf), "t=%.2fs broker%d fail",
                    to_seconds(at), broker);
      break;
    case Kind::kBrokerResume:
      std::snprintf(buf, sizeof(buf), "t=%.2fs broker%d resume",
                    to_seconds(at), broker);
      break;
    case Kind::kConsumerCrash:
      std::snprintf(buf, sizeof(buf), "t=%.2fs member%d crash",
                    to_seconds(at), member);
      break;
    case Kind::kConsumerRestart:
      std::snprintf(buf, sizeof(buf), "t=%.2fs member%d restart",
                    to_seconds(at), member);
      break;
    case Kind::kConsumerPause:
      std::snprintf(buf, sizeof(buf), "t=%.2fs member%d pause %.0fms",
                    to_seconds(at), member, to_millis(delay));
      break;
    case Kind::kGroupScaleOut:
      std::snprintf(buf, sizeof(buf), "t=%.2fs group scale-out",
                    to_seconds(at));
      break;
    case Kind::kPowerLoss:
      std::snprintf(buf, sizeof(buf), "t=%.2fs broker%d power-loss%s",
                    to_seconds(at), broker, torn_write ? " torn" : "");
      break;
    case Kind::kPowerRestore:
      std::snprintf(buf, sizeof(buf), "t=%.2fs broker%d power-restore",
                    to_seconds(at), broker);
      break;
    case Kind::kDiskCorrupt:
      std::snprintf(buf, sizeof(buf),
                    "t=%.2fs broker%d disk-corrupt 0x%llx", to_seconds(at),
                    broker, static_cast<unsigned long long>(disk_seed));
      break;
    case Kind::kFlushStall:
      std::snprintf(buf, sizeof(buf), "t=%.2fs broker%d flush-stall %.0fms",
                    to_seconds(at), broker, to_millis(delay));
      break;
  }
  return buf;
}

namespace {
double semantics_code(kafka::DeliverySemantics s) noexcept {
  switch (s) {
    case kafka::DeliverySemantics::kAtMostOnce: return 0.0;
    case kafka::DeliverySemantics::kAtLeastOnce: return 1.0;
    case kafka::DeliverySemantics::kExactlyOnce: return 2.0;
  }
  return 1.0;
}
}  // namespace

std::vector<double> Scenario::normal_features() const {
  return {to_millis(timeliness), to_millis(message_timeout),
          to_millis(poll_interval), semantics_code(semantics),
          static_cast<double>(batch_size)};
}

std::vector<double> Scenario::abnormal_features() const {
  return {static_cast<double>(message_size), to_millis(network_delay),
          packet_loss, semantics_code(semantics),
          static_cast<double>(batch_size)};
}

const std::vector<const char*>& Scenario::normal_feature_names() {
  static const std::vector<const char*> names = {"S_ms", "To_ms", "delta_ms",
                                                 "semantics", "B"};
  return names;
}

const std::vector<const char*>& Scenario::abnormal_feature_names() {
  static const std::vector<const char*> names = {"M_bytes", "D_ms", "L",
                                                 "semantics", "B"};
  return names;
}

// The scenario's JSON form: one field list per record, walked by both
// to_json() and scenario_from_json() (obs/json_fields.hpp).

template <class V>
void fields(V& v, FaultAction& f) {
  v("at_us", f.at);
  v("kind", f.kind);
  v("delay_us", f.delay);
  v("loss", f.loss);
  v.object("ge", [&] {
    v("p_good_to_bad", f.ge.p_good_to_bad);
    v("p_bad_to_good", f.ge.p_bad_to_good);
    v("loss_good", f.ge.loss_good);
    v("loss_bad", f.ge.loss_bad);
  });
  v("bandwidth_bps", f.bandwidth_bps);
  v("broker", f.broker);
  v("member", f.member);
  v("torn_write", f.torn_write);
  v("disk_seed", f.disk_seed);
}

template <class V>
void fields(V& v, Scenario& s) {
  v("message_size", s.message_size);
  v("message_size_jitter", s.message_size_jitter);
  v("timeliness_us", s.timeliness);
  v("source_mode", s.source_mode);
  v("network_delay_us", s.network_delay);
  v("packet_loss", s.packet_loss);
  v("semantics", s.semantics);
  v("batch_size", s.batch_size);
  v("poll_interval_us", s.poll_interval);
  v("message_timeout_us", s.message_timeout);
  v("request_timeout_us", s.request_timeout);
  v("retries_override", s.retries_override);
  v("retry_backoff_us", s.retry_backoff);
  v("retry_backoff_max_us", s.retry_backoff_max);
  v("replication_factor", s.replication_factor);
  v("min_insync_replicas", s.min_insync_replicas);
  v("unclean_leader_election", s.unclean_leader_election);
  v("flush_messages", s.flush_messages);
  v("flush_interval_us", s.flush_interval);
  v("faults", s.faults);
  v("partitions", s.partitions);
  v("partitioner", s.partitioner);
  v("group_size", s.group_size);
  v("group_commit_mode", s.group_commit_mode);
  v("group_strategy", s.group_strategy);
  v("group_static_membership", s.group_static_membership);
  v("group_process_time_us", s.group_process_time);
  v("group_session_timeout_us", s.group_session_timeout);
  v("group_heartbeat_interval_us", s.group_heartbeat_interval);
  v("num_messages", s.num_messages);
  v("seed", s.seed);
  v("source_interval_us", s.source_interval);
  v("broker_regimes", s.broker_regimes);
  v("sample_interval_us", s.sample_interval);
  v("trace_sample_every", s.trace_sample_every);
  v("trace_capacity", s.trace_capacity);
  v("spans_enabled", s.spans_enabled);
  v("span_sample_every", s.span_sample_every);
  v("span_capacity", s.span_capacity);
  v("consumer_drain", s.consumer_drain);
  v("health_enabled", s.health_enabled);
  v("adaptive_enabled", s.adaptive_enabled);
  v("adaptive_interval_us", s.adaptive_interval);
  v("adaptive_cooldown_us", s.adaptive_cooldown);
}

std::string to_json(const Scenario& scenario) {
  return obs::encode_json(scenario);
}

std::optional<Scenario> scenario_from_json(const obs::JsonValue& json) {
  if (!json.is_object()) return std::nullopt;
  Scenario scenario;
  obs::JsonIn in;
  in.read(&json, scenario);
  if (!in.ok()) return std::nullopt;
  return scenario;
}

}  // namespace ks::testbed
