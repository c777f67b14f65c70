#include "chaos/invariants.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace ks::chaos {

namespace {

std::string fmt(const char* format, ...) KS_PRINTF_LIKE(1, 2);
std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Per-key walk of the Fig. 2 automaton as observed through the trace.
struct KeyWalk {
  std::uint64_t key = 0;
  int overruns = 0;
  int sends = 0;       ///< send_attempt + retry events.
  int last_attempt = 0;
  int appends = 0;
  int acks = 0;
  int expiries = 0;
  int fails = 0;
  int fetched = 0;
  int delivered = 0;
  bool illegal = false;
  std::string why;

  void flag(std::string reason) {
    if (!illegal) why = std::move(reason);
    illegal = true;
  }

  void step(const obs::RunReport::TraceEntry& e) {
    if (illegal) return;
    if (e.event == "overrun") {
      ++overruns;
      if (sends + appends + acks + expiries + fails > 0) {
        flag("overrun after another lifecycle event");
      }
    } else if (e.event == "send_attempt") {
      ++sends;
      if (overruns > 0) flag("send after overrun");
      if (expiries > 0) flag("send after pre-send expiry");
      if (fails > 0) flag("send after terminal failure");
      if (acks > 0) flag("send after ack");
      if (e.detail != 1) flag(fmt("initial attempt numbered %d", e.detail));
      if (last_attempt != 0) flag("second initial send attempt");
      last_attempt = 1;
    } else if (e.event == "retry") {
      ++sends;
      if (overruns > 0) flag("retry after overrun");
      if (expiries > 0) flag("retry after pre-send expiry");
      if (fails > 0) flag("retry after terminal failure");
      if (acks > 0) flag("retry after ack");
      if (e.detail != last_attempt + 1) {
        flag(fmt("attempt %d after attempt %d (transition III must be "
                 "consecutive)",
                 e.detail, last_attempt));
      }
      last_attempt = e.detail;
    } else if (e.event == "appended") {
      ++appends;
      // Late appends after the producer gave up (failed) or resolved
      // (acked) are legal — that is exactly how Case 5 duplicates and
      // lost-then-persisted races arise. But an append with no send at
      // all is impossible.
      if (sends == 0) flag("append with no send attempt (transition I/IV "
                          "without I/II)");
      if (overruns > 0) flag("append after overrun");
      if (expiries > 0) flag("append after pre-send expiry");
    } else if (e.event == "acked") {
      ++acks;
      if (appends == 0) flag("ack with no append (V before I/IV)");
      if (acks > 1) flag("record acked twice");
      if (fails > 0) flag("ack after terminal failure");
    } else if (e.event == "expired") {
      ++expiries;
      if (sends + appends + acks + fails > 0) {
        flag("pre-send expiry after other lifecycle events");
      }
      if (expiries > 1) flag("record expired twice");
    } else if (e.event == "failed") {
      ++fails;
      if (sends == 0) flag("failure with no send attempt");
      if (acks > 0) flag("failure after ack");
      if (fails > 1) flag("record failed twice");
    } else if (e.event == "fetched") {
      ++fetched;
      // A consumer can only read a record some leader once appended.
      if (appends == 0) flag("fetched with no append");
    } else if (e.event == "delivered") {
      ++delivered;
      if (fetched == 0) flag("delivered with no fetch");
      if (delivered > 1) flag("first-delivery recorded twice");
    } else if (e.event == "dup_detected") {
      if (delivered == 0) flag("duplicate detected before first delivery");
      if (fetched < 2) flag("duplicate detected with fewer than two fetches");
    }
  }
};

}  // namespace

void check_census_conservation(const ChaosScenario& cs,
                               const testbed::ExperimentResult& result,
                               std::vector<Violation>& out) {
  const auto& census = result.census;
  const std::uint64_t n = cs.scenario.num_messages;
  if (census.total_keys != n) {
    out.push_back({"census-conservation",
                   fmt("census over %llu keys, produced %llu",
                       static_cast<unsigned long long>(census.total_keys),
                       static_cast<unsigned long long>(n))});
  }
  if (census.delivered + census.duplicated + census.lost != n) {
    out.push_back(
        {"census-conservation",
         fmt("delivered %llu + duplicated %llu + lost %llu != produced %llu",
             static_cast<unsigned long long>(census.delivered),
             static_cast<unsigned long long>(census.duplicated),
             static_cast<unsigned long long>(census.lost),
             static_cast<unsigned long long>(n))});
  }
  std::uint64_t case_sum = 0;
  for (auto c : result.cases.cases) case_sum += c;
  if (case_sum != n) {
    out.push_back({"census-conservation",
                   fmt("Table I cases sum to %llu, produced %llu",
                       static_cast<unsigned long long>(case_sum),
                       static_cast<unsigned long long>(n))});
  }
}

void check_expectations(const ChaosScenario& cs,
                        const testbed::ExperimentResult& result,
                        std::vector<Violation>& out) {
  if (cs.expect_no_duplicates && result.census.duplicated != 0) {
    out.push_back(
        {"no-duplicates",
         fmt("%llu duplicated keys under %s (Case 5 requires a duplicated "
             "retry, impossible here)",
             static_cast<unsigned long long>(result.census.duplicated),
             kafka::to_string(cs.scenario.semantics))});
  }
  if (cs.expect_no_loss) {
    if (!result.completed) {
      out.push_back({"no-loss",
                     "benign-recovery run hit the simulation time cap"});
    }
    if (result.census.lost != 0) {
      out.push_back(
          {"no-loss",
           fmt("%llu lost keys despite eventual connectivity and retry "
               "budget to spare (Fig. 2: all messages must reach Delivered)",
               static_cast<unsigned long long>(result.census.lost))});
    }
  }
}

void check_offset_contiguity(const testbed::ExperimentResult& result,
                             std::vector<Violation>& out) {
  if (result.offset_gap_violations != 0) {
    out.push_back({"offset-contiguity",
                   fmt("%llu appends broke per-partition offset contiguity",
                       static_cast<unsigned long long>(
                           result.offset_gap_violations))});
  }
}

namespace {
bool has_power_faults(const testbed::Scenario& sc) {
  for (const auto& f : sc.faults) {
    if (f.kind == testbed::FaultAction::Kind::kPowerLoss) return true;
  }
  return false;
}
}  // namespace

void check_replication(const ChaosScenario& cs,
                       const testbed::ExperimentResult& result,
                       std::vector<Violation>& out) {
  const bool power = has_power_faults(cs.scenario);
  if (cs.expect_no_acked_loss && result.acked_lost != 0 && !power) {
    out.push_back(
        {"no-acked-loss",
         fmt("%llu acknowledged records missing from the committed log "
             "despite acks=all, min.insync=2 and clean elections (%.0f "
             "elections)",
             static_cast<unsigned long long>(result.acked_lost),
             result.report.metric("kafka_cluster_elections_total"))});
  }
  if (cs.scenario.unclean_leader_election) return;
  // With unclean elections disabled, every leader comes from the ISR and
  // therefore holds everything ever committed: committed prefixes agree
  // across replicas and the committed offset never moves backwards.
  if (const double unclean =
          result.report.metric("kafka_cluster_unclean_elections_total");
      unclean != 0) {
    out.push_back({"clean-election-only",
                   fmt("%.0f unclean elections with the knob disabled",
                       unclean)});
  }
  if (result.replica_prefix_violations != 0) {
    out.push_back({"replica-prefix-consistency",
                   fmt("%llu committed entries diverge between replicas "
                       "under clean elections",
                       static_cast<unsigned long long>(
                           result.replica_prefix_violations))});
  }
  // A power loss legitimately regresses the committed offset when the ISR
  // had shrunk to the crashing leader alone and the flush discipline left
  // an OS-cache-only suffix (the real Kafka fsync hazard). Only the
  // durable-disk class (fsync-per-append) keeps the promise airtight.
  if (power && !cs.expect_no_acked_loss) return;
  if (const double regressions =
          result.report.metric("kafka_cluster_committed_regressions_total");
      regressions != 0) {
    out.push_back({"hw-monotonicity",
                   fmt("committed offset regressed %.0f times under clean "
                       "elections",
                       regressions)});
  }
}

void check_storage(const ChaosScenario& cs,
                   const testbed::ExperimentResult& result,
                   std::vector<Violation>& out) {
  // Unconditional: every recovery scan must land exactly on the ground-
  // truth survivable prefix (CRC scan vs. fault flags) and rebuild the
  // in-memory log to match the surviving records, whatever the flush
  // discipline or fault schedule.
  if (result.recovery_prefix_violations != 0) {
    out.push_back(
        {"durable-recovery-prefix",
         fmt("%llu recovery scans disagreed with storage ground truth "
             "(%.0f scans, %.0f records recovered, %.0f discarded)",
             static_cast<unsigned long long>(
                 result.recovery_prefix_violations),
             result.report.metric("kafka_broker_recovery_scans_total"),
             result.report.metric("kafka_broker_records_recovered_total"),
             result.report.metric("kafka_broker_records_discarded_total"))});
  }
  // The durable-disk promise: acks=all + RF=3 + min.insync=2 + clean
  // elections + fsync-per-append must deliver every acked record through
  // any schedule of power losses — the teeth behind Table I under crashes.
  if (cs.expect_no_acked_loss && has_power_faults(cs.scenario) &&
      result.acked_lost != 0) {
    out.push_back(
        {"no-acked-loss-under-power-loss",
         fmt("%llu acknowledged records missing after %llu power losses "
             "and %llu hard restarts despite acks=all, min.insync=2 and "
             "fsync-per-append",
             static_cast<unsigned long long>(result.acked_lost),
             static_cast<unsigned long long>(result.power_losses),
             static_cast<unsigned long long>(result.hard_restarts))});
  }
}

void check_group(const ChaosScenario& cs,
                 const testbed::ExperimentResult& result,
                 std::vector<Violation>& out) {
  if (cs.scenario.group_size == 0) return;
  // Within one generation every partition has exactly one owner and fetch
  // batches never overlap, so a same-generation repeat delivery is a
  // protocol bug whatever the commit discipline.
  if (result.group_same_generation_dups != 0) {
    out.push_back(
        {"group-generation-isolation",
         fmt("%llu records delivered twice within one group generation "
             "(%llu rebalances, %llu evictions)",
             static_cast<unsigned long long>(
                 result.group_same_generation_dups),
             static_cast<unsigned long long>(result.group_rebalances),
             static_cast<unsigned long long>(result.group_evictions))});
  }
  if (cs.expect_group_no_loss && result.group_lost != 0) {
    out.push_back(
        {"group-no-loss",
         fmt("%llu committed records skipped by the group under "
             "commit-after-deliver (%llu rebalances, %llu evictions, %llu "
             "fenced commits) — at-least-once may duplicate, never lose",
             static_cast<unsigned long long>(result.group_lost),
             static_cast<unsigned long long>(result.group_rebalances),
             static_cast<unsigned long long>(result.group_evictions),
             static_cast<unsigned long long>(result.group_commits_fenced))});
  }
}

void check_health(const ChaosScenario& cs,
                  const testbed::ExperimentResult& result,
                  std::vector<Violation>& out) {
  if (!cs.scenario.health_enabled || result.health_ticks == 0) return;
  const auto& health = result.report.health;

  // Precision: with no scheduled faults and no packet loss, nothing in the
  // run can stop a group's commits for whole windows — any lag alert on
  // such a run is a false positive.
  if (cs.scenario.faults.empty() && cs.scenario.packet_loss == 0.0 &&
      result.health_lag_alerts != 0) {
    out.push_back(
        {"health-precision",
         fmt("%llu lag alert(s) raised on a fault-free, loss-free run",
             static_cast<unsigned long long>(result.health_lag_alerts))});
  }

  // Recall: a permanent member crash (no later restart of that member)
  // that froze actively-committing partitions must be caught while the
  // evidence stands — a lag_stall/lag_stop alert whose open interval
  // intersects [crash, crash + session_timeout + a few evaluation
  // windows]. The experiment records the ground truth (warm_backlog:
  // lag on still-frozen, previously-committing partitions measured
  // stall_ticks windows after the crash — exactly the evidence the STALL
  // rule needs) straight off cluster/coordinator state, independent of
  // the monitor under test.
  if (cs.scenario.group_size == 0) return;
  const std::int64_t interval = static_cast<std::int64_t>(health.interval_us);
  const std::int64_t grace =
      static_cast<std::int64_t>(cs.scenario.group_session_timeout) +
      8 * interval;
  std::vector<bool> consumed(result.group_crash_backlogs.size(), false);
  for (const auto& f : cs.scenario.faults) {
    if (f.kind != testbed::FaultAction::Kind::kConsumerCrash) continue;
    bool restarted = false;
    for (const auto& g : cs.scenario.faults) {
      if (g.kind == testbed::FaultAction::Kind::kConsumerRestart &&
          g.member == f.member && g.at > f.at) {
        restarted = true;
      }
    }
    if (restarted) continue;
    // Ground-truth record for this crash (matched by injection time; the
    // experiment only records crashes of in-range members).
    const testbed::ExperimentResult::CrashBacklog* truth = nullptr;
    for (std::size_t i = 0; i < result.group_crash_backlogs.size(); ++i) {
      if (!consumed[i] && result.group_crash_backlogs[i].at == f.at) {
        consumed[i] = true;
        truth = &result.group_crash_backlogs[i];
        break;
      }
    }
    if (truth == nullptr || truth->warm_backlog == 0) continue;
    const std::int64_t deadline = static_cast<std::int64_t>(f.at) + grace;
    bool caught = false;
    for (const auto& a : health.alerts) {
      if (a.detector != "lag_stall" && a.detector != "lag_stop") continue;
      const bool opened_in_time = a.opened_us <= deadline;
      const bool still_relevant =
          a.resolved_us == -1 || a.resolved_us >= static_cast<std::int64_t>(f.at);
      if (opened_in_time && still_relevant) {
        caught = true;
        break;
      }
    }
    if (!caught) {
      out.push_back(
          {"health-recall",
           fmt("member %d crashed for good at %.3fs with %lld unconsumed "
               "records on actively-committing partitions, but no "
               "lag_stall/lag_stop alert was open by %.3fs",
               f.member, to_seconds(f.at),
               static_cast<long long>(truth->warm_backlog),
               to_seconds(static_cast<TimePoint>(deadline)))});
    }
  }
}

void check_adaptive(const ChaosScenario& cs,
                    const testbed::ExperimentResult& result,
                    std::vector<Violation>& out) {
  if (!cs.scenario.adaptive_enabled) {
    // Passivity: with the controller off nothing adaptive may run — no
    // ticks, no decisions, no reconfigure events on the timeline. This is
    // the cheap half of the byte-identity guarantee; determinism_test
    // pins the full canonical-JSON comparison.
    if (result.adaptive_ticks != 0 || result.adaptive_evaluations != 0 ||
        result.adaptive_reconfigurations != 0 ||
        result.adaptive_suppressed != 0) {
      out.push_back(
          {"adaptive-passivity",
           fmt("controller disabled but ticks=%llu evals=%llu applies=%llu",
               static_cast<unsigned long long>(result.adaptive_ticks),
               static_cast<unsigned long long>(result.adaptive_evaluations),
               static_cast<unsigned long long>(
                   result.adaptive_reconfigurations))});
    }
    for (const auto& e : result.report.timeline) {
      if (e.kind == "reconfigure") {
        out.push_back({"adaptive-passivity",
                       "controller disabled but a reconfigure event is on "
                       "the timeline"});
        break;
      }
    }
    return;
  }

  // Liveness: an enabled controller on a completed run must have ticked.
  if (result.completed && result.adaptive_ticks == 0) {
    out.push_back({"adaptive-liveness",
                   "controller enabled on a completed run but never ticked"});
  }

  // Decision accounting: every evaluation either applied or was suppressed,
  // and nothing was decided outside a tick.
  if (result.adaptive_evaluations !=
      result.adaptive_reconfigurations + result.adaptive_suppressed) {
    out.push_back(
        {"adaptive-accounting",
         fmt("evals=%llu != applies=%llu + suppressed=%llu",
             static_cast<unsigned long long>(result.adaptive_evaluations),
             static_cast<unsigned long long>(result.adaptive_reconfigurations),
             static_cast<unsigned long long>(result.adaptive_suppressed))});
  }
  if (result.adaptive_evaluations > result.adaptive_ticks) {
    out.push_back(
        {"adaptive-accounting",
         fmt("more evaluations (%llu) than ticks (%llu)",
             static_cast<unsigned long long>(result.adaptive_evaluations),
             static_cast<unsigned long long>(result.adaptive_ticks))});
  }

  // No-thrash: the cooldown bounds applied reconfigurations by
  // duration/cooldown + 1, whatever the network does.
  const double cooldown_s = to_seconds(result.adaptive_cooldown);
  if (cooldown_s > 0.0) {
    const double bound = result.duration_s / cooldown_s + 1.0;
    if (static_cast<double>(result.adaptive_reconfigurations) > bound) {
      out.push_back(
          {"adaptive-no-thrash",
           fmt("%llu reconfigurations exceed the cooldown bound %.1f "
               "(duration %.3fs / cooldown %.3fs + 1)",
               static_cast<unsigned long long>(
                   result.adaptive_reconfigurations),
               bound, result.duration_s, cooldown_s)});
    }
  }
}

void check_trace_legality(const obs::RunReport& report,
                          std::vector<Violation>& out) {
  // The ring dropped entries => per-key sequences may be truncated and
  // legality cannot be judged. The generator sizes the ring to avoid this;
  // flag it so capacity regressions surface instead of silently skipping.
  if (report.trace_dropped != 0) {
    out.push_back({"trace-legality",
                   fmt("trace ring dropped %llu events; resize the ring",
                       static_cast<unsigned long long>(
                           report.trace_dropped))});
    return;
  }
  std::map<std::uint64_t, KeyWalk> walks;
  for (const auto& e : report.trace) {
    auto [it, inserted] = walks.try_emplace(e.key);
    if (inserted) it->second.key = e.key;
    it->second.step(e);
  }
  for (const auto& [key, walk] : walks) {
    if (!walk.illegal) continue;
    out.push_back({"trace-legality",
                   fmt("key %llu: %s",
                       static_cast<unsigned long long>(key),
                       walk.why.c_str())});
    if (out.size() >= 8) return;  // Enough to diagnose; don't flood.
  }
}

std::vector<Violation> check_invariants(
    const ChaosScenario& cs, const testbed::ExperimentResult& result) {
  obs::ProfScope prof(obs::ProfKey::kInvariantCheck);
  std::vector<Violation> out;
  check_census_conservation(cs, result, out);
  check_expectations(cs, result, out);
  check_offset_contiguity(result, out);
  check_replication(cs, result, out);
  check_storage(cs, result, out);
  check_group(cs, result, out);
  check_health(cs, result, out);
  check_adaptive(cs, result, out);
  check_trace_legality(result.report, out);
  return out;
}

}  // namespace ks::chaos
