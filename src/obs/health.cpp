#include "obs/health.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/report.hpp"

namespace ks::obs {

const char* to_string(LagVerdict v) noexcept {
  switch (v) {
    case LagVerdict::kOk: return "OK";
    case LagVerdict::kWarn: return "WARN";
    case LagVerdict::kStall: return "STALL";
    case LagVerdict::kStop: return "STOP";
  }
  return "?";
}

const char* to_string(HealthDetector d) noexcept {
  switch (d) {
    case HealthDetector::kLagStall: return "lag_stall";
    case HealthDetector::kLagStop: return "lag_stop";
    case HealthDetector::kUnderReplicated: return "under_replicated";
    case HealthDetector::kIsrFlapping: return "isr_flapping";
    case HealthDetector::kFlushStall: return "flush_stall";
  }
  return "?";
}

HealthMonitor::HealthMonitor(HealthConfig config, ClusterTimeline* timeline)
    : config_(config), timeline_(timeline) {
  config_.interval = std::max<Duration>(config_.interval, 1);
  config_.lag_window = std::max<std::size_t>(config_.lag_window, 2);
  config_.stall_ticks = std::max<std::size_t>(config_.stall_ticks, 1);
  config_.stop_ticks = std::max<std::size_t>(config_.stop_ticks, 1);
  config_.flap_window = std::max<std::size_t>(config_.flap_window, 2);
}

TimeSeries& HealthMonitor::series_named(const std::string& name) {
  for (auto& s : series_) {
    if (s.name() == name) return s;
  }
  series_.emplace_back(name, config_.interval, config_.series_capacity);
  return series_.back();
}

void HealthMonitor::observe_partition(std::int32_t partition,
                                      std::int64_t committed, std::int64_t hw,
                                      bool owned) {
  auto& ps = partitions_.try_emplace(partition, config_.lag_window)
                 .first->second;
  ps.probed = true;
  ps.committed = committed;
  ps.hw = hw;
  ps.owned = owned;
}

void HealthMonitor::observe_isr(std::int32_t partition, std::int64_t isr_size,
                                std::int64_t replicas) {
  auto& is = isr_.try_emplace(partition, config_.flap_window).first->second;
  is.probed = true;
  is.isr = isr_size;
  is.replicas = replicas;
}

void HealthMonitor::observe_replica_lag(std::int32_t broker,
                                        std::int64_t lag) {
  series_named("replica_hw_lag_b" + std::to_string(broker))
      .observe(now_, static_cast<double>(lag));
}

void HealthMonitor::observe_broker(std::int32_t broker,
                                   std::int64_t parked_acks,
                                   std::int64_t hw_sum) {
  auto& bs = brokers_[broker];
  bs.probed = true;
  bs.parked = parked_acks;
  bs.hw_sum = hw_sum;
}

void HealthMonitor::observe_producer(double in_flight, double retries_delta) {
  series_named("producer_in_flight").observe(now_, in_flight);
  series_named("producer_retries").observe(now_, retries_delta);
}

void HealthMonitor::observe_latency(TimePoint t, std::int64_t us) {
  sketch_.observe(us);
  series_named("e2e_ack_to_deliver_us").observe(t, static_cast<double>(us));
}

bool HealthMonitor::alert_open(HealthDetector detector, std::int32_t partition,
                               std::int32_t broker) const {
  return open_.count({static_cast<int>(detector), partition, broker}) != 0;
}

void HealthMonitor::open_alert(TimePoint t, HealthDetector detector,
                               std::int32_t partition, std::int32_t broker,
                               std::uint64_t windows) {
  const std::tuple<int, std::int32_t, std::int32_t> key{
      static_cast<int>(detector), partition, broker};
  if (open_.count(key) != 0) return;
  open_[key] = alerts_.size();
  alerts_.push_back(HealthAlert{detector, partition, broker, t, -1, windows});
  if (timeline_ != nullptr) {
    timeline_->record(t, ClusterEventKind::kHealthAlertOpen, broker, partition,
                      static_cast<std::int64_t>(windows), 0,
                      to_string(detector));
  }
}

void HealthMonitor::resolve_alert(TimePoint t, HealthDetector detector,
                                  std::int32_t partition,
                                  std::int32_t broker) {
  const std::tuple<int, std::int32_t, std::int32_t> key{
      static_cast<int>(detector), partition, broker};
  const auto it = open_.find(key);
  if (it == open_.end()) return;
  HealthAlert& alert = alerts_[it->second];
  alert.resolved = t;
  ++resolved_count_;
  open_.erase(it);
  if (timeline_ != nullptr) {
    timeline_->record(t, ClusterEventKind::kHealthAlertResolved, broker,
                      partition, static_cast<std::int64_t>(t - alert.opened),
                      0, to_string(detector));
  }
}

void HealthMonitor::evaluate_partition(TimePoint t, std::int32_t pid,
                                       PartitionState& ps) {
  const std::int64_t lag = std::max<std::int64_t>(0, ps.hw - ps.committed);
  series_named("group_lag_p" + std::to_string(pid))
      .observe(t, static_cast<double>(lag));

  // Freeze / ownership / cold-start counters.
  if (ps.committed != ps.last_committed) {
    if (ps.last_committed >= 0 && ps.committed > ps.last_committed) {
      ps.ever_committed = true;
    }
    ps.frozen_ticks = 0;
  } else {
    ++ps.frozen_ticks;
  }
  ps.last_committed = ps.committed;
  ps.unowned_ticks = ps.owned ? 0 : ps.unowned_ticks + 1;
  if (!ps.ever_committed) ++ps.cold_ticks;

  ps.lag_window.push_back(lag);

  // Burrow-style verdict, most severe rule first.
  LagVerdict verdict = LagVerdict::kOk;
  if (lag > 0) {
    if (!ps.owned && ps.unowned_ticks >= config_.stop_ticks) {
      verdict = LagVerdict::kStop;
    } else if (ps.ever_committed &&
               ps.frozen_ticks >= config_.stall_ticks) {
      verdict = LagVerdict::kStall;
    } else if (!ps.ever_committed &&
               ps.cold_ticks >= config_.cold_start_ticks) {
      // Commits never started long past the formation grace: treat like a
      // stall (the group is not making progress on this partition).
      verdict = LagVerdict::kStall;
    } else if (ps.lag_window.size() == ps.lag_window.capacity()) {
      // WARN: lag grew across the whole window without ever shrinking.
      bool grew = true;
      for (std::size_t i = 1; i < ps.lag_window.size() && grew; ++i) {
        grew = ps.lag_window[i] >= ps.lag_window[i - 1];
      }
      if (grew && lag > ps.lag_window[0]) verdict = LagVerdict::kWarn;
    }
  }
  ps.verdict = verdict;
  ps.worst = std::max(ps.worst, verdict);

  // Alert lifecycle: STALL and STOP alert; OK/WARN resolve both.
  if (verdict == LagVerdict::kStall) {
    resolve_alert(t, HealthDetector::kLagStop, pid, -1);
    open_alert(t, HealthDetector::kLagStall, pid, -1,
               ps.ever_committed ? ps.frozen_ticks : ps.cold_ticks);
  } else if (verdict == LagVerdict::kStop) {
    resolve_alert(t, HealthDetector::kLagStall, pid, -1);
    open_alert(t, HealthDetector::kLagStop, pid, -1, ps.unowned_ticks);
  } else {
    resolve_alert(t, HealthDetector::kLagStall, pid, -1);
    resolve_alert(t, HealthDetector::kLagStop, pid, -1);
  }
}

void HealthMonitor::evaluate_isr(TimePoint t, std::int32_t pid, IsrState& is) {
  series_named("isr_size_p" + std::to_string(pid))
      .observe(t, static_cast<double>(is.isr));

  // Under-replication: ISR persistently below the replica set.
  const bool under = is.replicas > 1 && is.isr < is.replicas;
  is.under_ticks = under ? is.under_ticks + 1 : 0;
  if (is.under_ticks >= config_.under_replicated_ticks) {
    open_alert(t, HealthDetector::kUnderReplicated, pid, -1, is.under_ticks);
  } else if (!under) {
    resolve_alert(t, HealthDetector::kUnderReplicated, pid, -1);
  }

  // Flapping: ISR-size transitions within the sliding window.
  is.sizes.push_back(is.isr);
  std::size_t transitions = 0;
  for (std::size_t i = 1; i < is.sizes.size(); ++i) {
    if (is.sizes[i] != is.sizes[i - 1]) ++transitions;
  }
  if (transitions >= config_.flap_threshold) {
    open_alert(t, HealthDetector::kIsrFlapping, pid, -1, transitions);
  } else if (transitions == 0) {
    resolve_alert(t, HealthDetector::kIsrFlapping, pid, -1);
  }
}

void HealthMonitor::evaluate_broker(TimePoint t, std::int32_t broker,
                                    BrokerState& bs) {
  series_named("parked_acks_b" + std::to_string(broker))
      .observe(t, static_cast<double>(bs.parked));

  // Flush-stall pressure: responses parked while the broker's high
  // watermarks are frozen — replication or the disk stopped advancing.
  const bool pressured = bs.parked > 0 && bs.hw_sum == bs.last_hw_sum;
  bs.pressure_ticks = pressured ? bs.pressure_ticks + 1 : 0;
  bs.last_hw_sum = bs.hw_sum;
  if (bs.pressure_ticks >= config_.flush_stall_ticks) {
    open_alert(t, HealthDetector::kFlushStall, -1, broker, bs.pressure_ticks);
  } else if (!pressured) {
    resolve_alert(t, HealthDetector::kFlushStall, -1, broker);
  }
}

void HealthMonitor::evaluate(TimePoint t) {
  now_ = t;
  ++ticks_;
  for (auto& [pid, ps] : partitions_) {
    if (!ps.probed) continue;
    evaluate_partition(t, pid, ps);
  }
  for (auto& [pid, is] : isr_) {
    if (!is.probed) continue;
    evaluate_isr(t, pid, is);
  }
  for (auto& [b, bs] : brokers_) {
    if (!bs.probed) continue;
    evaluate_broker(t, b, bs);
  }
}

LagVerdict HealthMonitor::verdict(std::int32_t partition) const noexcept {
  const auto it = partitions_.find(partition);
  return it == partitions_.end() ? LagVerdict::kOk : it->second.verdict;
}

HealthReport HealthMonitor::export_health() const {
  HealthReport h;
  h.enabled = true;
  h.interval_us = static_cast<std::uint64_t>(config_.interval);
  h.ticks = ticks_;
  for (const auto& s : series_) {
    HealthReport::Series entry;
    entry.name = s.name();
    entry.interval_us = static_cast<std::uint64_t>(s.interval());
    entry.dropped = s.dropped();
    for (const auto& w : s.windows()) {
      entry.t.push_back(w.index * static_cast<std::int64_t>(s.interval()));
      entry.count.push_back(w.count);
      entry.min.push_back(w.min);
      entry.max.push_back(w.max);
      entry.sum.push_back(w.sum);
    }
    h.series.push_back(std::move(entry));
  }
  if (sketch_.count() > 0) {
    HealthReport::Sketch sk;
    sk.name = "e2e_ack_to_deliver_us";
    sk.count = sketch_.count();
    sk.buckets.assign(sketch_.buckets().begin(), sketch_.buckets().end());
    h.sketches.push_back(std::move(sk));
  }
  h.alerts = alerts_;
  for (const auto& [pid, ps] : partitions_) {
    h.verdicts.push_back(HealthReport::Verdict{
        pid, ps.verdict, ps.worst,
        std::max<std::int64_t>(0, ps.hw - ps.committed), ps.committed,
        ps.hw});
  }
  return h;
}

namespace {

/// Pure-ASCII sparkline: one level glyph per window mean, min..max scaled.
std::string sparkline(const HealthReport::Series& s) {
  static const char kLevels[] = " .:-=+*#%@";
  constexpr std::size_t kMaxCols = 64;
  if (s.t.empty()) return "(no data)";
  std::vector<double> means;
  means.reserve(s.t.size());
  for (std::size_t i = 0; i < s.t.size(); ++i) {
    means.push_back(s.count[i] > 0 ? s.sum[i] / static_cast<double>(s.count[i])
                                   : 0.0);
  }
  // Downsample to the display width by striding (keeps ends stable).
  std::vector<double> cols;
  const std::size_t stride = (means.size() + kMaxCols - 1) / kMaxCols;
  for (std::size_t i = 0; i < means.size(); i += stride) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t j = i; j < std::min(i + stride, means.size()); ++j) {
      acc += means[j];
      ++n;
    }
    cols.push_back(acc / static_cast<double>(n));
  }
  const double lo = *std::min_element(cols.begin(), cols.end());
  const double hi = *std::max_element(cols.begin(), cols.end());
  std::string out;
  for (const double v : cols) {
    const double norm = hi > lo ? (v - lo) / (hi - lo) : 0.0;
    const auto idx = static_cast<std::size_t>(norm * 9.0 + 0.5);
    out += kLevels[std::min<std::size_t>(idx, 9)];
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail), "  [%.6g .. %.6g]", lo, hi);
  return out + tail;
}

std::string us_to_text(std::int64_t us) {
  char buf[32];
  if (us < 0) return "(run end)";
  std::snprintf(buf, sizeof(buf), "%.3fs", static_cast<double>(us) / 1e6);
  return buf;
}

}  // namespace

std::string render_health_text(const RunReport& report) {
  const auto& h = report.health;
  std::string out;
  char line[256];
  if (!h.enabled) {
    return "health monitor: disabled for this run\n";
  }
  std::snprintf(line, sizeof(line),
                "health monitor: %llu evaluation ticks, interval %.0f ms\n",
                static_cast<unsigned long long>(h.ticks),
                static_cast<double>(h.interval_us) / 1000.0);
  out += line;

  if (!h.verdicts.empty()) {
    out += "\nper-partition lag verdicts (committed vs HW):\n";
    for (const auto& v : h.verdicts) {
      std::snprintf(line, sizeof(line),
                    "  partition %d: %-5s (worst %-5s)  committed=%lld "
                    "hw=%lld lag=%lld\n",
                    v.partition, to_string(v.verdict), to_string(v.worst),
                    static_cast<long long>(v.committed),
                    static_cast<long long>(v.hw),
                    static_cast<long long>(v.lag));
      out += line;
    }
  }

  out += "\nalerts (";
  out += std::to_string(h.alerts.size());
  out += "):\n";
  if (h.alerts.empty()) out += "  none — the run stayed healthy\n";
  for (const auto& a : h.alerts) {
    std::string subject;
    if (a.partition >= 0) subject = "partition " + std::to_string(a.partition);
    if (a.broker >= 0) {
      if (!subject.empty()) subject += ", ";
      subject += "broker " + std::to_string(a.broker);
    }
    std::snprintf(line, sizeof(line),
                  "  %-16s %-14s opened %s  resolved %s  (detected after "
                  "%llu windows)\n",
                  to_string(a.detector), subject.c_str(),
                  us_to_text(a.opened).c_str(), us_to_text(a.resolved).c_str(),
                  static_cast<unsigned long long>(a.windows_to_detect));
    out += line;
  }

  if (!h.sketches.empty()) {
    out += "\nend-to-end acked->delivered latency:\n";
    for (const auto& sk : h.sketches) {
      const auto quantile_text = [&](double q) -> std::string {
        const auto bound =
            sketch_quantile_upper_bound(sk.buckets, sk.count, q);
        if (bound == kLatencySketchOverflowUs) {
          return "> " + std::to_string(kLatencySketchBoundsUs.back()) +
                 " us (overflow)";
        }
        return "<= " + std::to_string(bound) + " us";
      };
      std::snprintf(line, sizeof(line), "  %s: %llu samples, p50 %s, p99 %s\n",
                    sk.name.c_str(),
                    static_cast<unsigned long long>(sk.count),
                    quantile_text(0.5).c_str(), quantile_text(0.99).c_str());
      out += line;
    }
  }

  if (!h.series.empty()) {
    out += "\ntrends (window means, oldest -> newest):\n";
    for (const auto& s : h.series) {
      std::snprintf(line, sizeof(line), "  %-24s ", s.name.c_str());
      out += line;
      out += sparkline(s);
      out += '\n';
    }
  }
  return out;
}

}  // namespace ks::obs
