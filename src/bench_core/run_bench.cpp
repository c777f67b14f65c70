#include "bench_core/run_bench.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "bench_core/util.hpp"
#include "obs/profiler.hpp"

namespace ks::bench {

namespace {

/// Redirect stdout to /dev/null for the scope (POSIX fd-level, so both
/// std::printf and any child writes are muted), restoring the original
/// descriptor on exit.
class MuteStdout {
 public:
  explicit MuteStdout(bool mute) {
    if (!mute) return;
    std::fflush(stdout);
    saved_ = dup(STDOUT_FILENO);
    if (saved_ < 0) return;
    if (std::freopen("/dev/null", "w", stdout) == nullptr) {
      close(saved_);
      saved_ = -1;
    }
  }
  ~MuteStdout() {
    if (saved_ < 0) return;
    std::fflush(stdout);
    dup2(saved_, STDOUT_FILENO);
    close(saved_);
  }

  MuteStdout(const MuteStdout&) = delete;
  MuteStdout& operator=(const MuteStdout&) = delete;

 private:
  int saved_ = -1;
};

}  // namespace

Artifact run_bench(const BenchInfo& info, const RunBenchOptions& options) {
  Artifact artifact;
  artifact.bench = info.name;
  artifact.fingerprint = capture_fingerprint();
  artifact.messages = messages_per_run(0);  // 0 = per-bench default.
  artifact.full = full_mode();
  artifact.repeat = options.repeat > 0 ? options.repeat : 1;
  artifact.warmup = options.warmup > 0 ? options.warmup : 0;
  artifact.profiled = options.profile;

  const bool profiler_was_on = obs::profiler().enabled();
  if (options.profile) obs::profiler().enable(true);

  std::vector<double> wall, sim_rate, event_rate;
  const int total = artifact.warmup + artifact.repeat;
  for (int i = 0; i < total; ++i) {
    const bool timed = i >= artifact.warmup;
    const bool last = i == total - 1;
    MuteStdout mute(options.quiet_nonfinal && !last);

    const auto prof_start = obs::profiler().snapshot();
    BenchContext ctx;
    const auto t0 = std::chrono::steady_clock::now();
    info.fn(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();

    if (timed) {
      wall.push_back(secs);
      if (secs > 0.0 && ctx.sim_seconds() > 0.0) {
        sim_rate.push_back(ctx.sim_seconds() / secs);
      }
      if (secs > 0.0 && ctx.sim_events() > 0) {
        event_rate.push_back(static_cast<double>(ctx.sim_events()) / secs);
      }
    }
    if (last) {
      artifact.points = ctx.points();
      artifact.sim_seconds = ctx.sim_seconds();
      artifact.sim_events = ctx.sim_events();
      artifact.experiments = ctx.experiments();
      artifact.reps_per_point = ctx.reps_per_point();
      const auto delta = obs::profiler().snapshot().since(prof_start);
      artifact.alloc_count = delta.alloc_count;
      artifact.alloc_bytes = delta.alloc_bytes;
      artifact.peak_rss_kb = obs::peak_rss_kb();
      if (options.profile) artifact.sections = delta.named_sections();
    }
  }
  if (options.profile && !profiler_was_on) obs::profiler().enable(false);

  artifact.wall_s = DistStat::of(std::move(wall));
  artifact.sim_s_per_wall_s = DistStat::of(std::move(sim_rate));
  artifact.events_per_wall_s = DistStat::of(std::move(event_rate));
  return artifact;
}

}  // namespace ks::bench
