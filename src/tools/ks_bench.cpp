// ks_bench — the unified bench runner. One binary links every registered
// reproduction bench (figures, tables, ablations, scaling) and runs any
// subset by name, with repeat/warm-up timing and schema v2 BENCH artifact
// emission (see src/bench_core/artifact.hpp).
//
//   ks_bench --list
//   ks_bench fig4 fig6                 # substring filters, union
//   ks_bench --repeat 3 --out outdir   # timing stats over 3 repeats
//   ks_bench --skip-slow               # skip the ANN-training benches
//
// Environment: KS_BENCH_MESSAGES / KS_BENCH_FULL shape the runs (see
// bench_core/util.hpp); KS_BENCH_ARTIFACTS=0 disables artifact files;
// KS_BENCH_ARTIFACT_DIR is the default --out.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "bench_core/registry.hpp"
#include "bench_core/run_bench.hpp"
#include "bench_core/util.hpp"
#include "common/parse.hpp"

namespace {

using namespace ks;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] [name-filter...]\n"
      "  --list           list registered benches and exit\n"
      "  --repeat N       timed whole-bench repetitions (default 1)\n"
      "  --warmup N       discarded warm-up repetitions\n"
      "                   (default 1 when --repeat > 1, else 0)\n"
      "  --out DIR        artifact directory (default KS_BENCH_ARTIFACT_DIR\n"
      "                   or the working directory)\n"
      "  --no-profile     do not arm the self-profiler\n"
      "  --no-artifacts   do not write BENCH_<name>.json files\n"
      "  --skip-slow      skip benches tagged slow (ANN training)\n"
      "name filters match as substrings; no filter runs every bench.\n",
      argv0);
  return 2;
}

/// A repetition count: a whole decimal or 0x number that fits in an int.
std::optional<int> count_arg(const char* text) {
  const auto n = parse_u64(text);
  if (!n || *n > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return std::nullopt;
  }
  return static_cast<int>(*n);
}

bool artifacts_enabled_env() {
  const char* env = std::getenv("KS_BENCH_ARTIFACTS");
  return env == nullptr || env[0] != '0';
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false, skip_slow = false;
  bench::RunBenchOptions options;
  bool artifacts = artifacts_enabled_env();
  int warmup = -1;  // -1 = derive from repeat.
  std::string out_dir = ".";
  if (const char* env = std::getenv("KS_BENCH_ARTIFACT_DIR")) out_dir = env;
  std::vector<std::string> filters;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--repeat" && i + 1 < argc) {
      const auto n = count_arg(argv[++i]);
      if (!n || *n < 1) return usage(argv[0]);
      options.repeat = *n;
    } else if (arg == "--warmup" && i + 1 < argc) {
      const auto n = count_arg(argv[++i]);
      if (!n) return usage(argv[0]);
      warmup = *n;
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--no-profile") {
      options.profile = false;
    } else if (arg == "--no-artifacts") {
      artifacts = false;
    } else if (arg == "--skip-slow") {
      skip_slow = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      filters.push_back(arg);
    }
  }
  options.warmup = warmup >= 0 ? warmup : (options.repeat > 1 ? 1 : 0);
  try {
    bench::messages_per_run(0);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ks_bench: %s\n", e.what());
    return 2;
  }

  const auto& registry = bench::bench_registry();
  if (list) {
    for (const auto& info : registry) {
      std::printf("%-28s %s%s\n", info.name.c_str(),
                  info.description.c_str(), info.slow ? " [slow]" : "");
    }
    return 0;
  }

  const auto selected = [&](const bench::BenchInfo& info) {
    if (filters.empty()) return !(skip_slow && info.slow);
    for (const auto& f : filters) {
      if (info.name.find(f) != std::string::npos) {
        return !(skip_slow && info.slow);
      }
    }
    return false;
  };

  std::vector<const bench::BenchInfo*> to_run;
  for (const auto& info : registry) {
    if (selected(info)) to_run.push_back(&info);
  }
  if (to_run.empty()) {
    std::fprintf(stderr, "ks_bench: no registered bench matches the %s\n",
                 filters.empty() ? "selection" : "given filters");
    return 2;
  }

  if (artifacts && out_dir != ".") {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "ks_bench: cannot create %s: %s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  int failures = 0;
  for (const auto* info : to_run) {
    std::printf("=== %s ===\n", info->name.c_str());
    std::fflush(stdout);
    const auto artifact = bench::run_bench(*info, options);
    std::printf("\n# timing: %.3fs mean (stddev %.3fs, min %.3fs over %d "
                "repeat%s)",
                artifact.wall_s.mean, artifact.wall_s.stddev,
                artifact.wall_s.min, artifact.repeat,
                artifact.repeat == 1 ? "" : "s");
    if (artifact.sim_seconds > 0.0 && artifact.wall_s.mean > 0.0) {
      std::printf("; %.0fx real time, %.2fM events/s",
                  artifact.sim_s_per_wall_s.mean,
                  artifact.events_per_wall_s.mean / 1e6);
    }
    std::printf("\n");
    if (artifacts) {
      const auto path =
          out_dir + "/" + bench::artifact_filename(artifact.bench);
      if (artifact.write(path)) {
        std::printf("# artifact: %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "ks_bench: cannot write %s\n", path.c_str());
        ++failures;
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return failures == 0 ? 0 : 1;
}
