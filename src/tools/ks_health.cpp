// ks_health: render a run's online-health section — per-partition lag
// verdicts (Burrow-style OK/WARN/STALL/STOP), the alert ledger with its
// open/resolve lifecycle, the end-to-end latency sketch and ASCII
// sparkline trends for every probed series.
//
//   ks_health --seed 0xNNN [--profile default|broker_faults|group_faults|
//                           disk_faults] [--report out.json]
//   ks_health path/to/report.json
//
// Seed mode replays the chaos scenario deterministically (health probes
// are passive, so the simulated run matches the repro exactly) and renders
// the fresh report; artifact mode renders a saved report JSON offline.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "chaos/generator.hpp"
#include "chaos/harness.hpp"
#include "obs/health.hpp"
#include "obs/json_fields.hpp"
#include "obs/report.hpp"
#include "obs/report_parse.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace ks;

int usage() {
  std::fprintf(
      stderr,
      "usage: ks_health --seed 0xNNN [--profile default|broker_faults|"
      "group_faults|disk_faults]\n"
      "                 [--report out.json]\n"
      "       ks_health <report.json>\n");
  return 2;
}

struct Args {
  std::optional<std::uint64_t> seed;
  chaos::Profile profile = chaos::Profile::kDefault;
  std::string artifact;    ///< Report JSON to load (artifact mode).
  std::string report_out;  ///< --report: write the replayed report here.
  bool ok = true;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ks_health: %s needs a value\n", argv[i]);
        args.ok = false;
        return "";
      }
      return argv[++i];
    };
    const auto number = [&](std::optional<std::uint64_t>& out) {
      const char* flag = argv[i];
      const char* v = value();
      out = chaos::parse_u64(v);
      if (!out && args.ok) {
        std::fprintf(stderr,
                     "ks_health: %s takes a decimal or 0x number, not '%s'\n",
                     flag, v);
        args.ok = false;
      }
    };
    if (arg == "--seed") {
      number(args.seed);
    } else if (arg == "--profile") {
      const std::string_view p = value();
      if (const auto profile = obs::enum_from_string<chaos::Profile>(p)) {
        args.profile = *profile;
      } else if (args.ok) {
        std::fprintf(stderr, "ks_health: unknown profile '%.*s'\n",
                     static_cast<int>(p.size()), p.data());
        args.ok = false;
      }
    } else if (arg == "--report") {
      args.report_out = value();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ks_health: unknown option '%s'\n", argv[i]);
      args.ok = false;
    } else if (args.artifact.empty()) {
      args.artifact = arg;
    } else {
      args.ok = false;
    }
  }
  if (args.seed.has_value() == !args.artifact.empty()) args.ok = false;
  return args;
}

int run_seed_mode(const Args& args) {
  chaos::ChaosScenario cs = chaos::generate_scenario(*args.seed, args.profile);
  cs.scenario.health_enabled = true;

  std::printf("seed 0x%" PRIx64 " (%s profile)\n  %s\n\n", *args.seed,
              to_string(args.profile), cs.describe().c_str());

  const auto result = testbed::run_experiment(cs.scenario);
  if (!args.report_out.empty() &&
      !result.report.write_json(args.report_out)) {
    std::fprintf(stderr, "ks_health: cannot write %s\n",
                 args.report_out.c_str());
    return 1;
  }
  std::printf("%s", obs::render_health_text(result.report).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.ok) return usage();
  if (args.seed) return run_seed_mode(args);
  const auto report = obs::load_run_report(args.artifact);
  if (!report) {
    std::fprintf(stderr, "ks_health: cannot load %s as a run report\n",
                 args.artifact.c_str());
    return 1;
  }
  std::printf("%s", obs::render_health_text(*report).c_str());
  return 0;
}
