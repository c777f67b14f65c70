// ks_explain: turn a failing chaos seed or a saved run artifact into a
// human-readable causal narrative for one message key.
//
//   ks_explain --seed 0x14b [--profile default|broker_faults|group_faults|
//                            disk_faults] [--key K]
//              [--report out.json] [--perfetto out.perfetto.json]
//   ks_explain path/to/report.json [--key K]
//
// Seed mode replays the scenario deterministically with sampling forced to
// every key (observability is passive, so the simulated run is unchanged),
// re-checks the invariant library and prints the narrative for the chosen
// key — by default the record named by the failure (acked-lost first).
// Artifact mode loads a previously written report JSON and explains it
// offline, no simulation required.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "chaos/generator.hpp"
#include "chaos/harness.hpp"
#include "chaos/invariants.hpp"
#include "obs/explain.hpp"
#include "obs/json_fields.hpp"
#include "obs/report.hpp"
#include "obs/report_parse.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace ks;

int usage() {
  std::fprintf(
      stderr,
      "usage: ks_explain --seed 0xNNN [--profile broker_faults|group_faults|"
      "disk_faults] [--key K]\n"
      "                  [--report out.json] [--perfetto out.json]\n"
      "       ks_explain <report.json> [--key K]\n");
  return 2;
}

struct Args {
  std::optional<std::uint64_t> seed;
  chaos::Profile profile = chaos::Profile::kDefault;
  std::optional<std::uint64_t> key;
  std::string artifact;      ///< Report JSON to load (artifact mode).
  std::string report_out;    ///< --report: write the replayed report here.
  std::string perfetto_out;  ///< --perfetto: write the trace export here.
  bool ok = true;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ks_explain: %s needs a value\n", argv[i]);
        args.ok = false;
        return "";
      }
      return argv[++i];
    };
    const auto number = [&](std::optional<std::uint64_t>& out) {
      const char* flag = argv[i];
      const char* v = value();
      out = parse_u64(v);
      if (!out && args.ok) {
        std::fprintf(stderr,
                     "ks_explain: %s takes a decimal or 0x number, not '%s'\n",
                     flag, v);
        args.ok = false;
      }
    };
    if (arg == "--seed") {
      number(args.seed);
    } else if (arg == "--key") {
      number(args.key);
    } else if (arg == "--profile") {
      const std::string_view p = value();
      if (const auto profile = obs::enum_from_string<chaos::Profile>(p)) {
        args.profile = *profile;
      } else if (args.ok) {
        std::fprintf(stderr, "ks_explain: unknown profile '%.*s'\n",
                     static_cast<int>(p.size()), p.data());
        args.ok = false;
      }
    } else if (arg == "--report") {
      args.report_out = value();
    } else if (arg == "--perfetto") {
      args.perfetto_out = value();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ks_explain: unknown option '%s'\n", argv[i]);
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

/// Load a saved report via the full obs parser (report_parse.hpp), with
/// the tool's own error messages on stderr.
std::optional<obs::RunReport> load_report(const std::string& path) {
  auto report = obs::load_run_report(path);
  if (!report) {
    std::fprintf(stderr, "ks_explain: cannot load %s as a run report\n",
                 path.c_str());
  }
  return report;
}

int explain(const obs::RunReport& report, std::optional<std::uint64_t> key) {
  if (!key) key = obs::pick_explain_key(report);
  if (!key) {
    std::printf("no per-key material in this report (no traced keys, no "
                "anomalies); nothing to explain\n");
    return 0;
  }
  std::printf("%s", obs::explain_key(report, *key).c_str());
  return 0;
}

int run_seed_mode(const Args& args) {
  chaos::ChaosScenario cs = chaos::generate_scenario(*args.seed, args.profile);

  // Turn observability up to full resolution: trace and span every key and
  // size the rings so nothing is evicted. All of it is passive — the
  // simulated run (and therefore the failure) is identical to the repro.
  auto& sc = cs.scenario;
  sc.trace_sample_every = 1;
  sc.trace_capacity = static_cast<std::size_t>(sc.num_messages) * 16 + 4096;
  sc.spans_enabled = true;
  sc.span_sample_every = 1;
  sc.span_capacity = static_cast<std::size_t>(sc.num_messages) * 16 + 4096;

  std::printf("seed 0x%" PRIx64 " (%s profile)\n  %s\n", *args.seed,
              to_string(args.profile), cs.describe().c_str());

  const auto result = testbed::run_experiment(sc);
  const auto violations = chaos::check_invariants(cs, result);
  if (violations.empty()) {
    std::printf("no invariant violations under this seed\n");
  } else {
    std::printf("%zu invariant violation(s):\n", violations.size());
    for (const auto& v : violations) {
      std::printf("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
    }
  }

  if (!args.report_out.empty() &&
      !result.report.write_json(args.report_out)) {
    std::fprintf(stderr, "ks_explain: cannot write %s\n",
                 args.report_out.c_str());
    return 1;
  }
  if (!args.perfetto_out.empty() &&
      !result.report.write_perfetto(args.perfetto_out)) {
    std::fprintf(stderr, "ks_explain: cannot write %s\n",
                 args.perfetto_out.c_str());
    return 1;
  }

  return explain(result.report, args.key);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.ok) return usage();
  if (args.seed) return run_seed_mode(args);
  const auto report = load_report(args.artifact);
  if (!report) return 1;
  return explain(*report, args.key);
}
