#include "chaos/harness.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/explain.hpp"
#include "obs/health.hpp"
#include "obs/json_fields.hpp"

namespace ks::chaos {

namespace {

std::vector<Violation> check_all(const Options& options,
                                 const ChaosScenario& cs,
                                 const testbed::ExperimentResult& result) {
  auto violations = check_invariants(cs, result);
  if (options.extra_invariant) {
    options.extra_invariant(cs, result, violations);
  }
  return violations;
}

/// Restoration actions (loss/delay cleared, base bandwidth, resume) keep a
/// scenario's eventual-connectivity guarantee; the shrinker never removes
/// them, only the impairments themselves.
bool is_restore(const testbed::FaultAction& f) {
  using Kind = testbed::FaultAction::Kind;
  switch (f.kind) {
    case Kind::kNetem: return f.loss <= 0.0 && f.delay <= 0;
    case Kind::kBandwidth: return f.bandwidth_bps <= 0.0;
    case Kind::kBrokerResume: return true;
    // A restart revives a crashed member and a scale-out adds capacity the
    // generator's survivor floor may count on — never shrink those away.
    case Kind::kConsumerRestart:
    case Kind::kGroupScaleOut: return true;
    // A hard restart revives a powered-off broker (its power loss may have
    // been shrunk away; restarting an up broker is a no-op).
    case Kind::kPowerRestore: return true;
    case Kind::kGilbertElliott:
    case Kind::kBrokerFail:
    case Kind::kConsumerCrash:
    case Kind::kConsumerPause:
    case Kind::kPowerLoss:
    case Kind::kDiskCorrupt:
    case Kind::kFlushStall: return false;
  }
  return false;
}

/// Greedy delta-debugging over the fault schedule: drop impairments one at
/// a time, then halve the survivors' intensities, re-running after every
/// candidate edit and keeping it while the scenario still violates.
ChaosScenario shrink_scenario(const Options& options, ChaosScenario cs,
                              std::size_t& runs_used) {
  runs_used = 0;
  auto still_violates = [&](const ChaosScenario& candidate) {
    ++runs_used;
    const auto result = testbed::run_experiment(candidate.scenario);
    return !check_all(options, candidate, result).empty();
  };

  bool improved = true;
  while (improved && runs_used < options.max_shrink_runs) {
    improved = false;

    // Pass 1: drop whole impairments (a dropped broker failure leaves its
    // resume behind; resuming an up broker is a no-op).
    const auto& faults = cs.scenario.faults;
    for (std::size_t i = 0;
         i < faults.size() && runs_used < options.max_shrink_runs; ++i) {
      if (is_restore(faults[i])) continue;
      ChaosScenario candidate = cs;
      candidate.scenario.faults.erase(candidate.scenario.faults.begin() +
                                      static_cast<std::ptrdiff_t>(i));
      if (still_violates(candidate)) {
        cs = std::move(candidate);
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // Pass 2: halve impairment intensities.
    for (std::size_t i = 0;
         i < faults.size() && runs_used < options.max_shrink_runs; ++i) {
      if (is_restore(faults[i])) continue;
      ChaosScenario candidate = cs;
      auto& f = candidate.scenario.faults[i];
      bool changed = false;
      if (f.loss > 0.01) {
        f.loss /= 2;
        changed = true;
      }
      if (f.delay > millis(1)) {
        f.delay /= 2;
        changed = true;
      }
      if (f.kind == testbed::FaultAction::Kind::kGilbertElliott &&
          f.ge.loss_bad > 0.01) {
        f.ge.loss_bad /= 2;
        changed = true;
      }
      if (!changed) continue;
      if (still_violates(candidate)) {
        cs = std::move(candidate);
        improved = true;
        break;
      }
    }
  }
  return cs;
}

std::string repro_command(std::uint64_t chaos_seed, Profile profile) {
  char buf[160];
  char env[48] = "";
  if (profile != Profile::kDefault) {
    std::snprintf(env, sizeof(env), "KS_CHAOS_PROFILE=%s ",
                  to_string(profile));
  }
  std::snprintf(buf, sizeof(buf),
                "%sKS_CHAOS_SEED=0x%" PRIx64 " ctest -R Chaos "
                "--output-on-failure",
                env, chaos_seed);
  return buf;
}

std::string explain_command(std::uint64_t chaos_seed, Profile profile) {
  char buf[160];
  char opt[48] = "";
  if (profile != Profile::kDefault) {
    std::snprintf(opt, sizeof(opt), " --profile %s", to_string(profile));
  }
  std::snprintf(buf, sizeof(buf),
                "build/src/tools/ks_explain --seed 0x%" PRIx64 "%s",
                chaos_seed, opt);
  return buf;
}

/// Write the failing run's report + Perfetto trace into
/// KS_CHAOS_ARTIFACT_DIR (when set); returns the report path, or empty.
std::string write_failure_artifacts(std::uint64_t chaos_seed,
                                    const obs::RunReport& report) {
  const char* dir = std::getenv("KS_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  char name[64];
  std::snprintf(name, sizeof(name), "chaos_0x%" PRIx64, chaos_seed);
  const std::string base = std::string(dir) + "/" + name;
  if (!report.write_json(base + "_report.json")) return {};
  report.write_perfetto(base + ".perfetto.json");
  // Health rendering (verdicts, alert ledger, sparkline trends) next to
  // the raw report, so a CI failure shows the run's health at a glance.
  if (std::ofstream health(base + "_health.txt"); health) {
    health << obs::render_health_text(report);
  }
  return base + "_report.json";
}

/// Run one scenario (plus the optional determinism double-run) and record
/// any failure. Returns true when the scenario passed.
bool run_scenario(const Options& options, std::uint64_t chaos_seed,
                  bool replay_check, Report& report) {
  const ChaosScenario cs = generate_scenario(chaos_seed, options.profile);
  auto result = testbed::run_experiment(cs.scenario);
  ++report.scenarios_run;
  auto violations = check_all(options, cs, result);

  if (replay_check && violations.empty()) {
    // Replay-determinism invariant: the same seed must reproduce the run
    // bit for bit (canonical JSON excludes host wall-clock metrics).
    const auto replay = testbed::run_experiment(cs.scenario);
    ++report.scenarios_run;
    ++report.replay_checks;
    if (result.report.canonical_json() != replay.report.canonical_json()) {
      violations.push_back(
          {"replay-determinism",
           "same seed produced different canonical RunReport JSON"});
    }
  }

  if (violations.empty()) return true;

  Failure failure;
  failure.chaos_seed = chaos_seed;
  failure.violations = violations;
  failure.original_fault_count = cs.scenario.faults.size();
  failure.repro = repro_command(chaos_seed, options.profile);
  failure.explain = explain_command(chaos_seed, options.profile);
  if (const auto key = obs::pick_explain_key(result.report)) {
    failure.narrative_key = *key;
    failure.narrative = obs::explain_key(result.report, *key);
  }
  failure.artifact_path =
      write_failure_artifacts(chaos_seed, result.report);
  failure.shrunk = cs;
  failure.shrunk_fault_count = cs.scenario.faults.size();
  // Determinism failures are not schedule-dependent; shrinking them would
  // just thrash the budget.
  const bool schedule_dependent =
      violations.front().invariant != "replay-determinism";
  if (options.shrink && schedule_dependent && !cs.scenario.faults.empty()) {
    std::size_t runs_used = 0;
    failure.shrunk = shrink_scenario(options, cs, runs_used);
    failure.shrunk_fault_count = failure.shrunk.scenario.faults.size();
    report.scenarios_run += runs_used;
  }
  if (options.verbose_failures) {
    std::printf("%s\n", failure.summary().c_str());
    std::fflush(stdout);
  }
  report.failures.push_back(std::move(failure));
  return false;
}

}  // namespace

std::string Failure::summary() const {
  std::string out = "chaos: invariant violation\n";
  for (const auto& v : violations) {
    out += "  [" + v.invariant + "] " + v.detail + "\n";
  }
  out += "  repro: " + repro;
  out += "\n  explain: " + explain;
  if (!artifact_path.empty()) {
    out += "\n  artifacts: " + artifact_path;
  }
  char counts[96];
  std::snprintf(counts, sizeof(counts),
                "\n  schedule shrunk from %zu to %zu fault actions:",
                original_fault_count, shrunk_fault_count);
  out += counts;
  out += "\n  ";
  out += shrunk.describe();
  if (!narrative.empty()) {
    // Indent the narrative (its first line is its own header) under the
    // failure block.
    std::size_t pos = 0;
    while (pos < narrative.size()) {
      const std::size_t nl = narrative.find('\n', pos);
      const std::size_t end = nl == std::string::npos ? narrative.size() : nl;
      out += "\n  " + narrative.substr(pos, end - pos);
      if (nl == std::string::npos) break;
      pos = nl + 1;
    }
  }
  return out;
}

Report run(const Options& options) {
  Report report;

  if (options.single_seed) {
    run_scenario(options, *options.single_seed, /*replay_check=*/true,
                 report);
    return report;
  }

  for (const auto seed : options.corpus) {
    if (report.failures.size() >= options.max_failures) return report;
    run_scenario(options, seed, /*replay_check=*/false, report);
    ++report.corpus_replayed;
  }

  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    if (report.failures.size() >= options.max_failures) return report;
    const bool replay_check =
        options.replay_every != 0 && i % options.replay_every == 0;
    run_scenario(options, scenario_seed(options.master_seed, i),
                 replay_check, report);
  }
  return report;
}

Options options_from_env(Options base) {
  // An unset or empty knob keeps `base`; a malformed one throws.
  const auto knob = [](const char* name) -> std::optional<std::string> {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return std::nullopt;
    return v;
  };
  const auto number = [&](const char* name) -> std::optional<std::uint64_t> {
    const auto v = knob(name);
    if (!v) return std::nullopt;
    if (const auto n = parse_u64(*v)) return n;
    throw std::invalid_argument(std::string(name) + "='" + *v +
                                "' is not a decimal or 0x number");
  };
  if (const auto seed = number("KS_CHAOS_SEED")) base.single_seed = seed;
  if (const auto iters = number("KS_CHAOS_ITERS")) base.iterations = *iters;
  if (const auto name = knob("KS_CHAOS_PROFILE")) {
    const auto profile = obs::enum_from_string<Profile>(*name);
    if (!profile) {
      std::string known;
      for (int i = 0;; ++i) {
        const std::string_view n = to_string(static_cast<Profile>(i));
        if (n == "?") break;
        known += (i == 0 ? "" : ", ") + std::string(n);
      }
      throw std::invalid_argument("KS_CHAOS_PROFILE='" + *name +
                                  "' is not one of " + known);
    }
    base.profile = *profile;
  }
  return base;
}

namespace {

/// The seeds of a corpus file whose tag is `tag` ("" = untagged lines).
/// Every other line must be blank, a '#' comment, "<seed>" or
/// "<profile> <seed>".
std::vector<std::uint64_t> read_corpus(const std::string& path,
                                       std::string_view tag) {
  std::vector<std::uint64_t> seeds;
  std::ifstream in(path);
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    std::istringstream words(line);
    std::vector<std::string> tokens;
    for (std::string w; words >> w;) tokens.push_back(w);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const bool tagged =
        tokens.size() == 2 && obs::enum_from_string<Profile>(tokens[0]);
    const auto seed = tokens.size() == 1 || tagged
                          ? parse_u64(tokens.back())
                          : std::nullopt;
    if (!seed) {
      throw std::invalid_argument(
          path + ":" + std::to_string(number) + ": '" + line +
          "' is not a decimal or 0x seed, optionally after a profile name");
    }
    if ((tagged ? std::string_view(tokens[0]) : std::string_view()) == tag) {
      seeds.push_back(*seed);
    }
  }
  return seeds;
}

}  // namespace

std::vector<std::uint64_t> load_seed_corpus(const std::string& path) {
  return read_corpus(path, "");
}

std::vector<std::uint64_t> load_tagged_seed_corpus(const std::string& path,
                                                   std::string_view tag) {
  return read_corpus(path, tag);
}

}  // namespace ks::chaos
