// The deterministic chaos harness: generate N scenario programs from a
// master seed, run each through testbed::run_experiment, check the
// invariant library, and on a violation shrink the fault schedule
// (drop/halve faults while the violation persists) and print a one-line
// seed repro:
//
//   KS_CHAOS_SEED=0x1234abcd ctest -R Chaos --output-on-failure
//
// Environment knobs (read by options_from_env):
//   KS_CHAOS_SEED     replay exactly one scenario seed (0x hex or decimal)
//   KS_CHAOS_ITERS    number of randomized scenarios (long-soak unlock)
//   KS_CHAOS_PROFILE  fault-mix profile, by its to_string(Profile) name:
//                     "default", "broker_faults", "group_faults" or
//                     "disk_faults"
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/generator.hpp"
#include "chaos/invariants.hpp"
#include "common/parse.hpp"

namespace ks::chaos {

struct Options {
  std::uint64_t master_seed = 0x5EEDFACE;
  std::uint64_t iterations = 200;
  /// Fault-mix profile every seed is expanded under (part of the repro).
  Profile profile = Profile::kDefault;
  /// Replay exactly this scenario seed instead of a randomized sweep.
  std::optional<std::uint64_t> single_seed;
  /// Seeds replayed before the randomized sweep (tests/corpus/...).
  std::vector<std::uint64_t> corpus;
  bool shrink = true;
  std::size_t max_shrink_runs = 48;
  /// Every Nth scenario is run twice and its canonical RunReport JSON
  /// compared byte-for-byte (replay-determinism invariant). 0 disables.
  std::uint64_t replay_every = 32;
  /// Stop the sweep after this many failing scenarios.
  std::size_t max_failures = 5;
  /// Test hook: extra invariant run after the built-in library.
  std::function<void(const ChaosScenario&,
                     const testbed::ExperimentResult&,
                     std::vector<Violation>&)>
      extra_invariant;
  /// Print failures (repro line + shrunk schedule) to stdout as they occur.
  bool verbose_failures = true;
};

struct Failure {
  std::uint64_t chaos_seed = 0;
  std::vector<Violation> violations;  ///< From the original (unshrunk) run.
  ChaosScenario shrunk;               ///< Minimized still-violating scenario.
  std::size_t original_fault_count = 0;
  std::size_t shrunk_fault_count = 0;
  std::string repro;    ///< One-line reproduction command.
  std::string explain;  ///< ks_explain invocation for this seed.
  /// Causal narrative for the key picked from the failing run's report
  /// (anomalous keys first); empty when the report has nothing to tell.
  std::uint64_t narrative_key = 0;
  std::string narrative;
  std::string artifact_path;  ///< Report written to KS_CHAOS_ARTIFACT_DIR.

  /// Multi-line report: violations, repro + explain commands, the causal
  /// narrative and the shrunk schedule.
  std::string summary() const;
};

struct Report {
  std::uint64_t scenarios_run = 0;   ///< Experiments executed (incl. corpus).
  std::uint64_t corpus_replayed = 0;
  std::uint64_t replay_checks = 0;   ///< Determinism double-runs performed.
  std::vector<Failure> failures;
  bool ok() const noexcept { return failures.empty(); }
};

/// Run the harness: corpus seeds first, then the randomized sweep.
Report run(const Options& options);

/// Apply KS_CHAOS_SEED / KS_CHAOS_ITERS / KS_CHAOS_PROFILE on top of
/// `base`. Throws std::invalid_argument, naming what it accepts, for a
/// number parse_u64 rejects or a profile name no Profile carries.
Options options_from_env(Options base = {});

/// Load a seed corpus: one seed per line (hex 0x... or decimal, read by
/// parse_u64), '#' comments and blank lines ignored. Missing file => empty
/// corpus. Profile-tagged lines ("group_faults 0x...") are skipped — they
/// belong to the tagged loader below. Any line that is neither "<seed>"
/// nor "<profile> <seed>" throws std::invalid_argument naming the file and
/// line, so a typo never replays a different scenario than the line says.
std::vector<std::uint64_t> load_seed_corpus(const std::string& path);

/// Load the seeds tagged with one profile name: lines of the form
/// "<tag> <seed>". Bare-seed and differently-tagged lines are skipped;
/// malformed lines throw as in load_seed_corpus.
std::vector<std::uint64_t> load_tagged_seed_corpus(const std::string& path,
                                                   std::string_view tag);

}  // namespace ks::chaos
