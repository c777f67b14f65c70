// Tier-1 chaos harness test: hundreds of randomized fault-schedule
// scenarios, every one checked against the Fig. 2 / Table I invariant
// library, with seed-exact reproduction.
//
// Repro a failure:   KS_CHAOS_SEED=0x... ctest -R Chaos --output-on-failure
// Long soak:         KS_CHAOS_ITERS=5000 ctest -R Chaos
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chaos/harness.hpp"
#include "chaos/invariants.hpp"
#include "kpi/online_controller.hpp"
#include "obs/explain.hpp"
#include "obs/health.hpp"
#include "obs/json_fields.hpp"
#include "testbed/experiment.hpp"

#ifndef KS_CORPUS_DIR
#define KS_CORPUS_DIR "tests/corpus"
#endif

namespace ks::chaos {
namespace {

using Kind = testbed::FaultAction::Kind;

/// Packets the loss model dropped on the first producer connection's egress.
double producer_wire_loss(const testbed::ExperimentResult& r) {
  return r.report.metric(
      "link_packets_dropped_total{link=\"prod0-broker0:a->b\","
      "cause=\"loss_model\"}");
}

std::string corpus_path() {
  return std::string(KS_CORPUS_DIR) + "/chaos_seeds.txt";
}

// The tier-1 sweep: pinned corpus first, then the randomized scenarios.
// KS_CHAOS_SEED / KS_CHAOS_ITERS override for repro / soak runs.
TEST(Chaos, RandomizedScenariosHoldInvariants) {
  Options options;
  options.corpus = load_seed_corpus(corpus_path());
  options = options_from_env(options);

  const auto report = run(options);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure.summary();
  }
  EXPECT_TRUE(report.ok());
  if (!options.single_seed) {
    EXPECT_GE(report.scenarios_run, options.iterations);
    EXPECT_GE(report.corpus_replayed, 4u) << "seed corpus missing? "
                                          << corpus_path();
    EXPECT_GT(report.replay_checks, 0u)
        << "no replay-determinism double-runs happened";
  }
}

TEST(Chaos, GeneratorIsDeterministicInTheSeed) {
  const auto a = generate_scenario(0xDEADBEEFu);
  const auto b = generate_scenario(0xDEADBEEFu);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.scenario.seed, b.scenario.seed);
  EXPECT_EQ(a.scenario.faults.size(), b.scenario.faults.size());

  const auto c = generate_scenario(0xDEADBEF0u);
  EXPECT_NE(a.describe(), c.describe());
}

// The scenario space must actually cover what the harness claims: all
// three semantics presets, the benign-recovery class, and every fault
// kind (loss bursts, bursty GE loss, bandwidth drops, broker outages).
TEST(Chaos, GeneratorCoversTheScenarioSpace) {
  int semantics_seen[3] = {0, 0, 0};
  int benign = 0;
  int replicated = 0;
  int durable = 0;
  int unclean = 0;
  int custom_backoff = 0;
  int adaptive = 0;
  int adaptive_benign = 0;
  std::set<Kind> kinds;
  for (std::uint64_t i = 0; i < 128; ++i) {
    const auto cs = generate_scenario(scenario_seed(0xC0FFEEu, i));
    ++semantics_seen[static_cast<int>(cs.scenario.semantics)];
    if (cs.expect_no_loss) ++benign;
    if (cs.scenario.replication_factor > 1) ++replicated;
    if (cs.expect_no_acked_loss) ++durable;
    if (cs.scenario.unclean_leader_election) ++unclean;
    if (cs.scenario.retry_backoff > 0) ++custom_backoff;
    if (cs.scenario.adaptive_enabled) {
      ++adaptive;
      EXPECT_NE(cs.scenario.adaptive_factory, nullptr);
      EXPECT_GT(cs.scenario.adaptive_interval, 0);
      EXPECT_GT(cs.scenario.adaptive_cooldown, 0);
      if (cs.expect_no_loss) ++adaptive_benign;
    }
    for (const auto& f : cs.scenario.faults) kinds.insert(f.kind);
  }
  EXPECT_GT(semantics_seen[0], 0) << "no at-most-once scenarios";
  EXPECT_GT(semantics_seen[1], 0) << "no at-least-once scenarios";
  EXPECT_GT(semantics_seen[2], 0) << "no exactly-once scenarios";
  EXPECT_GT(benign, 0) << "no benign-recovery (no-loss) scenarios";
  EXPECT_GT(replicated, 0) << "no replicated scenarios";
  EXPECT_GT(durable, 0) << "no durable-delivery (no-acked-loss) scenarios";
  EXPECT_GT(unclean, 0) << "no unclean-election scenarios";
  EXPECT_GT(custom_backoff, 0) << "retry-backoff knobs never drawn";
  EXPECT_GT(adaptive, 0) << "online-controller dimension never drawn";
  EXPECT_EQ(adaptive_benign, 0)
      << "controller may lower T_o, so benign (no-loss) scenarios must "
         "never arm it";
  EXPECT_TRUE(kinds.count(Kind::kNetem));
  EXPECT_TRUE(kinds.count(Kind::kGilbertElliott));
  EXPECT_TRUE(kinds.count(Kind::kBandwidth));
  EXPECT_TRUE(kinds.count(Kind::kBrokerFail));
  EXPECT_TRUE(kinds.count(Kind::kBrokerResume));
}

// The broker-fault soak profile must actually shift the mix: every seed
// expands differently from its default-profile expansion, broker outages
// dominate the schedules, and most scenarios are replicated.
TEST(Chaos, BrokerFaultProfileWeightsOutages) {
  int broker_fault_runs = 0;
  int replicated = 0;
  int distinct = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto seed = scenario_seed(0xC0FFEEu, i);
    const auto cs = generate_scenario(seed, Profile::kBrokerFaults);
    if (cs.describe() != generate_scenario(seed).describe()) ++distinct;
    if (cs.scenario.replication_factor > 1) ++replicated;
    for (const auto& f : cs.scenario.faults) {
      if (f.kind == Kind::kBrokerFail) {
        ++broker_fault_runs;
        break;
      }
    }
  }
  EXPECT_EQ(distinct, 64);
  EXPECT_GT(replicated, 40);
  EXPECT_GT(broker_fault_runs, 32);
}

// The durable-delivery class promises at most one broker down at any
// moment; its generated schedules must honour that by construction.
TEST(Chaos, DurableScenariosSerializeBrokerOutages) {
  int checked = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const auto cs = generate_scenario(scenario_seed(0xFACADEu, i),
                                      Profile::kBrokerFaults);
    if (!cs.expect_no_acked_loss) continue;
    EXPECT_EQ(cs.scenario.replication_factor, 3);
    EXPECT_EQ(cs.scenario.min_insync_replicas, 2);
    EXPECT_FALSE(cs.scenario.unclean_leader_election);
    EXPECT_EQ(cs.scenario.semantics, kafka::DeliverySemantics::kExactlyOnce);
    // Reconstruct the outage intervals; they must not overlap.
    std::vector<std::pair<TimePoint, TimePoint>> outages;
    for (const auto& f : cs.scenario.faults) {
      if (f.kind == Kind::kBrokerFail) {
        outages.emplace_back(f.at, std::numeric_limits<TimePoint>::max());
      } else if (f.kind == Kind::kBrokerResume) {
        for (auto& [from, to] : outages) {
          if (to == std::numeric_limits<TimePoint>::max() &&
              f.at >= from) {
            to = f.at;
            break;
          }
        }
      }
    }
    std::sort(outages.begin(), outages.end());
    for (std::size_t j = 1; j < outages.size(); ++j) {
      EXPECT_GT(outages[j].first, outages[j - 1].second)
          << cs.describe();
    }
    ++checked;
  }
  EXPECT_GT(checked, 10) << "profile produced too few durable scenarios";
}

TEST(Chaos, SeedCorpusParses) {
  const auto seeds = load_seed_corpus(corpus_path());
  ASSERT_GE(seeds.size(), 4u);
  EXPECT_EQ(seeds.front(), 0x5EEDFACEu);
  EXPECT_TRUE(load_seed_corpus("/nonexistent/chaos_seeds.txt").empty());
}

TEST(Chaos, EnvKnobsOverrideOptions) {
  ::setenv("KS_CHAOS_SEED", "0x2a", 1);
  ::setenv("KS_CHAOS_ITERS", "7", 1);
  ::setenv("KS_CHAOS_PROFILE", "broker_faults", 1);
  const auto options = options_from_env();
  ::unsetenv("KS_CHAOS_SEED");
  ::unsetenv("KS_CHAOS_ITERS");
  ::unsetenv("KS_CHAOS_PROFILE");
  ASSERT_TRUE(options.single_seed.has_value());
  EXPECT_EQ(*options.single_seed, 0x2au);
  EXPECT_EQ(options.iterations, 7u);
  EXPECT_EQ(options.profile, Profile::kBrokerFaults);
  ::setenv("KS_CHAOS_PROFILE", "group_faults", 1);
  EXPECT_EQ(options_from_env().profile, Profile::kGroupFaults);
  ::unsetenv("KS_CHAOS_PROFILE");
  EXPECT_EQ(options_from_env().profile, Profile::kDefault);
}

// A malformed knob fails loudly: an unknown profile used to run the
// default sweep, and KS_CHAOS_ITERS=5k used to run 5 scenarios.
TEST(Chaos, EnvKnobsRejectUnknownProfilesAndMalformedNumbers) {
  ::setenv("KS_CHAOS_PROFILE", "disk-faults", 1);
  try {
    options_from_env();
    ADD_FAILURE() << "an unknown profile was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("disk_faults"), std::string::npos)
        << "the message should name the accepted profiles: " << e.what();
  }
  ::unsetenv("KS_CHAOS_PROFILE");
  for (const char* iters : {"5k", "-1", "0x", " 5", "18446744073709551616"}) {
    ::setenv("KS_CHAOS_ITERS", iters, 1);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << iters;
  }
  ::unsetenv("KS_CHAOS_ITERS");
  ::setenv("KS_CHAOS_SEED", "0x5EEDFACEzz", 1);
  EXPECT_THROW(options_from_env(), std::invalid_argument);
  ::unsetenv("KS_CHAOS_SEED");
}

TEST(Chaos, ParseU64TakesWholeDecimalOrHexTokensOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("0x2a"), 0x2au);
  EXPECT_EQ(parse_u64("0X5EEDFACE"), 0x5EEDFACEu);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~std::uint64_t{0});
  EXPECT_EQ(parse_u64("0xffffffffffffffff"), ~std::uint64_t{0});
  for (const char* bad :
       {"", "0x", "zz", "0x1zz", "banana", "5k", "-1", "+1", " 1", "1 ",
        "1.5", "18446744073709551616", "0x10000000000000000", "0x-1"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

// A corpus line is "<seed>" or "<profile> <seed>" with the seed read like
// KS_CHAOS_SEED: a malformed line throws and names its line, and a
// leading zero is decimal (strtoull base 0 read 012 as octal 10).
TEST(Chaos, SeedCorpusRejectsMalformedLines) {
  const auto write = [](const std::string& body) {
    const std::string path = ::testing::TempDir() + "ks_chaos_corpus.txt";
    std::ofstream(path) << body;
    return path;
  };
  const auto good = write(
      "# comment\n\n012\n  0x1F \ngroup_faults 0x2c\ndisk_faults 7\n");
  EXPECT_EQ(load_seed_corpus(good), (std::vector<std::uint64_t>{12, 0x1F}));
  EXPECT_EQ(load_tagged_seed_corpus(good, "group_faults"),
            (std::vector<std::uint64_t>{0x2c}));
  EXPECT_EQ(load_tagged_seed_corpus(good, "disk_faults"),
            (std::vector<std::uint64_t>{7}));
  for (const char* bad :
       {"0x1zz", "99999999999999999999", "-1", "0x12 0x34", "zz",
        "group_faults", "group_faults 0x1zz", "banana 0x5",
        "group_faults 0x1 0x2"}) {
    const auto path = write("0x5\n" + std::string(bad) + "\n");
    for (const char* tag : {"", "group_faults"}) {
      try {
        if (*tag == '\0') {
          load_seed_corpus(path);
        } else {
          load_tagged_seed_corpus(path, tag);
        }
        ADD_FAILURE() << "accepted '" << bad << "'";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(path + ":2:"),
                  std::string::npos)
            << "the error should name line 2: " << e.what();
      }
    }
  }
}

TEST(Chaos, TaggedSeedCorpusParses) {
  const auto group = load_tagged_seed_corpus(corpus_path(), "group_faults");
  ASSERT_GE(group.size(), 4u);
  EXPECT_EQ(group.front(), 0x2cu);
  EXPECT_TRUE(
      load_tagged_seed_corpus(corpus_path(), "no_such_profile").empty());
  EXPECT_TRUE(
      load_tagged_seed_corpus("/nonexistent/seeds.txt", "group_faults")
          .empty());
  // Tagged lines never leak into the bare loader (strtoull on a tag would
  // otherwise silently yield seed 0).
  const auto bare = load_seed_corpus(corpus_path());
  EXPECT_EQ(bare.front(), 0x5EEDFACEu);
  EXPECT_EQ(std::count(bare.begin(), bare.end(), 0u), 0);
  for (auto seed : group) {
    EXPECT_EQ(std::count(bare.begin(), bare.end(), seed), 0)
        << "tagged seed 0x" << std::hex << seed
        << " also parsed by the untagged loader";
  }
}

// The group-fault soak profile: every seed draws a live consumer group
// over several partitions, expands differently from its default-profile
// expansion, covers both commit disciplines, both assignment strategies
// and static membership, schedules every member-fault kind, and never
// crashes the whole group permanently (the drain needs a survivor).
TEST(Chaos, GroupFaultProfileCoversGroupSpace) {
  int distinct = 0;
  int commit_before = 0;
  int sticky = 0;
  int static_membership = 0;
  int group_no_loss = 0;
  std::set<Kind> kinds;
  for (std::uint64_t i = 0; i < 96; ++i) {
    const auto seed = scenario_seed(0xC0FFEEu, i);
    const auto cs = generate_scenario(seed, Profile::kGroupFaults);
    if (cs.describe() != generate_scenario(seed).describe()) ++distinct;
    ASSERT_GE(cs.scenario.group_size, 2) << cs.describe();
    ASSERT_GE(cs.scenario.partitions, 2) << cs.describe();
    if (cs.scenario.group_commit_mode ==
        kafka::CommitMode::kCommitBeforeDeliver) {
      ++commit_before;
    }
    if (cs.scenario.group_strategy ==
        kafka::AssignmentStrategy::kCooperativeSticky) {
      ++sticky;
    }
    if (cs.scenario.group_static_membership) ++static_membership;
    if (cs.expect_group_no_loss) ++group_no_loss;
    // The at-least-once delivery class is exactly the commit-after draw.
    EXPECT_EQ(cs.expect_group_no_loss,
              cs.scenario.group_commit_mode ==
                  kafka::CommitMode::kCommitAfterDeliver)
        << cs.describe();
    // Survivor floor: members alive at the end of the schedule >= 1.
    int alive = cs.scenario.group_size;
    for (const auto& f : cs.scenario.faults) {
      kinds.insert(f.kind);
      if (f.kind == Kind::kConsumerCrash) --alive;
      if (f.kind == Kind::kConsumerRestart) ++alive;
      if (f.kind == Kind::kGroupScaleOut) ++alive;
    }
    EXPECT_GE(alive, 1) << cs.describe();
  }
  EXPECT_EQ(distinct, 96);
  EXPECT_GT(commit_before, 24);
  EXPECT_LT(commit_before, 72);
  EXPECT_GT(sticky, 24);
  EXPECT_GT(static_membership, 8);
  EXPECT_GT(group_no_loss, 24);
  EXPECT_TRUE(kinds.count(Kind::kConsumerCrash));
  EXPECT_TRUE(kinds.count(Kind::kConsumerRestart));
  EXPECT_TRUE(kinds.count(Kind::kConsumerPause));
  EXPECT_TRUE(kinds.count(Kind::kGroupScaleOut));
}

// The group sweep itself: pinned group seeds replayed first, then a
// randomized pass, all checked against the group invariant library
// (generation isolation always; no-loss for the commit-after class).
TEST(Chaos, GroupFaultsSweepHoldsInvariants) {
  Options options;
  options.master_seed = 0x6B0B5EED;
  options.iterations = 48;
  options.profile = Profile::kGroupFaults;
  options.corpus = load_tagged_seed_corpus(corpus_path(), "group_faults");
  options.replay_every = 16;

  const auto report = run(options);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure.summary();
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.corpus_replayed, 4u)
      << "group_faults seeds missing from " << corpus_path();
  EXPECT_GE(report.scenarios_run, 48u);
  EXPECT_GT(report.replay_checks, 0u);
}

// The adaptive soak's length: KS_CHAOS_ITERS / 8 (read like the sweep's
// knob, so a malformed value throws), clamped to [48, 4096]; 48 when unset.
std::uint64_t adaptive_soak_iterations() {
  Options base;
  base.iterations = 48 * 8;
  return std::clamp<std::uint64_t>(options_from_env(base).iterations / 8, 48,
                                   4096);
}

// The soak runs of this suite set KS_CHAOS_ITERS themselves, so the test
// sets every value it reads and puts the inherited one back.
TEST(ChaosAdaptive, SoakLengthReadsTheIterationsKnobStrictly) {
  const char* inherited = std::getenv("KS_CHAOS_ITERS");
  const std::optional<std::string> saved =
      inherited ? std::optional<std::string>(inherited) : std::nullopt;
  ::unsetenv("KS_CHAOS_ITERS");
  EXPECT_EQ(adaptive_soak_iterations(), 48u);
  ::setenv("KS_CHAOS_ITERS", "0x1000", 1);
  EXPECT_EQ(adaptive_soak_iterations(), 512u);
  ::setenv("KS_CHAOS_ITERS", "5k", 1);
  EXPECT_THROW(adaptive_soak_iterations(), std::invalid_argument)
      << "5k used to run the default 48 iterations";
  if (saved) {
    ::setenv("KS_CHAOS_ITERS", saved->c_str(), 1);
  } else {
    ::unsetenv("KS_CHAOS_ITERS");
  }
}

// Adaptive soak: every non-benign net-fault scenario with the online
// controller force-armed (not just the generator's 25% draw), so the
// passivity/no-thrash/accounting invariants and the controller's whole
// estimate->choose->clamp->apply path run against the full breadth of
// loss/delay/bandwidth schedules. KS_CHAOS_ITERS scales the sweep.
TEST(ChaosAdaptive, NetFaultSweepHoldsInvariantsWithControllerForcedOn) {
  const std::uint64_t iterations = adaptive_soak_iterations();
  std::uint64_t armed = 0, ticks = 0, evaluations = 0, applied = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    auto cs = generate_scenario(scenario_seed(0xADA75EEDu, i));
    // The benign (no-loss) class is excluded by design: the controller may
    // legally trade T_o down and turn late deliveries into expiries.
    if (cs.expect_no_loss) continue;
    cs.scenario.adaptive_enabled = true;
    if (cs.scenario.adaptive_interval == 0) {
      cs.scenario.adaptive_interval = millis(400);
    }
    if (cs.scenario.adaptive_cooldown == 0) {
      cs.scenario.adaptive_cooldown = seconds(2);
    }
    cs.scenario.adaptive_factory = kpi::synthetic_adaptive_factory();
    ++armed;

    const auto result = testbed::run_experiment(cs.scenario);
    for (const auto& v : check_invariants(cs, result)) {
      ADD_FAILURE() << "[" << v.invariant << "] " << v.detail
                    << "\n  repro seed: 0x" << std::hex
                    << scenario_seed(0xADA75EEDu, i);
    }
    ticks += result.adaptive_ticks;
    evaluations += result.adaptive_evaluations;
    applied += result.adaptive_reconfigurations;
  }
  EXPECT_GT(armed, 0u);
  EXPECT_GT(ticks, 0u) << "controller never ticked across the sweep";
  EXPECT_GT(evaluations, 0u)
      << "estimator never reached confidence on any scenario";
  // Not asserted > 0 per-scenario — calm runs legitimately hold still —
  // but a sweep-wide zero would mean the apply path is dead.
  EXPECT_GT(applied, 0u) << "no scenario ever applied a reconfiguration";
}

// The Table-I seed pair: one pinned fault schedule, two commit
// disciplines, opposite delivery semantics. Under commit-before-deliver
// the member crash loses records the broker had committed (at-most-once);
// the identical schedule under commit-after-deliver delivers everything,
// paying only duplicates (at-least-once). Both verdicts must also be
// narrated by the ks_explain pipeline.
TEST(Chaos, GroupSemanticsSeedPairPinsTableOne) {
  const auto cs = generate_scenario(0x2c, Profile::kGroupFaults);
  ASSERT_GE(cs.scenario.group_size, 2);

  // Arm 1: commit before deliver. The crash window between commit and
  // delivery turns the rebalance into silent loss.
  auto before = cs.scenario;
  before.group_commit_mode = kafka::CommitMode::kCommitBeforeDeliver;
  const auto lossy = testbed::run_experiment(before);
  ASSERT_TRUE(lossy.completed);
  EXPECT_GT(lossy.group_lost, 0u)
      << "pinned seed no longer loses under commit-before-deliver";
  EXPECT_EQ(lossy.group_same_generation_dups, 0u);
  ASSERT_FALSE(lossy.report.group_lost_keys.empty());

  // The narrative machinery picks a group-lost key and tells its story.
  const auto key = obs::pick_explain_key(lossy.report);
  ASSERT_TRUE(key.has_value());
  const auto story = obs::explain_key(lossy.report, *key);
  EXPECT_NE(story.find("GROUP LOST"), std::string::npos) << story;
  EXPECT_NE(story.find("commit-before-deliver"), std::string::npos) << story;

  // Arm 2: the same schedule, commit after deliver. Nothing is lost; the
  // redelivered window shows up as cross-generation duplicates.
  auto after = cs.scenario;
  after.group_commit_mode = kafka::CommitMode::kCommitAfterDeliver;
  const auto dup = testbed::run_experiment(after);
  ASSERT_TRUE(dup.completed);
  EXPECT_EQ(dup.group_lost, 0u);
  EXPECT_TRUE(dup.report.group_lost_keys.empty());
  EXPECT_GT(dup.group_duplicate_deliveries, 0u)
      << "pinned seed no longer redelivers under commit-after-deliver";
  EXPECT_EQ(dup.group_same_generation_dups, 0u);
  EXPECT_TRUE(dup.group_drained);
  EXPECT_EQ(dup.group_unique_delivered, lossy.group_unique_delivered +
                                            lossy.group_lost)
      << "the two disciplines must disagree by exactly the lost records";

  // Both arms saw real group churn — same schedule, same rebalances.
  EXPECT_GT(lossy.group_rebalances, 0u);
  EXPECT_EQ(lossy.group_rebalances, dup.group_rebalances);
}

// The disk-fault soak profile: every seed expands differently from its
// default-profile expansion, the schedules are dominated by power-loss
// crashes with paired hard restarts, the flush knobs actually vary, and
// the durable class pins the safe configuration (fsync-per-append +
// acks=all + RF=3) with no latent corruption injected on top.
TEST(Chaos, DiskFaultProfileShapesScenarios) {
  int distinct = 0;
  int flush_knobs = 0;
  int durable = 0;
  int power_runs = 0;
  int torn = 0;
  std::set<Kind> kinds;
  for (std::uint64_t i = 0; i < 96; ++i) {
    const auto seed = scenario_seed(0xC0FFEEu, i);
    const auto cs = generate_scenario(seed, Profile::kDiskFaults);
    if (cs.describe() != generate_scenario(seed).describe()) ++distinct;
    if (cs.scenario.flush_messages > 0 || cs.scenario.flush_interval > 0) {
      ++flush_knobs;
    }
    if (cs.expect_no_acked_loss) {
      ++durable;
      // The guarantee has two legs: replication AND fsync-per-append
      // (an OS-cache-only leader that crashes after ISR shrink loses
      // acked data legitimately — that is the gap, not a durable run).
      EXPECT_EQ(cs.scenario.flush_messages, 1u) << cs.describe();
      EXPECT_EQ(cs.scenario.replication_factor, 3) << cs.describe();
      EXPECT_EQ(cs.scenario.min_insync_replicas, 2) << cs.describe();
      EXPECT_FALSE(cs.scenario.unclean_leader_election) << cs.describe();
      EXPECT_EQ(cs.scenario.semantics,
                kafka::DeliverySemantics::kExactlyOnce);
    }
    int losses = 0;
    int restores = 0;
    for (const auto& f : cs.scenario.faults) {
      kinds.insert(f.kind);
      if (f.kind == Kind::kPowerLoss) {
        ++losses;
        if (f.torn_write) ++torn;
      }
      if (f.kind == Kind::kPowerRestore) ++restores;
      // A corrupted flushed batch is legitimately lost even under the
      // safe configuration, so the durable class excludes corruption.
      if (cs.expect_no_acked_loss) {
        EXPECT_NE(f.kind, Kind::kDiskCorrupt) << cs.describe();
      }
    }
    // Every crash restarts: a powered-off broker never strands the run.
    EXPECT_EQ(losses, restores) << cs.describe();
    if (losses > 0) ++power_runs;
  }
  EXPECT_EQ(distinct, 96);
  EXPECT_GT(flush_knobs, 32);
  EXPECT_GT(durable, 8);
  EXPECT_GT(power_runs, 40);
  EXPECT_GT(torn, 8);
  EXPECT_TRUE(kinds.count(Kind::kPowerLoss));
  EXPECT_TRUE(kinds.count(Kind::kPowerRestore));
  EXPECT_TRUE(kinds.count(Kind::kFlushStall));
  EXPECT_TRUE(kinds.count(Kind::kDiskCorrupt));
}

// The disk sweep itself: pinned disk seeds replayed first, then a
// randomized pass, all checked against the invariant library (including
// durable-recovery-prefix on every run and no-acked-loss-under-power-loss
// for the durable class).
TEST(Chaos, DiskFaultsSweepHoldsInvariants) {
  Options options;
  options.master_seed = 0xD15C5EED;
  options.iterations = 48;
  options.profile = Profile::kDiskFaults;
  options.corpus = load_tagged_seed_corpus(corpus_path(), "disk_faults");
  options.replay_every = 16;

  const auto report = run(options);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure.summary();
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.corpus_replayed, 4u)
      << "disk_faults seeds missing from " << corpus_path();
  EXPECT_GE(report.scenarios_run, 48u);
  EXPECT_GT(report.replay_checks, 0u);
}

// The guarantee-boundary pair: one pinned power-loss schedule, two broker
// configurations. With RF=1 and OS-cache-only flushing the crash erases
// records the producer had already been acked for — narrated end-to-end
// as DISK LOST. The identical schedule under acks=all + RF=3 +
// fsync-per-append delivers every acked record through the crash and the
// recovery scan. Both arms must replay byte-identically.
TEST(Chaos, PowerLossSeedPairPinsGuaranteeBoundary) {
  testbed::Scenario base;
  base.source_mode = testbed::SourceMode::kOnDemand;
  base.semantics = kafka::DeliverySemantics::kAtLeastOnce;
  base.num_messages = 8000;
  base.seed = 0xD15CBEEF;
  testbed::FaultAction cut;
  cut.kind = Kind::kPowerLoss;
  cut.at = millis(100);
  cut.broker = 0;
  cut.torn_write = true;
  testbed::FaultAction back;
  back.kind = Kind::kPowerRestore;
  back.at = millis(280);
  back.broker = 0;
  base.faults = {cut, back};

  // Arm 1: the durability gap. acks=1, one replica, Kafka's default
  // OS-cache-only flush discipline: the power loss erases the acked tail.
  const auto lossy = testbed::run_experiment(base);
  ASSERT_TRUE(lossy.completed);
  EXPECT_GT(lossy.power_losses, 0u);
  EXPECT_GT(lossy.hard_restarts, 0u);
  EXPECT_GT(lossy.acked_lost, 0u)
      << "pinned schedule no longer loses acked records at RF=1";
  ASSERT_FALSE(lossy.report.acked_lost_keys.empty());
  const auto key = obs::pick_explain_key(lossy.report);
  ASSERT_TRUE(key.has_value());
  const auto story = obs::explain_key(lossy.report, *key);
  EXPECT_NE(story.find("DISK LOST"), std::string::npos) << story;
  EXPECT_NE(story.find("POWER LOSS"), std::string::npos) << story;

  // Arm 2: the safe configuration closes the gap. Same fault schedule;
  // acks=all over three replicas plus fsync-per-append.
  auto safe = base;
  safe.semantics = kafka::DeliverySemantics::kExactlyOnce;
  safe.replication_factor = 3;
  safe.min_insync_replicas = 2;
  safe.flush_messages = 1;
  const auto durable = testbed::run_experiment(safe);
  ASSERT_TRUE(durable.completed);
  EXPECT_GT(durable.power_losses, 0u);
  EXPECT_GT(durable.hard_restarts, 0u);
  EXPECT_EQ(durable.acked_lost, 0u)
      << "acks=all + RF=3 + fsync lost an acked record through the crash";
  EXPECT_TRUE(durable.report.acked_lost_keys.empty());
  EXPECT_EQ(durable.recovery_prefix_violations, 0u);

  // Both arms are replay-deterministic: the crash-recovery path draws no
  // hidden randomness.
  EXPECT_EQ(lossy.report.canonical_json(),
            testbed::run_experiment(base).report.canonical_json());
  EXPECT_EQ(durable.report.canonical_json(),
            testbed::run_experiment(safe).report.canonical_json());
}

// End-to-end failure path: inject a violation (via the extra-invariant
// hook), check the harness pins the seed, prints a KS_CHAOS_SEED repro
// line, and shrinks the fault schedule to a smaller still-violating one.
TEST(Chaos, InjectedViolationReproducesFromSeedAndShrinks) {
  // Find a scenario whose only loss source is its fault schedule (clean
  // static network) and which mixes lossy faults with unrelated ones, so
  // the shrinker has something to remove.
  std::uint64_t chosen = 0;
  for (std::uint64_t seed = 1; seed < 4000 && chosen == 0; ++seed) {
    const auto cs = generate_scenario(seed);
    if (cs.expect_no_loss || cs.scenario.packet_loss > 0.0) continue;
    int lossy = 0;
    int unrelated = 0;
    for (const auto& f : cs.scenario.faults) {
      if (f.kind == Kind::kNetem && f.loss >= 0.2) {
        ++lossy;
      } else if (f.kind == Kind::kGilbertElliott) {
        ++lossy;
      } else if (f.kind == Kind::kBrokerFail ||
                 (f.kind == Kind::kBandwidth && f.bandwidth_bps > 0.0) ||
                 (f.kind == Kind::kNetem && f.loss <= 0.0 && f.delay > 0)) {
        ++unrelated;
      }
    }
    if (lossy < 1 || unrelated < 1) continue;
    // The lossy fault must actually fire while traffic flows.
    const auto result = testbed::run_experiment(cs.scenario);
    if (producer_wire_loss(result) > 0) chosen = seed;
  }
  ASSERT_NE(chosen, 0u) << "generator produced no suitable scenario";

  Options options;
  options.single_seed = chosen;
  options.max_shrink_runs = 24;
  options.verbose_failures = false;  // summary() is asserted on below
  options.extra_invariant = [](const ChaosScenario&,
                               const testbed::ExperimentResult& result,
                               std::vector<Violation>& out) {
    if (producer_wire_loss(result) > 0) {
      out.push_back({"injected-loss-detector",
                     "test invariant: any link-level packet loss"});
    }
  };

  const auto report = run(options);
  ASSERT_EQ(report.failures.size(), 1u);
  const auto& failure = report.failures.front();
  EXPECT_EQ(failure.chaos_seed, chosen);
  ASSERT_FALSE(failure.violations.empty());
  EXPECT_EQ(failure.violations.front().invariant, "injected-loss-detector");

  // One-line seed repro, as printed on real violations.
  EXPECT_NE(failure.repro.find("KS_CHAOS_SEED=0x"), std::string::npos);
  EXPECT_NE(failure.repro.find("ctest -R Chaos"), std::string::npos);
  EXPECT_NE(failure.summary().find(failure.repro), std::string::npos);

  // The schedule shrank, and the shrunk scenario still violates.
  EXPECT_LT(failure.shrunk_fault_count, failure.original_fault_count);
  EXPECT_GE(failure.shrunk_fault_count, 1u);
  const auto shrunk_result =
      testbed::run_experiment(failure.shrunk.scenario);
  EXPECT_GT(producer_wire_loss(shrunk_result), 0.0)
      << "shrinker produced a non-violating scenario";
}

// ---- online health monitor scored against ground truth ---------------------

// The group-faults sweep with the health-recall / health-precision
// invariants armed (they are part of check_invariants, so every failure
// surfaces as a seed-reproducible violation). The sweep must also contain
// real scoring material: crashes that froze actively-committing partitions
// with backlog (recall subjects) and detector alerts answering them —
// otherwise the invariant is vacuously green.
TEST(ChaosHealth, GroupFaultsSweepScoresDetectorAgainstGroundTruth) {
  Options options;
  options.master_seed = 0x4EA17B;
  options.iterations = 48;
  options.profile = Profile::kGroupFaults;
  options.corpus = load_tagged_seed_corpus(corpus_path(), "group_faults");
  options.replay_every = 0;

  std::size_t recall_subjects = 0;
  std::size_t lag_alerts = 0;
  std::size_t monitored_runs = 0;
  options.extra_invariant = [&](const ChaosScenario&,
                                const testbed::ExperimentResult& result,
                                std::vector<Violation>&) {
    if (result.health_ticks > 0) ++monitored_runs;
    lag_alerts += result.health_lag_alerts;
    for (const auto& cb : result.group_crash_backlogs) {
      if (cb.warm_backlog > 0) ++recall_subjects;
    }
  };

  const auto report = run(options);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure.summary();
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.scenarios_run, 48u);
  EXPECT_EQ(monitored_runs, report.scenarios_run)
      << "health monitor not running under the chaos sweep";
  EXPECT_GT(recall_subjects, 0u)
      << "sweep generated no crash with warm backlog; recall untested";
  EXPECT_GT(lag_alerts, 0u)
      << "detector never fired across the sweep; recall untested";
}

// Pinned detector regression: seed 0x2 under group_faults schedules a
// permanent member crash (no paired restart) that freezes
// actively-committing partitions. The monitor must raise a lag_stall
// within the recall window, resolve it once the rebalance hands the
// partitions to survivors, mirror both edges onto the cluster timeline,
// and render the episode in the ks_health text body.
TEST(ChaosHealth, PinnedPermanentCrashSeedRaisesStallThenResolves) {
  const auto cs = generate_scenario(0x2, Profile::kGroupFaults);
  bool permanent_crash = false;
  for (const auto& f : cs.scenario.faults) {
    if (f.kind != Kind::kConsumerCrash) continue;
    bool restarted = false;
    for (const auto& g : cs.scenario.faults) {
      if (g.kind == Kind::kConsumerRestart && g.member == f.member &&
          g.at > f.at) {
        restarted = true;
      }
    }
    if (!restarted) permanent_crash = true;
  }
  ASSERT_TRUE(permanent_crash)
      << "seed 0x2 no longer schedules a permanent member crash";

  const auto result = testbed::run_experiment(cs.scenario);
  for (const auto& v : check_invariants(cs, result)) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }

  // Ground truth first: the crash really had something to detect.
  bool warm_crash = false;
  for (const auto& cb : result.group_crash_backlogs) {
    if (cb.warm_backlog > 0) warm_crash = true;
  }
  ASSERT_TRUE(warm_crash)
      << "seed 0x2's crash no longer leaves warm backlog; re-pin the seed";

  // The detector caught it, and the alert closed after the rebalance.
  EXPECT_GT(result.health_lag_alerts, 0u);
  bool stall_resolved = false;
  for (const auto& a : result.report.health.alerts) {
    if (a.detector == obs::HealthDetector::kLagStall && a.resolved != -1) {
      stall_resolved = true;
    }
  }
  EXPECT_TRUE(stall_resolved)
      << "no lag_stall alert completed an open->resolve lifecycle";

  // Open and resolve edges are on the cluster timeline for ks_explain.
  bool open_event = false;
  bool resolve_event = false;
  for (const auto& e : result.report.timeline) {
    if (e.kind == obs::ClusterEventKind::kHealthAlertOpen &&
        e.note == "lag_stall") {
      open_event = true;
    }
    if (e.kind == obs::ClusterEventKind::kHealthAlertResolved &&
        e.note == "lag_stall") {
      resolve_event = true;
    }
  }
  EXPECT_TRUE(open_event);
  EXPECT_TRUE(resolve_event);

  // The ks_health rendering narrates the episode.
  const auto text = obs::render_health_text(result.report);
  EXPECT_NE(text.find("lag_stall"), std::string::npos) << text;
  EXPECT_NE(text.find("STALL"), std::string::npos) << text;
  EXPECT_NE(text.find("resolved"), std::string::npos) << text;
}

// Precision pin: a healthy grouped run — no faults, no loss, live
// commits — must end with every verdict OK and an empty alert ledger.
TEST(ChaosHealth, HealthyGroupRunRaisesNoAlerts) {
  testbed::Scenario s;
  s.num_messages = 400;
  s.message_size = 256;
  s.source_mode = testbed::SourceMode::kOnDemand;
  s.batch_size = 4;
  s.partitions = 3;
  s.group_size = 2;
  s.seed = 7;
  const auto result = testbed::run_experiment(s);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.health_ticks, 0u);
  EXPECT_EQ(result.health_lag_alerts, 0u);
  EXPECT_TRUE(result.report.health.alerts.empty());
  ASSERT_FALSE(result.report.health.verdicts.empty());
  for (const auto& v : result.report.health.verdicts) {
    EXPECT_EQ(v.verdict, obs::LagVerdict::kOk) << "partition " << v.partition;
  }
}

// The scenario codec over the generator's whole space: Scenario -> JSON ->
// Scenario re-encodes to the same bytes, the report records those bytes,
// and the decoded scenario replays to the original's canonical report.
// Runs with the adaptive controller armed are only round-tripped: their
// factory is code the JSON leaves out, and running them would train the
// predictor here.
TEST(ScenarioCodec, GeneratedScenariosRoundTripAndReplay) {
  std::set<Kind> kinds;
  int replayed = 0;
  for (const auto profile : {Profile::kDefault, Profile::kBrokerFaults,
                             Profile::kGroupFaults, Profile::kDiskFaults}) {
    for (std::uint64_t i = 0; i < 25; ++i) {
      const auto cs = generate_scenario(scenario_seed(0xC0DEC, i), profile);
      const std::string json = testbed::to_json(cs.scenario);
      const auto doc = obs::parse_json(json);
      ASSERT_TRUE(doc.has_value()) << json;
      const auto decoded = testbed::scenario_from_json(*doc);
      ASSERT_TRUE(decoded.has_value()) << json;
      EXPECT_EQ(testbed::to_json(*decoded), json);
      for (const auto& f : cs.scenario.faults) kinds.insert(f.kind);
      if (cs.scenario.adaptive_enabled) continue;
      const auto original = testbed::run_experiment(cs.scenario);
      EXPECT_EQ(obs::encode_json(original.report.scenario), json);
      EXPECT_EQ(testbed::run_experiment(*decoded).report.canonical_json(),
                original.report.canonical_json())
          << cs.describe();
      ++replayed;
    }
  }
  EXPECT_GE(replayed, 50);
  EXPECT_GE(kinds.size(), 10u) << "the generator's fault mix shrank";
}

}  // namespace
}  // namespace ks::chaos
