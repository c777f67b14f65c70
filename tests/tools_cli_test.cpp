// End-to-end smoke tests for the command-line tools: every malformed
// invocation (missing flag values, unknown options, unreadable artifact
// paths) must exit nonzero with a diagnostic instead of crashing, and the
// cheap happy paths must exit zero. The binaries are launched from the
// build directory (KS_TOOLS_DIR, injected by CMake), so these tests also
// run under the asan/ubsan presets where a latent argv over-read or
// uninitialized option would trip the sanitizer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_core/artifact.hpp"

namespace {

/// Run `tool args` with stdout/stderr silenced; return the exit status,
/// or -1 when the child did not exit normally (signal/crash).
int run_tool(const std::string& tool, const std::string& args) {
  const std::string cmd = std::string(KS_TOOLS_DIR) + "/" + tool + " " +
                          args + " >/dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
#ifdef _WIN32
  return raw;
#else
  if (raw == -1 || !WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
#endif
}

TEST(ToolsCli, ExplainRejectsMalformedInvocations) {
  EXPECT_EQ(run_tool("ks_explain", ""), 2);            // No mode selected.
  EXPECT_EQ(run_tool("ks_explain", "--seed"), 2);      // Missing value.
  EXPECT_EQ(run_tool("ks_explain", "--key"), 2);       // Missing value.
  EXPECT_EQ(run_tool("ks_explain", "--profile"), 2);   // Missing value.
  EXPECT_EQ(run_tool("ks_explain", "--seed 0x1 --profile bogus"), 2);
  EXPECT_EQ(run_tool("ks_explain", "--bogus"), 2);     // Unknown option.
  EXPECT_EQ(run_tool("ks_explain", "--seed 0x1 extra.json"), 2);  // Both modes.
  EXPECT_EQ(run_tool("ks_explain", "/nonexistent/report.json"), 1);
}

TEST(ToolsCli, HealthRejectsMalformedInvocations) {
  EXPECT_EQ(run_tool("ks_health", ""), 2);
  EXPECT_EQ(run_tool("ks_health", "--seed"), 2);
  EXPECT_EQ(run_tool("ks_health", "--profile"), 2);
  EXPECT_EQ(run_tool("ks_health", "--seed 0x1 --profile bogus"), 2);
  EXPECT_EQ(run_tool("ks_health", "--bogus"), 2);
  EXPECT_EQ(run_tool("ks_health", "/nonexistent/report.json"), 1);
}

// A seed or key is a whole decimal or 0x number: a malformed one used to
// replay whatever prefix strtoull could read (seed 0 for "zz").
TEST(ToolsCli, SeedAndKeyMustBeWholeNumbers) {
  EXPECT_EQ(run_tool("ks_explain", "--seed 0x1zz"), 2);
  EXPECT_EQ(run_tool("ks_explain", "--seed zz"), 2);
  EXPECT_EQ(run_tool("ks_explain", "--seed 0x1 --key banana"), 2);
  EXPECT_EQ(run_tool("ks_health", "--seed 0x1zz"), 2);
  EXPECT_EQ(run_tool("ks_health", "--seed zz"), 2);
}

TEST(ToolsCli, BenchRejectsMalformedInvocations) {
  EXPECT_EQ(run_tool("ks_bench", "--bogus"), 2);        // Unknown option.
  EXPECT_EQ(run_tool("ks_bench", "--repeat"), 2);       // Missing value.
  EXPECT_EQ(run_tool("ks_bench", "--repeat zero"), 2);  // Non-numeric.
  EXPECT_EQ(run_tool("ks_bench", "--repeat 0"), 2);     // Out of range.
  EXPECT_EQ(run_tool("ks_bench", "--warmup -1"), 2);
  EXPECT_EQ(run_tool("ks_bench", "no_such_bench_filter"), 2);
}

// --repeat, --warmup and KS_BENCH_MESSAGES take whole numbers: atoi read
// "3x" as 3, and strtoull read a KS_BENCH_MESSAGES of "5k" as 5.
TEST(ToolsCli, BenchCountsMustBeWholeNumbers) {
  EXPECT_EQ(run_tool("ks_bench", "--repeat 3 --list"), 0);
  EXPECT_EQ(run_tool("ks_bench", "--repeat 3x --list"), 2);
  EXPECT_EQ(run_tool("ks_bench", "--warmup 1x --list"), 2);
  EXPECT_EQ(run_tool("ks_bench", "--repeat 99999999999 --list"), 2);
  ::setenv("KS_BENCH_MESSAGES", "5k", 1);
  EXPECT_EQ(run_tool("ks_bench", "--list"), 2);
  ::unsetenv("KS_BENCH_MESSAGES");
}

TEST(ToolsCli, BenchDiffRejectsMalformedInvocations) {
  EXPECT_EQ(run_tool("ks_bench_diff", ""), 2);        // Needs two paths.
  EXPECT_EQ(run_tool("ks_bench_diff", "one"), 2);     // Needs two paths.
  EXPECT_EQ(run_tool("ks_bench_diff", "a b --rel"), 2);  // Missing value.
  EXPECT_EQ(run_tool("ks_bench_diff", "--rel abc a b"), 2);   // Non-numeric.
  EXPECT_EQ(run_tool("ks_bench_diff", "--sigma 3x a b"), 2);  // Trailing junk.
  EXPECT_EQ(run_tool("ks_bench_diff", "--det-tol"), 2);
  EXPECT_EQ(run_tool("ks_bench_diff", "--bogus a b"), 2);
  EXPECT_EQ(run_tool("ks_bench_diff", "/nonexistent/a /nonexistent/b"), 2);
}

// --warn-only exits 0 on a timing regression only: result drift and a
// missing bench are deterministic, so they exit 1 with or without it.
TEST(ToolsCli, BenchDiffWarnOnlyStillFailsOnDrift) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "bench_diff";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& file, const std::string& bench,
                         double wall, double p_loss) {
    ks::bench::Artifact a;
    a.bench = bench;
    a.messages = 4000;
    a.repeat = 3;
    a.wall_s = ks::bench::DistStat::of({wall * 0.98, wall, wall * 1.02});
    a.points.push_back(
        {{{"k", 1.0}}, {{"p_loss", ks::bench::Stat{p_loss, 0.0}}}});
    const auto path = (dir / file).string();
    EXPECT_TRUE(a.write(path));
    return path;
  };
  const auto base = write("base.json", "b1", 1.0, 0.01);
  const auto slow = write("slow.json", "b1", 2.0, 0.01);
  const auto drift = write("drift.json", "b1", 1.0, 0.02);
  const auto other = write("other.json", "b2", 1.0, 0.01);

  EXPECT_EQ(run_tool("ks_bench_diff", base + " " + base), 0);
  EXPECT_EQ(run_tool("ks_bench_diff", base + " " + slow), 1);
  EXPECT_EQ(run_tool("ks_bench_diff", "--warn-only " + base + " " + slow), 0);
  EXPECT_EQ(run_tool("ks_bench_diff", base + " " + drift), 1);
  EXPECT_EQ(run_tool("ks_bench_diff", "--warn-only " + base + " " + drift), 1);
  EXPECT_EQ(run_tool("ks_bench_diff", "--warn-only " + other + " " + base), 1);
  std::filesystem::remove_all(dir);
}

TEST(ToolsCli, CheapHappyPathsExitZero) {
  EXPECT_EQ(run_tool("ks_bench", "--list"), 0);
  // One tiny seed replay through each narration tool; under asan/ubsan
  // this sweeps the whole scenario -> report -> render pipeline.
  EXPECT_EQ(run_tool("ks_explain", "--seed 0x5EEDFACE"), 0);
  EXPECT_EQ(run_tool("ks_health", "--seed 0x5EEDFACE"), 0);
}

}  // namespace
