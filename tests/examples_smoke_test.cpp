// Smoke tests for the example programs: each runs to completion from its
// own scratch working directory (quickstart writes its report there) and
// exits 0. The binaries are launched from the build tree (KS_EXAMPLES_DIR,
// injected by CMake), so the sanitizer presets run them too.
// dynamic_tuning and train_predictor train the ANN for ~10 s each and are
// left out.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/report.hpp"
#include "obs/report_parse.hpp"
#include "testbed/scenario.hpp"

namespace {

namespace fs = std::filesystem;

/// A fresh, empty working directory for `example`.
fs::path scratch_dir(const std::string& example) {
  const auto dir = fs::path(::testing::TempDir()) / ("example_" + example);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Run `example` in `dir` with its output silenced; the exit status, or -1
/// when it did not exit normally (signal/crash).
int run_example(const std::string& example, const fs::path& dir) {
  const std::string cmd = "cd '" + dir.string() + "' && " +
                          std::string(KS_EXAMPLES_DIR) + "/" + example +
                          " >/dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
  if (raw == -1 || !WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
}

TEST(Examples, QuickstartWritesAReportThatNamesItsScenario) {
  const auto dir = scratch_dir("quickstart");
  ASSERT_EQ(run_example("quickstart", dir), 0);
  const auto report =
      ks::obs::load_run_report((dir / "quickstart_report.json").string());
  ASSERT_TRUE(report.has_value());
  const auto scenario = ks::testbed::scenario_from_json(report->scenario);
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->num_messages, 20000u);
  fs::remove_all(dir);
}

TEST(Examples, InspectRunExitsZero) {
  const auto dir = scratch_dir("inspect_run");
  EXPECT_EQ(run_example("inspect_run", dir), 0);
  fs::remove_all(dir);
}

TEST(Examples, IotTelemetryExitsZero) {
  const auto dir = scratch_dir("iot_telemetry");
  EXPECT_EQ(run_example("iot_telemetry", dir), 0);
  fs::remove_all(dir);
}

TEST(Examples, BankTransactionsExitsZero) {
  const auto dir = scratch_dir("bank_transactions");
  EXPECT_EQ(run_example("bank_transactions", dir), 0);
  fs::remove_all(dir);
}

}  // namespace
