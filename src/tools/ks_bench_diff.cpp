// ks_bench_diff — noise-aware comparison of two BENCH artifact sets (see
// src/bench_core/diff.hpp for the thresholds). Built for CI gating:
//
//   ks_bench_diff bench/baselines build/artifacts
//   ks_bench_diff --warn-only baseline.json current.json
//
// Exit codes: 0 = within noise, 1 = regressions, result drift or missing
// benches found (--warn-only reports timing regressions but exits 0 on
// them; drift and missing benches still exit 1), 2 = usage or
// unreadable/invalid artifacts.
#include <filesystem>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_core/diff.hpp"

namespace {

using namespace ks;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] BASELINE CURRENT\n"
      "  BASELINE/CURRENT: a BENCH_*.json file, or a directory of them\n"
      "  --rel T       relative timing threshold (default 0.10)\n"
      "  --sigma K     noise gate multiplier (default 3.0)\n"
      "  --det-tol T   deterministic-result tolerance (default 1e-9)\n"
      "  --warn-only   report timing regressions but exit 0 on them\n",
      argv0);
  return 2;
}

/// Load one artifact file or every BENCH_*.json inside a directory.
/// Returns false (with a message) on IO or schema errors.
bool load_set(const std::string& path, std::vector<bench::Artifact>& out) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      const auto name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    if (files.empty()) {
      std::fprintf(stderr, "ks_bench_diff: no BENCH_*.json in %s\n",
                   path.c_str());
      return false;
    }
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      auto a = bench::Artifact::load(f);
      if (!a) {
        std::fprintf(stderr,
                     "ks_bench_diff: %s is not a schema v%d artifact\n",
                     f.c_str(), bench::kArtifactSchemaVersion);
        return false;
      }
      out.push_back(std::move(*a));
    }
    return true;
  }
  auto a = bench::Artifact::load(path);
  if (!a) {
    std::fprintf(stderr,
                 "ks_bench_diff: %s is not a readable schema v%d artifact\n",
                 path.c_str(), bench::kArtifactSchemaVersion);
    return false;
  }
  out.push_back(std::move(*a));
  return true;
}

/// Parse the value of a numeric flag. Fails (returning false) when the
/// flag is the last argument or its value is not a finite number — atof's
/// silent 0.0 on garbage would quietly disable a CI gate.
bool parse_value(int argc, char** argv, int& i, double& out) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "ks_bench_diff: %s needs a numeric value\n", argv[i]);
    return false;
  }
  const char* text = argv[++i];
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "ks_bench_diff: %s is not a number (for %s)\n", text,
                 argv[i - 1]);
    return false;
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::DiffOptions options;
  bool warn_only = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rel") {
      if (!parse_value(argc, argv, i, options.rel_threshold)) {
        return usage(argv[0]);
      }
    } else if (arg == "--sigma") {
      if (!parse_value(argc, argv, i, options.sigma)) {
        return usage(argv[0]);
      }
    } else if (arg == "--det-tol") {
      if (!parse_value(argc, argv, i, options.det_rel_tolerance)) {
        return usage(argv[0]);
      }
    } else if (arg == "--warn-only") {
      warn_only = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return usage(argv[0]);

  std::vector<bench::Artifact> baseline, current;
  if (!load_set(paths[0], baseline) || !load_set(paths[1], current)) {
    return 2;
  }

  const auto report = bench::diff_artifacts(baseline, current, options);
  std::fputs(bench::render_diff(report).c_str(), stdout);
  if (report.has_regressions(warn_only)) return 1;
  if (report.has_regressions()) {
    std::printf("\n(warn-only: timing regressions reported, exit 0)\n");
  }
  return 0;
}
