// Shared helpers for the reproduction benches: environment-tunable run
// sizes and uniform table printing. Formerly bench/bench_util.hpp; lives
// in src/ so the unified ks_bench runner, the per-bench code and the
// tests share one copy.
//
// Environment knobs:
//   KS_BENCH_MESSAGES  — messages per experiment run (default per bench)
//   KS_BENCH_FULL=1    — use the full paper-scale grids (slower)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.hpp"

namespace ks::bench {

/// KS_BENCH_MESSAGES, or `fallback` when it is unset, empty or 0. Throws
/// std::invalid_argument when it is not a decimal or 0x number.
inline std::uint64_t messages_per_run(std::uint64_t fallback) {
  const char* env = std::getenv("KS_BENCH_MESSAGES");
  if (env == nullptr || *env == '\0') return fallback;
  const auto v = parse_u64(env);
  if (!v) {
    throw std::invalid_argument(std::string("KS_BENCH_MESSAGES='") + env +
                                "' is not a decimal or 0x number");
  }
  return *v > 0 ? *v : fallback;
}

inline bool full_mode() {
  const char* env = std::getenv("KS_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// Markdown-ish table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], r[c].size());
      }
    }
    const auto line = [&](const std::vector<std::string>& cells) {
      std::fputs("|", stdout);
      for (std::size_t c = 0; c < widths.size(); ++c) {
        std::printf(" %-*s |", static_cast<int>(widths[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      }
      std::fputs("\n", stdout);
    };
    line(headers_);
    std::fputs("|", stdout);
    for (auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) std::fputc('-', stdout);
      std::fputs("|", stdout);
    }
    std::fputs("\n", stdout);
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}
inline std::string pct(double v) { return fmt("%.2f%%", v * 100.0); }

/// Repetitions per grid point (seed-averaged; broker regimes are random).
inline int repeats() { return full_mode() ? 5 : 3; }

}  // namespace ks::bench
