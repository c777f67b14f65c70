// Self-profiler: host wall-clock timers and counters over the simulator's
// own hot paths (event-loop dispatch, TCP segment processing, broker
// append/fetch service, chaos invariant checks, report building), plus
// process-level allocation and peak-RSS capture.
//
// Where SpanTracer measures the *simulated* system in sim-time, the
// profiler measures the *simulator* in host time: how many nanoseconds the
// process spent inside each hot path. It feeds the `perf` section of
// RunReport and the hot-path breakdown of ks_bench artifacts, which is
// what makes perf PRs against the ROADMAP's "fast as the hardware allows"
// goal measurable.
//
// Discipline mirrors SpanTracer: the profiler is a process-wide singleton
// (the simulation is single-threaded; benches run experiments back to
// back and want cross-run aggregation), disabled by default, and a
// disabled call site costs one branch — no clock reads, no stores.
// bench_perf_micro's self-check asserts the disabled path stays <=1% of
// the hot produce loop, same budget as the span tracer.
//
// Everything here is host state: none of it may enter canonical_json()
// (replay byte-determinism) — RunReport keeps the perf section out of the
// canonical export, asserted by determinism_test.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ks::obs {

/// Instrumented hot paths. Keep in sync with to_string(ProfKey).
enum class ProfKey : std::uint8_t {
  kEventDispatch = 0,  ///< One sim event callback (Simulation::step).
  kTcpSegment,         ///< One TCP segment through Endpoint::handle_packet.
  kBrokerProduce,      ///< Broker produce service (append + HW + respond).
  kBrokerFetch,        ///< Broker fetch-response assembly.
  kInvariantCheck,     ///< chaos::check_invariants over one run.
  kReportBuild,        ///< build_run_report snapshot + serialization.
  kCount,
};

inline constexpr std::size_t kProfKeyCount =
    static_cast<std::size_t>(ProfKey::kCount);

const char* to_string(ProfKey k) noexcept;

/// One hot path's totals under its to_string(ProfKey) name: an entry of a
/// RunReport's perf section and of a bench artifact's profile block.
struct ProfileSection {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

template <class V>
void fields(V& v, ProfileSection& s) {
  v("name", s.name);
  v("calls", s.calls);
  v("total_ns", s.total_ns);
}

class Profiler {
 public:
  struct Section {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
  };

  /// Counter totals since the last reset(). Snapshots subtract pairwise so
  /// callers can scope deltas to one experiment or one bench repeat.
  struct Snapshot {
    std::array<Section, kProfKeyCount> sections{};
    std::uint64_t alloc_count = 0;  ///< operator new calls (process-wide).
    std::uint64_t alloc_bytes = 0;

    const Section& section(ProfKey k) const noexcept {
      return sections[static_cast<std::size_t>(k)];
    }
    /// this - start, per section and per allocation counter.
    Snapshot since(const Snapshot& start) const noexcept;
    /// Every section, in ProfKey order, with its name.
    std::vector<ProfileSection> named_sections() const;
  };

  bool enabled() const noexcept { return enabled_; }
  void enable(bool on) noexcept { enabled_ = on; }
  void reset() noexcept;

  void add(ProfKey k, std::uint64_t ns) noexcept {
    auto& s = sections_[static_cast<std::size_t>(k)];
    ++s.calls;
    s.total_ns += ns;
  }

  Snapshot snapshot() const noexcept;

 private:
  bool enabled_ = false;
  std::array<Section, kProfKeyCount> sections_{};
};

namespace detail {
// Constant-initialized so profiler() is usable from static initializers.
inline constinit Profiler g_profiler;
}  // namespace detail

/// The process-wide profiler instance. Safe to call from any
/// static-initialization context; inline, so a disabled ProfScope costs one
/// load and one branch.
inline Profiler& profiler() noexcept { return detail::g_profiler; }

/// RAII scope: samples the steady clock only when the profiler is enabled
/// at construction; a disabled profiler makes ctor+dtor two predicted
/// branches and nothing else.
class ProfScope {
 public:
  explicit ProfScope(ProfKey key) noexcept : key_(key) {
    if (profiler().enabled()) {
      armed_ = true;
      begin_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - begin_)
                          .count();
      profiler().add(key_, static_cast<std::uint64_t>(ns));
    }
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfKey key_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point begin_{};
};

/// Peak resident set size of this process so far, KiB (getrusage). Host
/// metadata only — monotone over the process lifetime, never canonical.
std::int64_t peak_rss_kb() noexcept;

}  // namespace ks::obs
