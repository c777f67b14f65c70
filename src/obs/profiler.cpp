#include "obs/profiler.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

// Allocation counting replaces the global scalar operator new/delete (the
// default array and nothrow forms forward to these). Skipped under ASan:
// the sanitizer's own new/delete interceptors tag allocation kinds, and a
// user replacement would turn every delete into an alloc-dealloc-mismatch
// report.
#if defined(__SANITIZE_ADDRESS__)
#define KS_PROFILER_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KS_PROFILER_COUNT_ALLOCS 0
#endif
#endif
#ifndef KS_PROFILER_COUNT_ALLOCS
#define KS_PROFILER_COUNT_ALLOCS 1
#endif

namespace ks::obs {

namespace {

// Atomics because gtest/google-benchmark helpers may allocate off-thread;
// relaxed is fine — the totals are read between runs, not concurrently.
constinit std::atomic<std::uint64_t> g_alloc_count{0};
constinit std::atomic<std::uint64_t> g_alloc_bytes{0};

}  // namespace

const char* to_string(ProfKey k) noexcept {
  switch (k) {
    case ProfKey::kEventDispatch: return "sim.event_dispatch";
    case ProfKey::kTcpSegment: return "tcp.segment";
    case ProfKey::kBrokerProduce: return "broker.produce";
    case ProfKey::kBrokerFetch: return "broker.fetch";
    case ProfKey::kInvariantCheck: return "chaos.invariant_check";
    case ProfKey::kReportBuild: return "obs.report_build";
    case ProfKey::kCount: break;
  }
  return "unknown";
}

Profiler::Snapshot Profiler::Snapshot::since(
    const Snapshot& start) const noexcept {
  Snapshot d;
  for (std::size_t i = 0; i < kProfKeyCount; ++i) {
    d.sections[i].calls = sections[i].calls - start.sections[i].calls;
    d.sections[i].total_ns = sections[i].total_ns - start.sections[i].total_ns;
  }
  d.alloc_count = alloc_count - start.alloc_count;
  d.alloc_bytes = alloc_bytes - start.alloc_bytes;
  return d;
}

std::vector<ProfileSection> Profiler::Snapshot::named_sections() const {
  std::vector<ProfileSection> out;
  for (std::size_t i = 0; i < kProfKeyCount; ++i) {
    out.push_back({to_string(static_cast<ProfKey>(i)), sections[i].calls,
                   sections[i].total_ns});
  }
  return out;
}

void Profiler::reset() noexcept {
  sections_.fill(Section{});
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
}

Profiler::Snapshot Profiler::snapshot() const noexcept {
  Snapshot s;
  s.sections = sections_;
  s.alloc_count = g_alloc_count.load(std::memory_order_relaxed);
  s.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  return s;
}

std::int64_t peak_rss_kb() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<std::int64_t>(ru.ru_maxrss / 1024);  // Bytes on mac.
#else
    return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux.
#endif
  }
#endif
  return 0;
}

}  // namespace ks::obs

#if KS_PROFILER_COUNT_ALLOCS

namespace {

inline void note_alloc(std::size_t size) noexcept {
  ks::obs::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  ks::obs::g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) noexcept {
  note_alloc(size);
  return std::malloc(size != 0 ? size : 1);
}

}  // namespace

void* operator new(std::size_t size) {
  for (;;) {
    if (void* p = counted_alloc(size)) return p;
    if (std::new_handler h = std::get_new_handler()) {
      h();
    } else {
      throw std::bad_alloc();
    }
  }
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

// Matching deletes so the malloc/free pairing stays explicit.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // KS_PROFILER_COUNT_ALLOCS
