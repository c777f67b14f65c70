// Micro-benchmarks (google-benchmark): throughput of the simulation
// substrate itself — event queue, PRNG, TCP+Kafka pipeline, ANN inference.
// These guard against performance regressions in the simulator, which the
// figure benches depend on for their run budgets.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "ann/network.hpp"
#include "common/rng.hpp"
#include "obs/health.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace ks;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.push(t + static_cast<TimePoint>(rng.uniform_int(0, 1000)),
                 [] {});
      ++t;
    }
    for (int i = 0; i < 64; ++i) {
      auto ev = queue.pop();
      benchmark::DoNotOptimize(ev.time);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform01());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void BM_SimTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim(1);
    int remaining = 1000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.after(10, tick);
    };
    sim.after(10, tick);
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimTimerChain);

void BM_ProducerPipeline(benchmark::State& state) {
  // End-to-end messages/second through source->producer->tcp->broker.
  for (auto _ : state) {
    testbed::Scenario sc;
    sc.num_messages = 2000;
    sc.broker_regimes = false;
    sc.seed = 42;
    const auto r = testbed::run_experiment(sc);
    benchmark::DoNotOptimize(r.p_loss);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_ProducerPipeline)->Unit(benchmark::kMillisecond);

void BM_PipelineMetricsOverhead(benchmark::State& state) {
  // Same pipeline with the observability machinery toggled: arg 0 runs with
  // the sampler and message trace off, arg 1 with both at their defaults.
  // Comparing the two timings bounds the metrics overhead on the event loop
  // (budget: <5% with sampling enabled).
  const bool observed = state.range(0) != 0;
  for (auto _ : state) {
    testbed::Scenario sc;
    sc.num_messages = 2000;
    sc.broker_regimes = false;
    sc.seed = 42;
    sc.sample_interval = observed ? millis(100) : 0;
    sc.trace_sample_every = observed ? 0 : ~0ULL;  // Auto vs. near-none.
    const auto r = testbed::run_experiment(sc);
    benchmark::DoNotOptimize(r.report.metrics.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_PipelineMetricsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineSpanOverhead(benchmark::State& state) {
  // Causal span tracing toggled on the same pipeline: arg 0 disables the
  // tracer (call sites reduce to one branch), arg 1 records every key's
  // full span tree. The delta bounds the tracing cost at full sampling;
  // the disabled path is additionally asserted in main() (<=1%).
  const bool spans = state.range(0) != 0;
  for (auto _ : state) {
    testbed::Scenario sc;
    sc.num_messages = 2000;
    sc.broker_regimes = false;
    sc.seed = 42;
    sc.sample_interval = 0;
    sc.trace_sample_every = ~0ULL;  // Isolate spans from the flat trace.
    sc.spans_enabled = spans;
    sc.span_sample_every = spans ? 1 : 0;
    sc.span_capacity = 1 << 16;
    const auto r = testbed::run_experiment(sc);
    benchmark::DoNotOptimize(r.report.spans.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_PipelineSpanOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineProfilerOverhead(benchmark::State& state) {
  // Self-profiler toggled on the same pipeline: arg 0 leaves it disabled
  // (every ProfScope reduces to one branch), arg 1 times every hot path
  // (two steady_clock reads per dispatched event). The delta bounds the
  // enabled cost; the disabled path is additionally asserted in main().
  const bool profiled = state.range(0) != 0;
  for (auto _ : state) {
    testbed::Scenario sc;
    sc.num_messages = 2000;
    sc.broker_regimes = false;
    sc.seed = 42;
    sc.sample_interval = 0;
    sc.trace_sample_every = ~0ULL;
    sc.spans_enabled = false;
    obs::profiler().enable(profiled);
    const auto r = testbed::run_experiment(sc);
    obs::profiler().enable(false);
    benchmark::DoNotOptimize(r.report.perf.profiled);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_PipelineProfilerOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineHealthOverhead(benchmark::State& state) {
  // Online health monitor toggled on the same pipeline: arg 0 disables it
  // (every hot-path hook reduces to one pointer test), arg 1 runs the
  // probe tick + latency capture at the default 60ms interval. The delta
  // bounds the enabled cost; the disabled path is additionally asserted
  // in main() (<=1%).
  const bool monitored = state.range(0) != 0;
  for (auto _ : state) {
    testbed::Scenario sc;
    sc.num_messages = 2000;
    sc.broker_regimes = false;
    sc.seed = 42;
    sc.sample_interval = 0;
    sc.trace_sample_every = ~0ULL;
    sc.spans_enabled = false;
    sc.health_enabled = monitored;
    const auto r = testbed::run_experiment(sc);
    benchmark::DoNotOptimize(r.health_ticks);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_PipelineHealthOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AnnForward(benchmark::State& state) {
  Rng rng(3);
  auto net = ann::Network::paper_architecture(5, 2, rng);
  ann::Matrix x(static_cast<std::size_t>(state.range(0)), 5);
  for (auto& v : x.data()) v = rng.uniform01();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnnForward)->Arg(1)->Arg(32);

void BM_AnnTrainBatch(benchmark::State& state) {
  Rng rng(4);
  auto net = ann::Network::paper_architecture(5, 2, rng);
  ann::Matrix x(32, 5), y(32, 2);
  for (auto& v : x.data()) v = rng.uniform01();
  for (auto& v : y.data()) v = rng.uniform01();
  ann::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 32;
  tc.shuffle = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.train(x, y, tc, rng).final_mse);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_AnnTrainBatch)->Unit(benchmark::kMillisecond);

// Self-check run before the benchmarks: a disabled SpanTracer must cost
// one predictable branch per call site, bounded at <=1% of the hot produce
// loop's per-record budget. Exits nonzero on regression so any bench run
// (local or CI) catches it without timing-comparison flakiness: the bound
// is (measured disabled begin/end pair) x (call sites per record) against
// the measured per-record pipeline time.
bool disabled_span_path_within_budget() {
  using clock = std::chrono::steady_clock;
  const auto seconds_between = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  // Cost of one begin/end pair against a disabled tracer.
  obs::SpanTracer tracer;  // sample_every = 0 => disabled.
  constexpr int kPairs = 1 << 21;
  const auto t0 = clock::now();
  for (int i = 0; i < kPairs; ++i) {
    auto id = tracer.begin(i, obs::SpanKind::kProduceAttempt,
                           obs::kTrackProducer, 0,
                           static_cast<std::uint64_t>(i));
    benchmark::DoNotOptimize(id);
    tracer.end(i, id);
  }
  const auto t1 = clock::now();
  const double pair_s = seconds_between(t0, t1) / kPairs;

  // Per-record wall time of the hot produce loop with spans off.
  testbed::Scenario sc;
  sc.num_messages = 4000;
  sc.broker_regimes = false;
  sc.seed = 42;
  sc.sample_interval = 0;
  sc.trace_sample_every = ~0ULL;
  sc.spans_enabled = false;
  sc.consumer_drain = false;
  const auto t2 = clock::now();
  const auto result = testbed::run_experiment(sc);
  const auto t3 = clock::now();
  benchmark::DoNotOptimize(result.census.delivered);
  const double record_s =
      seconds_between(t2, t3) / static_cast<double>(sc.num_messages);

  // Producer batch+attempt, TCP flight, broker append+commit-wait, fetch
  // path: a record crosses no more than ~8 tracer call sites.
  constexpr double kCallSitesPerRecord = 8.0;
  const double ratio = pair_s * kCallSitesPerRecord / record_s;
  std::printf("span self-check: disabled begin/end pair %.1fns, hot loop "
              "%.0fns/record, overhead %.3f%% (budget 1%%)\n",
              pair_s * 1e9, record_s * 1e9, ratio * 100.0);
  if (ratio > 0.01) {
    std::fprintf(stderr,
                 "FAIL: disabled span path costs %.3f%% of the hot produce "
                 "loop (budget 1%%)\n",
                 ratio * 100.0);
    return false;
  }
  return true;
}

// Same bound for the self-profiler: a ProfScope against a disabled
// profiler must stay one predicted branch in the ctor and one in the dtor.
// An event-loop record crosses ~6 instrumented sites (dispatch per event
// dominates: produce batch, TCP segments, broker append, fetch, timers).
bool disabled_profiler_path_within_budget() {
  using clock = std::chrono::steady_clock;
  const auto seconds_between = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  obs::profiler().enable(false);
  constexpr int kScopes = 1 << 21;
  const auto t0 = clock::now();
  for (int i = 0; i < kScopes; ++i) {
    obs::ProfScope scope(obs::ProfKey::kEventDispatch);
    benchmark::DoNotOptimize(scope);
  }
  const auto t1 = clock::now();
  const double scope_s = seconds_between(t0, t1) / kScopes;

  testbed::Scenario sc;
  sc.num_messages = 4000;
  sc.broker_regimes = false;
  sc.seed = 42;
  sc.sample_interval = 0;
  sc.trace_sample_every = ~0ULL;
  sc.spans_enabled = false;
  sc.consumer_drain = false;
  const auto t2 = clock::now();
  const auto result = testbed::run_experiment(sc);
  const auto t3 = clock::now();
  benchmark::DoNotOptimize(result.census.delivered);
  const double record_s =
      seconds_between(t2, t3) / static_cast<double>(sc.num_messages);

  // Each record costs a handful of dispatched events, each of which enters
  // one kEventDispatch scope, plus the per-record broker/TCP scopes.
  constexpr double kScopesPerRecord = 12.0;
  const double ratio = scope_s * kScopesPerRecord / record_s;
  std::printf("profiler self-check: disabled scope %.1fns, hot loop "
              "%.0fns/record, overhead %.3f%% (budget 1%%)\n",
              scope_s * 1e9, record_s * 1e9, ratio * 100.0);
  if (ratio > 0.01) {
    std::fprintf(stderr,
                 "FAIL: disabled profiler path costs %.3f%% of the hot "
                 "produce loop (budget 1%%)\n",
                 ratio * 100.0);
    return false;
  }
  return true;
}

// Same bound for the health monitor: with health disabled the experiment
// holds a null HealthMonitor pointer and every hot-path hook (ack-time
// stamp, first-delivery latency capture) is one pointer test. Measure
// that test against a pointer the optimizer cannot prove null.
bool disabled_health_path_within_budget() {
  using clock = std::chrono::steady_clock;
  const auto seconds_between = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  obs::HealthMonitor* monitor = nullptr;
  benchmark::DoNotOptimize(monitor);
  constexpr int kChecks = 1 << 21;
  std::int64_t taken = 0;
  const auto t0 = clock::now();
  for (int i = 0; i < kChecks; ++i) {
    if (monitor != nullptr) {
      monitor->observe_latency(0, i);
      ++taken;
    }
    benchmark::DoNotOptimize(taken);
  }
  const auto t1 = clock::now();
  const double check_s = seconds_between(t0, t1) / kChecks;

  testbed::Scenario sc;
  sc.num_messages = 4000;
  sc.broker_regimes = false;
  sc.seed = 42;
  sc.sample_interval = 0;
  sc.trace_sample_every = ~0ULL;
  sc.spans_enabled = false;
  sc.health_enabled = false;
  sc.consumer_drain = false;
  const auto t2 = clock::now();
  const auto result = testbed::run_experiment(sc);
  const auto t3 = clock::now();
  benchmark::DoNotOptimize(result.census.delivered);
  const double record_s =
      seconds_between(t2, t3) / static_cast<double>(sc.num_messages);

  // One hook on the ack path and one on the delivery path per record.
  constexpr double kHooksPerRecord = 2.0;
  const double ratio = check_s * kHooksPerRecord / record_s;
  std::printf("health self-check: disabled hook %.1fns, hot loop "
              "%.0fns/record, overhead %.3f%% (budget 1%%)\n",
              check_s * 1e9, record_s * 1e9, ratio * 100.0);
  if (ratio > 0.01) {
    std::fprintf(stderr,
                 "FAIL: disabled health path costs %.3f%% of the hot "
                 "produce loop (budget 1%%)\n",
                 ratio * 100.0);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!disabled_span_path_within_budget()) return 1;
  if (!disabled_profiler_path_within_budget()) return 1;
  if (!disabled_health_path_within_budget()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
