// Causal-tracing subsystem tests: SpanTracer sampling and well-formedness,
// ClusterTimeline bounds, the Perfetto/Chrome trace-event export, the JSON
// reader, and the ks_explain narrative on the pinned acked-loss seeds.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "chaos/generator.hpp"
#include "obs/explain.hpp"
#include "obs/json_parse.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "testbed/experiment.hpp"

namespace ks::obs {
namespace {

TEST(SpanTracer, DisabledRecordsNothing) {
  SpanTracer tracer;  // Default: sample_every = 0 => disabled.
  EXPECT_FALSE(tracer.enabled());
  const auto id = tracer.begin(10, SpanKind::kProduceBatch, kTrackProducer,
                               0, /*key=*/0);
  EXPECT_EQ(id, 0u);
  tracer.end(20, id);     // Id 0 must be accepted and ignored...
  tracer.cancel(id);      // ...by every entry point.
  EXPECT_EQ(tracer.started(), 0u);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(SpanTracer, RootSamplingGatesByKey) {
  SpanTracer tracer(64, /*sample_every=*/4);
  EXPECT_NE(tracer.begin(1, SpanKind::kProduceBatch, kTrackProducer, 0, 0),
            0u);
  EXPECT_EQ(tracer.begin(1, SpanKind::kProduceBatch, kTrackProducer, 0, 3),
            0u);
  EXPECT_NE(tracer.begin(1, SpanKind::kProduceBatch, kTrackProducer, 0, 8),
            0u);
  // kNoKey roots bypass key sampling (consumer fetches, control work).
  EXPECT_NE(tracer.begin(1, SpanKind::kConsumerFetch, kTrackConsumer, 0,
                         kNoKey),
            0u);
}

TEST(SpanTracer, ChildFollowsParentAndInheritsKey) {
  SpanTracer tracer(64, /*sample_every=*/4);
  const auto root =
      tracer.begin(1, SpanKind::kProduceAttempt, kTrackProducer, 0, 8);
  ASSERT_NE(root, 0u);
  const auto child =
      tracer.begin(2, SpanKind::kBrokerAppend, broker_track(0), root);
  ASSERT_NE(child, 0u);
  // A root with an unsampled key is unrecorded — and because SpanId 0
  // propagates as the parent down the chain, so is everything below it.
  EXPECT_EQ(tracer.begin(2, SpanKind::kBrokerAppend, broker_track(0), 0, 3),
            0u);
  // A nonzero parent that is no longer open (already closed or evicted) is
  // still recorded — spans() later promotes it to a root — but there is no
  // open parent to inherit a key from.
  const auto late = tracer.begin(3, SpanKind::kCommitWait, broker_track(0),
                                 /*parent=*/999999u);
  EXPECT_NE(late, 0u);
  tracer.cancel(late);

  tracer.end(5, child, /*detail=*/42);
  tracer.end(6, root);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Completed child first (rings hold spans in completion order).
  EXPECT_EQ(spans[0].parent, root);
  EXPECT_EQ(spans[0].key, 8u) << "child must inherit the open parent's key";
  EXPECT_EQ(spans[0].detail, 42);
  EXPECT_EQ(spans[1].id, root);
  EXPECT_EQ(spans[1].parent, 0u);
}

TEST(SpanTracer, CancelDiscardsAndCloseOpenFlushes) {
  SpanTracer tracer(64, /*sample_every=*/1);
  const auto doomed =
      tracer.begin(1, SpanKind::kProduceAttempt, kTrackProducer, 0, 1);
  tracer.cancel(doomed);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_TRUE(tracer.spans().empty());

  const auto orphan =
      tracer.begin(2, SpanKind::kTcpFlight, kTrackNet, 0, 1);
  ASSERT_NE(orphan, 0u);
  tracer.close_open(9);
  EXPECT_EQ(tracer.open_count(), 0u);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, 2);
  EXPECT_EQ(spans[0].end, 9);
}

// The exported forest must stay well-formed under ring eviction: every
// nonzero parent exists in the export, and intervals nest (children begin
// no earlier than their parent).
TEST(SpanTracer, RingEvictionKeepsForestWellFormed) {
  SpanTracer tracer(/*capacity=*/8, /*sample_every=*/1);
  for (std::uint64_t k = 0; k < 20; ++k) {
    const TimePoint t0 = static_cast<TimePoint>(k * 10);
    const auto root =
        tracer.begin(t0, SpanKind::kProduceAttempt, kTrackProducer, 0, k);
    const auto child =
        tracer.begin(t0 + 1, SpanKind::kBrokerAppend, broker_track(0), root);
    const auto grandchild =
        tracer.begin(t0 + 2, SpanKind::kCommitWait, broker_track(0), child);
    tracer.end(t0 + 3, grandchild);
    tracer.end(t0 + 4, child);
    tracer.end(t0 + 5, root);
  }
  EXPECT_GT(tracer.dropped(), 0u) << "test must actually overflow the ring";

  const auto spans = tracer.spans();
  EXPECT_EQ(spans.size(), 8u);
  std::map<SpanId, const Span*> by_id;
  for (const auto& s : spans) by_id.emplace(s.id, &s);
  for (const auto& s : spans) {
    EXPECT_GE(s.end, s.begin);
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end())
        << "span " << s.id << " points at evicted parent " << s.parent;
    EXPECT_GE(s.begin, it->second->begin) << "child starts before parent";
    EXPECT_EQ(s.key, it->second->key);
  }
}

TEST(SpanTracer, ConfigureResetsState) {
  SpanTracer tracer(8, 1);
  tracer.end(2, tracer.begin(1, SpanKind::kDeliver, kTrackConsumer, 0, 1));
  ASSERT_EQ(tracer.spans().size(), 1u);
  tracer.configure(8, 2);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.started(), 0u);
  tracer.configure(0, 0);
  EXPECT_FALSE(tracer.enabled());
}

TEST(ClusterTimeline, BoundedRingOldestFirst) {
  ClusterTimeline timeline(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    timeline.record(i, ClusterEventKind::kIsrShrink, /*broker=*/i, 0, 2);
  }
  EXPECT_EQ(timeline.recorded(), 6u);
  EXPECT_EQ(timeline.dropped(), 2u);
  const auto events = timeline.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t, static_cast<TimePoint>(i + 2));
    EXPECT_EQ(events[i].broker, static_cast<std::int32_t>(i + 2));
  }
  timeline.clear();
  EXPECT_TRUE(timeline.events().empty());
}

TEST(JsonParse, RoundTripsBasicDocuments) {
  const auto doc = parse_json(
      R"({"a": 1.5, "b": "x\n\"y", "c": [true, null, -3], "d": {}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->num_or("a"), 1.5);
  EXPECT_EQ(doc->str_or("b"), "x\n\"y");
  const auto* c = doc->find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->array.size(), 3u);
  EXPECT_TRUE(c->array[0].boolean);
  EXPECT_EQ(c->array[2].number, -3.0);
  EXPECT_EQ(doc->int_or("missing", 7), 7);

  EXPECT_FALSE(parse_json("{\"unterminated\": ").has_value());
  EXPECT_FALSE(parse_json("{} trailing").has_value());
}

// The Perfetto export of a real run must be valid Chrome trace-event JSON:
// an object with a traceEvents array whose entries all carry ph/pid, with
// ts on every non-metadata event.
TEST(PerfettoExport, ParsesWithRequiredFields) {
  testbed::Scenario sc;
  sc.seed = 7;
  sc.num_messages = 200;
  sc.trace_sample_every = 5;
  sc.span_sample_every = 5;
  const auto result = testbed::run_experiment(sc);
  ASSERT_FALSE(result.report.spans.empty());

  const auto doc = parse_json(result.report.perfetto_json());
  ASSERT_TRUE(doc.has_value()) << "perfetto export is not valid JSON";
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());
  std::set<std::string> phases;
  for (const auto& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.str_or("ph");
    phases.insert(ph);
    EXPECT_FALSE(ph.empty());
    EXPECT_NE(e.find("pid"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
    if (ph != "M") {
      EXPECT_NE(e.find("ts"), nullptr);
      EXPECT_FALSE(e.str_or("name").empty());
    }
    if (ph == "X") {
      EXPECT_GE(e.int_or("dur"), 0);
    }
  }
  EXPECT_TRUE(phases.count("M")) << "no thread-name metadata events";
  EXPECT_TRUE(phases.count("X")) << "no complete (span) events";
}

// Spans exported from a full experiment stay a well-formed forest keyed
// consistently with the message trace.
TEST(PerfettoExport, ExperimentSpanForestIsWellFormed) {
  testbed::Scenario sc;
  sc.seed = 11;
  sc.num_messages = 300;
  sc.trace_sample_every = 7;
  const auto result = testbed::run_experiment(sc);
  ASSERT_FALSE(result.report.spans.empty());
  std::map<std::uint64_t, const Span*> by_id;
  for (const auto& s : result.report.spans) by_id.emplace(s.id, &s);
  std::set<std::string> kinds;
  for (const auto& s : result.report.spans) {
    kinds.insert(to_string(s.kind));
    EXPECT_GE(s.end, s.begin);
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << "dangling parent in export";
    EXPECT_GE(s.begin, it->second->begin);
  }
  // The produce-side causal chain must be present end to end.
  EXPECT_TRUE(kinds.count("produce.batch"));
  EXPECT_TRUE(kinds.count("produce.attempt"));
  EXPECT_TRUE(kinds.count("tcp.flight"));
  EXPECT_TRUE(kinds.count("broker.append"));
  // And the consumer drain contributes fetch spans.
  EXPECT_TRUE(kinds.count("consumer.fetch"));
}

// Acceptance: ks_explain on the pinned acked-loss corpus seeds must tell
// the durability-gap story — the append, the election, the truncation —
// and reach the ACKED BUT LOST verdict. This drives the same path as
// `ks_explain --seed 0x14b`.
TEST(Explain, PinnedAckedLossSeedsNameAppendElectionTruncation) {
  std::string combined;
  for (const std::uint64_t seed : {0x14bULL, 0x15bULL}) {
    auto cs = chaos::generate_scenario(seed);
    auto& scenario = cs.scenario;
    scenario.trace_sample_every = 1;
    scenario.trace_capacity =
        static_cast<std::size_t>(scenario.num_messages) * 16 + 4096;
    scenario.span_sample_every = 1;
    scenario.span_capacity = scenario.trace_capacity;
    const auto result = testbed::run_experiment(scenario);
    ASSERT_GT(result.acked_lost, 0u)
        << "seed 0x" << std::hex << seed << " no longer loses acked data";
    ASSERT_FALSE(result.report.acked_lost_keys.empty());

    const auto key = pick_explain_key(result.report);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(*key, result.report.acked_lost_keys.front());
    const auto narrative = explain_key(result.report, *key);
    SCOPED_TRACE(narrative);
    EXPECT_NE(narrative.find("appended on broker"), std::string::npos);
    EXPECT_NE(narrative.find("ACKED BUT LOST"), std::string::npos);
    combined += narrative;
  }
  // Between them, the pinned seeds must exhibit the full story: a leader
  // election and the records being truncated away.
  EXPECT_NE(combined.find("election"), std::string::npos);
  EXPECT_NE(combined.find("truncat"), std::string::npos);
}

// Acceptance: the ks_explain narrative narrates health-alert lifecycle
// edges from the cluster timeline, and the verdict names alerts still
// open at the end of the run. Crashing every member for good leaves the
// partitions unowned with backlog: the monitor must raise lag alerts
// that never resolve, and the narrative must surface both.
TEST(Explain, NarrativeCarriesHealthAlertsAndOpenAlertVerdictTail) {
  testbed::Scenario scenario;
  scenario.num_messages = 300;
  scenario.message_size = 256;
  scenario.source_mode = testbed::SourceMode::kOnDemand;
  scenario.batch_size = 4;
  scenario.partitions = 2;
  scenario.group_size = 2;
  scenario.seed = 11;
  scenario.trace_sample_every = 1;
  scenario.trace_capacity =
      static_cast<std::size_t>(scenario.num_messages) * 16 + 4096;
  testbed::FaultAction crash;
  crash.kind = testbed::FaultAction::Kind::kConsumerCrash;
  crash.at = millis(500);
  crash.member = 0;
  scenario.faults.push_back(crash);
  crash.at = millis(600);
  crash.member = 1;
  scenario.faults.push_back(crash);

  const auto result = testbed::run_experiment(scenario);
  ASSERT_GT(result.health_ticks, 0u);
  ASSERT_GT(result.health_lag_alerts, 0u);
  bool open_at_end = false;
  for (const auto& a : result.report.health.alerts) {
    if (a.resolved == -1) open_at_end = true;
  }
  ASSERT_TRUE(open_at_end)
      << "total member loss left no alert open at end of run";

  const auto key = pick_explain_key(result.report);
  ASSERT_TRUE(key.has_value());
  const auto narrative = explain_key(result.report, *key);
  SCOPED_TRACE(narrative);
  EXPECT_NE(narrative.find("HEALTH ALERT"), std::string::npos);
  EXPECT_NE(narrative.find("still open at end of run"), std::string::npos);
}

}  // namespace
}  // namespace ks::obs
