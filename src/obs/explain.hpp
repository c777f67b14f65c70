// Failure narratives: turn a RunReport's trace + spans + cluster timeline
// into a human-readable causal story for one message key, e.g.
//
//   narrative for key 420:
//     t=0.523s  produce attempt 1
//     t=0.525s  appended on broker 0 (offset 431)
//     t=0.526s  acked to producer
//     t=0.800s  [cluster] broker 0 fail-stop
//     t=0.901s  [cluster] UNCLEAN election: broker 2 leads partition 0 ...
//     t=0.950s  [cluster] broker 0 truncated 55 records (log end 380)
//   verdict: ACKED BUT LOST - ...
//
// Used by ks_explain (CLI) and attached automatically by the chaos
// harness to every invariant violation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/report.hpp"

namespace ks::obs {

/// Pick the most story-worthy key in a report: an acked-lost key if any,
/// else a lost key, else a key with trace events. nullopt when the report
/// has no per-key material at all.
std::optional<std::uint64_t> pick_explain_key(const RunReport& report);

/// One human line for a control-plane event (shared by narratives).
std::string describe_timeline_entry(const ClusterEvent& e);

/// The full narrative for `key`: chronological per-key lifecycle events,
/// span durations, interleaved cluster events from the key's first
/// appearance onward, and a final verdict line.
std::string explain_key(const RunReport& report, std::uint64_t key);

}  // namespace ks::obs
