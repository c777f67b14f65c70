#include "bench_core/artifact.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json_fields.hpp"

namespace ks::bench {

DistStat DistStat::of(std::vector<double> samples) {
  DistStat d;
  d.samples = std::move(samples);
  if (d.samples.empty()) return d;
  const double n = static_cast<double>(d.samples.size());
  d.min = d.samples.front();
  for (double v : d.samples) {
    d.mean += v;
    d.min = std::min(d.min, v);
  }
  d.mean /= n;
  double var = 0.0;
  for (double v : d.samples) var += (v - d.mean) * (v - d.mean);
  d.stddev = std::sqrt(var / n);
  auto sorted = d.samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  d.median = sorted.size() % 2 == 1
                 ? sorted[mid]
                 : 0.5 * (sorted[mid - 1] + sorted[mid]);
  return d;
}

// The artifact's JSON form — its schema: one field list per record, walked
// by both to_json() and parse() (obs/json_fields.hpp).

template <class V>
void fields(V& v, Fingerprint& f) {
  v("git_sha", f.git_sha);
  v("compiler", f.compiler);
  v("flags", f.flags);
  v("build_type", f.build_type);
  v("os", f.os);
  v("host", f.host);
}

template <class V>
void fields(V& v, DistStat& d) {
  v("mean", d.mean);
  v("median", d.median);
  v("stddev", d.stddev);
  v("min", d.min);
  v("samples", d.samples);
}

template <class V>
void fields(V& v, Stat& s) {
  v("mean", s.mean);
  v("stddev", s.stddev);
}

template <class V>
void fields(V& v, ArtifactPoint& p) {
  v("params", p.params);
  v("metrics", p.metrics);
}

template <class V>
void fields(V& v, Artifact& a) {
  v("schema_version", a.schema_version);
  v("bench", a.bench);
  v("fingerprint", a.fingerprint);
  v.object("config", [&] {
    v("messages", a.messages);
    v("full", a.full);
    v("repeat", a.repeat);
    v("warmup", a.warmup);
    v("reps_per_point", a.reps_per_point);
    v("profiled", a.profiled);
  });
  v.object("timing", [&] {
    v("wall_s", a.wall_s);
    v("sim_seconds", a.sim_seconds);
    v("sim_events", a.sim_events);
    v("experiments", a.experiments);
    v("sim_s_per_wall_s", a.sim_s_per_wall_s);
    v("events_per_wall_s", a.events_per_wall_s);
  });
  v.object("profile", [&] {
    v("peak_rss_kb", a.peak_rss_kb);
    v("alloc_count", a.alloc_count);
    v("alloc_bytes", a.alloc_bytes);
    v("sections", a.sections);
  });
  v("points", a.points);
}

std::string Artifact::to_json() const { return obs::encode_json(*this); }

bool Artifact::write(const std::string& path) const {
  return obs::write_file(path, to_json());
}

std::optional<Artifact> Artifact::parse(const std::string& json) {
  Artifact a;
  a.schema_version = 0;  // A document must name its schema.
  if (!obs::decode_json(json, a) ||
      a.schema_version != kArtifactSchemaVersion || a.bench.empty()) {
    return std::nullopt;
  }
  return a;
}

std::optional<Artifact> Artifact::load(const std::string& path) {
  const auto text = obs::read_file(path);
  if (!text) return std::nullopt;
  return parse(*text);
}

std::string artifact_filename(const std::string& bench) {
  return "BENCH_" + bench + ".json";
}

}  // namespace ks::bench
