// The simulated durable-storage layer under a broker: every partition log
// is shadowed by a SegmentedLog of bounded segments whose batches live in
// the OS page cache until a flush makes them durable. Kafka's flush
// discipline is modelled faithfully:
//
//  - `flush.messages` / `flush.ms` force synchronous flushes (log.flush.*);
//    the default (both 0) is Kafka's recommended OS-cache-only mode, where
//    durability comes from replication, not fsync;
//  - an unflushed batch still becomes durable once the OS writeback window
//    has passed (pdflush-style background writeback, scaled to sim runs);
//  - a power loss (hard crash) drops whatever was neither flushed nor
//    written back — and may additionally tear the first lost batch, leaving
//    a partially-written tail whose CRC no longer matches;
//  - every batch carries a CRC32C computed at append time; the recovery
//    scan on restart re-validates batch-by-batch and truncates the log at
//    the first mismatch (torn tail or latent bit-flip corruption).
//
// The device/log split mirrors the real layout: one StorageDevice per
// broker (flush-cost model, stall windows, device-wide counters), one
// SegmentedLog per partition directory.
//
// When no flush knobs and no disk faults are configured the layer is pure
// bookkeeping: it adds no service time and draws no randomness, so every
// pre-existing scenario and pinned chaos seed is byte-identical with the
// layer attached.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "kafka/log.hpp"

namespace ks::kafka {

/// CRC32C (Castagnoli), software bit-table implementation; the polynomial
/// Kafka uses for record-batch checksums. crc32c("123456789") == 0xE3069283.
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t crc = 0);

struct StorageConfig {
  /// Segment roll threshold (log.segment.bytes, scaled down to sim logs).
  Bytes segment_bytes = 64 * 1024;
  /// Synchronous flush every N appended records (flush.messages; 0 = off).
  std::int64_t flush_messages = 0;
  /// Synchronous flush when this much time passed since the last flush
  /// (flush.ms; 0 = off). Evaluated at append time, like Kafka's check.
  Duration flush_interval = 0;
  /// OS background writeback: an unflushed batch this old is on disk
  /// anyway (dirty_expire_centisecs analog, scaled to sim run lengths).
  Duration os_writeback_after = millis(400);
  /// Cost model of one synchronous flush: fixed fsync latency plus a
  /// per-dirty-byte write cost. Charged to the broker request thread.
  Duration flush_latency = micros(150);
  double flush_per_byte_us = 0.002;
  /// Service-time multiplier for flushes inside a stall window (a slow or
  /// stalled disk: the degraded-flush fault).
  double stall_factor = 40.0;
  /// Recovery scan cost per persisted byte (sequential re-read + CRC).
  double scan_per_byte_us = 0.05;
};

/// Per-broker disk model: flush-cost accounting and stall windows shared by
/// every partition directory on the broker.
class StorageDevice {
 public:
  explicit StorageDevice(StorageConfig config) : config_(config) {}

  const StorageConfig& config() const noexcept { return config_; }

  /// Cost of synchronously flushing `dirty` bytes at `now` (stall-aware).
  Duration flush_cost(Bytes dirty, TimePoint now) const;

  /// Open a stall window: flushes until `until` cost stall_factor more.
  void stall(TimePoint until) noexcept {
    stall_until_ = stall_until_ > until ? stall_until_ : until;
  }
  bool stalled(TimePoint now) const noexcept { return now < stall_until_; }

  struct Stats {
    std::uint64_t flushes = 0;       ///< Synchronous flushes performed.
    Bytes flushed_bytes = 0;
    std::uint64_t stalled_flushes = 0;
  };
  Stats& stats() noexcept { return stats_; }
  const Stats& stats() const noexcept { return stats_; }

 private:
  StorageConfig config_;
  TimePoint stall_until_ = 0;
  Stats stats_;
};

/// What the recovery scan found and rebuilt for one partition.
struct RecoveryResult {
  std::int64_t recovered_records = 0;  ///< Survived into the rebuilt log.
  /// Total records lost across the crash: the unflushed suffix dropped at
  /// power loss plus everything the scan truncated (torn + corrupt).
  std::int64_t discarded_records = 0;
  std::int64_t torn_records = 0;    ///< Dropped from the torn tail batch.
  bool torn_tail = false;           ///< Scan hit a torn (partial) batch.
  std::int64_t corrupt_batches = 0; ///< CRC-failed non-torn batches.
  std::int64_t scanned_batches = 0;
  Bytes scanned_bytes = 0;
  std::int64_t recovered_end = 0;   ///< Log end offset after recovery.
  /// High-watermark checkpoint rebuilt from the surviving batches (each
  /// batch piggybacks the HW as of its append, like Kafka's periodically
  /// flushed replication-offset-checkpoint). Entries below it were
  /// committed, so a recovering follower can keep them without any
  /// divergence risk and refetch only the tail above.
  std::int64_t recovered_hw = 0;
  Duration scan_duration = 0;       ///< Modeled sequential re-read cost.
};

/// One partition directory: bounded segments of CRC'd batches.
class SegmentedLog {
 public:
  explicit SegmentedLog(StorageDevice* device) : device_(device) {}

  /// Persist one appended batch into the page cache. `entries` must start
  /// exactly at the current storage end (the log is a prefix copy of the
  /// in-memory log). `hw_at_append` piggybacks the current high watermark
  /// as a recovery checkpoint. Returns the synchronous-flush cost if the
  /// flush policy fired, 0 otherwise (OS-cache-only append).
  Duration append_batch(const LogEntry* entries, std::size_t count,
                        Bytes wire_bytes, std::int64_t hw_at_append,
                        TimePoint now);

  /// Mirror an in-memory truncation (follower reconciliation): drop every
  /// record at offset >= `offset`, rewriting the straddled batch in place.
  void truncate_to(std::int64_t offset);

  /// Synchronous flush of all dirty batches (no cost accounting: use
  /// append_batch's return or StorageDevice::flush_cost for that).
  void flush(TimePoint now);

  struct PowerLossResult {
    std::int64_t dropped_records = 0;  ///< Never made it to disk.
    bool tore = false;                 ///< A partial tail batch survived.
  };
  /// Power cut at `now`: batches neither flushed nor old enough for OS
  /// writeback vanish. With `torn_write` the first lost batch survives
  /// partially written (its CRC no longer matches its content).
  PowerLossResult power_loss(TimePoint now, bool torn_write);

  /// Latent bit-flip: corrupt one durable batch, chosen by `pick`
  /// (deterministic; callers derive it from the scenario seed). The flip
  /// lands in a record field or in the stored CRC itself — either way the
  /// checksum no longer matches. Returns false if nothing is durable yet.
  bool corrupt_batch(std::uint64_t pick);

  /// Recovery scan after a hard restart: walk the segments in order,
  /// re-validate every batch's CRC, truncate at the first mismatch, and
  /// return the surviving prefix in `out`. Storage itself is truncated to
  /// the survivors and marked clean (recovery fsyncs what it keeps).
  RecoveryResult recover(std::vector<LogEntry>& out);

  /// Independent cross-check of a rebuilt in-memory log against the
  /// expected survivable prefix (computed from ground-truth fault flags at
  /// power-loss time, not from the CRC scan). Any nonzero return is a
  /// recovery bug: the scan and the ground truth disagree, or the rebuilt
  /// entries do not match the surviving records. Feeds the
  /// `durable-recovery-prefix` invariant.
  std::uint64_t verify_recovered(const std::vector<LogEntry>& entries) const;

  std::int64_t end_offset() const noexcept { return end_offset_; }
  Bytes dirty_bytes() const noexcept { return dirty_bytes_; }
  std::size_t segment_count() const noexcept { return segments_.size(); }

 private:
  struct StoredBatch {
    std::int64_t base_offset = 0;
    std::uint32_t crc = 0;         ///< CRC32C over the logical content.
    TimePoint append_time = 0;     ///< Local write time (writeback aging).
    Bytes wire_bytes = 0;
    std::int64_t hw_at_append = 0; ///< HW checkpoint piggybacked on write.
    std::vector<LogEntry> records;
    bool flushed = false;          ///< Durable (fsync or OS writeback).
    bool torn = false;             ///< Ground truth: partially written.
    bool corrupt = false;          ///< Ground truth: latent bit flip.
  };
  struct Segment {
    std::int64_t base_offset = 0;
    Bytes bytes = 0;
    std::vector<StoredBatch> batches;
  };

  static std::uint32_t content_crc(const StoredBatch& batch);
  Segment& writable_segment();
  void maybe_sync_flush(TimePoint now, Duration* cost);

  StorageDevice* device_;
  std::vector<Segment> segments_;
  std::int64_t end_offset_ = 0;
  Bytes dirty_bytes_ = 0;
  std::int64_t records_since_flush_ = 0;
  TimePoint last_flush_ = 0;
  /// Records dropped at power-loss time, folded into the next recovery
  /// scan's discarded_records so the accounting covers the whole crash.
  std::int64_t pending_power_loss_drop_ = 0;
  /// Ground-truth survivable prefix, computed from fault flags when the
  /// power was cut; -1 until then. verify_recovered checks the CRC-driven
  /// scan landed exactly here.
  std::int64_t expected_recover_end_ = -1;
};

}  // namespace ks::kafka
