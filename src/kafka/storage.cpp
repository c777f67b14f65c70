#include "kafka/storage.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "kafka/record.hpp"

namespace ks::kafka {

namespace {

// Reflected Castagnoli polynomial, table-driven (byte at a time). Fast
// enough for sim-scale logs and bit-exact across platforms.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

struct Crc32cTable {
  std::uint32_t t[256];
  constexpr Crc32cTable() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (kCrc32cPoly ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

constexpr Crc32cTable kCrcTable{};

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (len-- > 0) {
    crc = kCrcTable.t[(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

Duration StorageDevice::flush_cost(Bytes dirty, TimePoint now) const {
  Duration cost = config_.flush_latency +
                  static_cast<Duration>(std::llround(
                      static_cast<double>(dirty) * config_.flush_per_byte_us));
  if (stalled(now)) {
    cost = static_cast<Duration>(std::llround(
        static_cast<double>(cost) * config_.stall_factor));
  }
  return cost;
}

std::uint32_t SegmentedLog::content_crc(const StoredBatch& batch) {
  // Checksum the logical batch content (header + per-record fields) as a
  // stream of little-endian words, fed in turn — the analogue of Kafka's
  // record-batch CRC over the batch body.
  std::uint32_t crc = 0;
  const auto put64 = [&crc](std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
    }
    crc = crc32c(le, sizeof le, crc);
  };
  put64(static_cast<std::uint64_t>(batch.base_offset));
  put64(static_cast<std::uint64_t>(batch.records.size()));
  for (const auto& r : batch.records) {
    put64(static_cast<std::uint64_t>(r.offset));
    put64(r.key);
    put64(static_cast<std::uint64_t>(r.value_size));
    put64(static_cast<std::uint64_t>(r.append_time));
    put64(static_cast<std::uint64_t>(r.leader_epoch));
    put64(r.producer_id);
    put64(static_cast<std::uint64_t>(r.sequence));
  }
  return crc;
}

SegmentedLog::Segment& SegmentedLog::writable_segment() {
  if (segments_.empty() ||
      segments_.back().bytes >= device_->config().segment_bytes) {
    Segment seg;
    seg.base_offset = end_offset_;
    segments_.push_back(std::move(seg));
  }
  return segments_.back();
}

Duration SegmentedLog::append_batch(const LogEntry* entries, std::size_t count,
                                    Bytes wire_bytes,
                                    std::int64_t hw_at_append, TimePoint now) {
  assert(count > 0);
  assert(entries[0].offset == end_offset_);
  auto& seg = writable_segment();
  StoredBatch batch;
  batch.base_offset = end_offset_;
  batch.append_time = now;
  batch.wire_bytes = wire_bytes;
  batch.hw_at_append = hw_at_append;
  batch.records.assign(entries, entries + count);
  batch.crc = content_crc(batch);
  seg.bytes += wire_bytes;
  seg.batches.push_back(std::move(batch));
  end_offset_ += static_cast<std::int64_t>(count);
  dirty_bytes_ += wire_bytes;
  records_since_flush_ += static_cast<std::int64_t>(count);

  Duration cost = 0;
  maybe_sync_flush(now, &cost);
  return cost;
}

void SegmentedLog::maybe_sync_flush(TimePoint now, Duration* cost) {
  const auto& cfg = device_->config();
  const bool by_count =
      cfg.flush_messages > 0 && records_since_flush_ >= cfg.flush_messages;
  const bool by_time =
      cfg.flush_interval > 0 && now - last_flush_ >= cfg.flush_interval;
  if (!by_count && !by_time) return;
  *cost = device_->flush_cost(dirty_bytes_, now);
  auto& st = device_->stats();
  ++st.flushes;
  st.flushed_bytes += dirty_bytes_;
  if (device_->stalled(now)) ++st.stalled_flushes;
  flush(now);
}

void SegmentedLog::flush(TimePoint now) {
  // Dirty batches are always a suffix; walk back until the flushed prefix.
  for (auto seg = segments_.rbegin(); seg != segments_.rend(); ++seg) {
    bool hit_clean = false;
    for (auto b = seg->batches.rbegin(); b != seg->batches.rend(); ++b) {
      if (b->flushed) {
        hit_clean = true;
        break;
      }
      b->flushed = true;
    }
    if (hit_clean) break;
  }
  dirty_bytes_ = 0;
  records_since_flush_ = 0;
  last_flush_ = now;
}

void SegmentedLog::truncate_to(std::int64_t offset) {
  offset = std::max<std::int64_t>(offset, 0);
  if (offset >= end_offset_) return;
  while (!segments_.empty()) {
    auto& seg = segments_.back();
    if (seg.base_offset >= offset) {
      segments_.pop_back();
      continue;
    }
    while (!seg.batches.empty()) {
      auto& b = seg.batches.back();
      const auto count = static_cast<std::int64_t>(b.records.size());
      if (b.base_offset >= offset) {
        seg.batches.pop_back();
        continue;
      }
      if (b.base_offset + count > offset) {
        // Straddled batch: rewrite it in place with the surviving prefix.
        b.records.resize(static_cast<std::size_t>(offset - b.base_offset));
        b.wire_bytes = 0;
        for (const auto& r : b.records) {
          b.wire_bytes += kRecordOverhead + r.value_size;
        }
        b.crc = content_crc(b);
        // A latent bit flip must stay detectable through the rewrite.
        if (b.corrupt) b.crc ^= 1u;
      }
      break;
    }
    if (seg.batches.empty()) {
      segments_.pop_back();
      continue;
    }
    break;
  }
  end_offset_ = offset;
  // Rebuild byte accounting from the survivors.
  dirty_bytes_ = 0;
  for (auto& seg : segments_) {
    seg.bytes = 0;
    for (const auto& b : seg.batches) {
      seg.bytes += b.wire_bytes;
      if (!b.flushed) dirty_bytes_ += b.wire_bytes;
    }
  }
}

SegmentedLog::PowerLossResult SegmentedLog::power_loss(TimePoint now,
                                                       bool torn_write) {
  PowerLossResult out;
  const auto& cfg = device_->config();
  // OS background writeback: dirty batches past the writeback window are
  // on disk even without an explicit flush.
  for (auto& seg : segments_) {
    for (auto& b : seg.batches) {
      if (!b.flushed && b.append_time + cfg.os_writeback_after <= now) {
        b.flushed = true;
      }
    }
  }
  // Durability is a prefix property (flushes cover the whole dirty set and
  // writeback ages in append order): find the first unflushed batch and
  // drop everything from there.
  bool lost = false;
  bool tear_pending = torn_write;
  for (auto& seg : segments_) {
    std::size_t keep = seg.batches.size();
    for (std::size_t i = 0; i < seg.batches.size(); ++i) {
      auto& b = seg.batches[i];
      if (!lost && b.flushed) continue;
      lost = true;
      if (tear_pending) {
        // The first lost batch was mid-write: a prefix of its records made
        // it to the platters, but its CRC (computed over the full batch)
        // can no longer validate. The recovery scan truncates it.
        tear_pending = false;
        const std::size_t half = b.records.size() / 2;
        out.dropped_records +=
            static_cast<std::int64_t>(b.records.size() - half);
        b.records.resize(half);
        b.wire_bytes = 0;
        for (const auto& r : b.records) {
          b.wire_bytes += kRecordOverhead + r.value_size;
        }
        b.torn = true;
        out.tore = true;
        continue;  // The torn stub survives for the scan to find.
      }
      keep = std::min(keep, i);
      out.dropped_records += static_cast<std::int64_t>(b.records.size());
    }
    seg.batches.resize(keep);
  }
  segments_.erase(std::remove_if(segments_.begin(), segments_.end(),
                                 [](const Segment& s) {
                                   return s.batches.empty();
                                 }),
                  segments_.end());
  // Rebuild bookkeeping over the survivors.
  end_offset_ = 0;
  dirty_bytes_ = 0;
  for (auto& seg : segments_) {
    seg.bytes = 0;
    for (const auto& b : seg.batches) {
      seg.bytes += b.wire_bytes;
      end_offset_ = b.base_offset + static_cast<std::int64_t>(b.records.size());
    }
  }
  records_since_flush_ = 0;
  pending_power_loss_drop_ += out.dropped_records;
  // Ground truth for verify_recovered: a correct recovery keeps exactly
  // the records below the first batch whose fault flags say it cannot
  // validate (torn tail or latent corruption).
  expected_recover_end_ = 0;
  for (const auto& seg : segments_) {
    bool stop = false;
    for (const auto& b : seg.batches) {
      if (b.torn || b.corrupt) {
        stop = true;
        break;
      }
      expected_recover_end_ =
          b.base_offset + static_cast<std::int64_t>(b.records.size());
    }
    if (stop) break;
  }
  return out;
}

bool SegmentedLog::corrupt_batch(std::uint64_t pick) {
  std::vector<StoredBatch*> all;
  std::vector<StoredBatch*> durable;
  for (auto& seg : segments_) {
    for (auto& b : seg.batches) {
      all.push_back(&b);
      if (b.flushed) durable.push_back(&b);
    }
  }
  auto& pool = durable.empty() ? all : durable;
  if (pool.empty()) return false;
  StoredBatch& b = *pool[pick % pool.size()];
  if (b.corrupt) return true;  // Idempotent under repeated picks.
  b.corrupt = true;
  if (b.records.empty() || ((pick >> 17) & 0x7u) == 0) {
    // Sometimes the flip lands in the stored checksum itself.
    b.crc ^= 1u << ((pick >> 20) & 31u);
  } else {
    auto& r = b.records[(pick >> 8) % b.records.size()];
    r.key ^= Key{1} << ((pick >> 13) & 63u);
  }
  return true;
}

RecoveryResult SegmentedLog::recover(std::vector<LogEntry>& out) {
  RecoveryResult rr;
  const auto& cfg = device_->config();
  bool bad = false;
  for (const auto& seg : segments_) {
    for (const auto& b : seg.batches) {
      if (bad) {
        // Past the first failure everything is untrusted and dropped.
        rr.discarded_records += static_cast<std::int64_t>(b.records.size());
        continue;
      }
      ++rr.scanned_batches;
      rr.scanned_bytes += b.wire_bytes;
      if (content_crc(b) != b.crc) {
        bad = true;
        rr.discarded_records += static_cast<std::int64_t>(b.records.size());
        if (b.torn) {
          rr.torn_tail = true;
          rr.torn_records += static_cast<std::int64_t>(b.records.size());
        } else {
          ++rr.corrupt_batches;
        }
        continue;
      }
      out.insert(out.end(), b.records.begin(), b.records.end());
      rr.recovered_records += static_cast<std::int64_t>(b.records.size());
      rr.recovered_hw = std::max(rr.recovered_hw, b.hw_at_append);
    }
  }
  rr.recovered_end = static_cast<std::int64_t>(out.size());
  rr.recovered_hw = std::min(rr.recovered_hw, rr.recovered_end);
  rr.discarded_records += pending_power_loss_drop_;
  pending_power_loss_drop_ = 0;
  rr.scan_duration =
      micros(100) + static_cast<Duration>(std::llround(
                        static_cast<double>(rr.scanned_bytes) *
                        cfg.scan_per_byte_us));
  // Truncate storage at the failure point and mark the survivors clean:
  // recovery rewrites the recovery point and fsyncs what it keeps.
  truncate_to(rr.recovered_end);
  for (auto& seg : segments_) {
    for (auto& b : seg.batches) b.flushed = true;
  }
  dirty_bytes_ = 0;
  records_since_flush_ = 0;
  return rr;
}

std::uint64_t SegmentedLog::verify_recovered(
    const std::vector<LogEntry>& entries) const {
  std::uint64_t violations = 0;
  // The CRC-driven scan must land exactly on the ground-truth survivable
  // prefix computed from the fault flags at power-loss time.
  if (expected_recover_end_ >= 0 &&
      static_cast<std::int64_t>(entries.size()) != expected_recover_end_) {
    ++violations;
  }
  // And the rebuilt in-memory log must match the surviving stored records
  // one-for-one, contiguous from offset zero.
  std::size_t i = 0;
  for (const auto& seg : segments_) {
    for (const auto& b : seg.batches) {
      for (const auto& r : b.records) {
        if (i >= entries.size()) {
          ++violations;
        } else {
          const auto& e = entries[i];
          if (e.offset != static_cast<std::int64_t>(i) || e.key != r.key ||
              e.leader_epoch != r.leader_epoch ||
              e.producer_id != r.producer_id || e.sequence != r.sequence) {
            ++violations;
          }
        }
        ++i;
      }
    }
  }
  if (i < entries.size()) {
    violations += static_cast<std::uint64_t>(entries.size() - i);
  }
  return violations;
}

}  // namespace ks::kafka
