#include "kafka/log.hpp"

#include <algorithm>
#include <cassert>

#include "kafka/storage.hpp"

namespace ks::kafka {

PartitionLog::PartitionLog() = default;
PartitionLog::~PartitionLog() = default;

PartitionLog::AppendResult PartitionLog::append(std::span<const Record> records,
                                                TimePoint append_time,
                                                std::uint64_t producer_id,
                                                std::int64_t base_sequence,
                                                std::int32_t leader_epoch) {
  AppendResult result;
  if (records.empty()) {
    result.base_offset = log_end_offset();
    return result;
  }

  if (producer_id != 0 && base_sequence >= 0) {
    auto& state = producers_[producer_id];
    if (base_sequence <= state.last_sequence) {
      // A retry of a batch we already hold: acknowledge without appending.
      ++deduped_;
      result.deduplicated = true;
      result.error = ErrorCode::kDuplicateSequence;
      result.base_offset = log_end_offset();
      return result;
    }
    if (state.last_sequence >= 0 &&
        base_sequence > state.last_sequence + 1) {
      // Sequence gap: an earlier batch from this producer has not been
      // appended yet. Accepting the later batch would let the earlier
      // one's retry be mistaken for a duplicate — an ack without an
      // append. Reject instead (Kafka's OutOfOrderSequence rule); the
      // producer retries in order.
      result.error = ErrorCode::kOutOfOrderSequence;
      result.base_offset = log_end_offset();
      return result;
    }
    state.last_sequence =
        base_sequence + static_cast<std::int64_t>(records.size()) - 1;
  }

  result.base_offset = log_end_offset();
  const std::int64_t hw_before = high_watermark();
  std::int64_t sequence = base_sequence;
  Bytes batch_wire = 0;
  for (const auto& r : records) {
    entries_.push_back(LogEntry{log_end_offset(), r.key, r.value_size,
                                append_time, leader_epoch, producer_id,
                                sequence});
    if (sequence >= 0) ++sequence;
    size_bytes_ += r.wire_size();
    batch_wire += r.wire_size();
  }
  if (storage_) {
    pending_flush_cost_ += storage_->append_batch(
        entries_.data() + result.base_offset, records.size(), batch_wire,
        hw_before, append_time);
  }
  return result;
}

void PartitionLog::append_replicated(const LogEntry& entry,
                                     TimePoint local_write_time) {
  assert(entry.offset == log_end_offset());
  const std::int64_t hw_before = high_watermark();
  entries_.push_back(entry);
  entries_.back().offset = log_end_offset() - 1;
  size_bytes_ += kRecordOverhead + entry.value_size;
  if (entry.producer_id != 0 && entry.sequence >= 0) {
    auto& state = producers_[entry.producer_id];
    state.last_sequence = std::max(state.last_sequence, entry.sequence);
  }
  if (storage_) {
    pending_flush_cost_ += storage_->append_batch(
        &entries_.back(), 1, kRecordOverhead + entry.value_size, hw_before,
        local_write_time);
  }
}

void PartitionLog::advance_high_watermark(std::int64_t offset) noexcept {
  high_watermark_ =
      std::max(high_watermark_, std::min(offset, log_end_offset()));
}

void PartitionLog::truncate_to(std::int64_t offset) {
  offset = std::max<std::int64_t>(offset, 0);
  if (offset >= log_end_offset()) return;
  if (storage_) storage_->truncate_to(offset);
  ++truncations_;
  truncated_entries_ += log_end_offset() - offset;
  entries_.resize(static_cast<std::size_t>(offset));
  high_watermark_ = std::min(high_watermark_, offset);
  // Rebuild producer dedup state and byte accounting from what survives.
  producers_.clear();
  size_bytes_ = 0;
  for (const auto& e : entries_) {
    if (e.producer_id != 0 && e.sequence >= 0) {
      auto& state = producers_[e.producer_id];
      state.last_sequence = std::max(state.last_sequence, e.sequence);
    }
    size_bytes_ += kRecordOverhead + e.value_size;
  }
}

std::int64_t PartitionLog::last_sequence_of(std::uint64_t producer_id) const {
  auto it = producers_.find(producer_id);
  return it == producers_.end() ? -1 : it->second.last_sequence;
}

void PartitionLog::enable_storage(StorageDevice* device) {
  assert(entries_.empty());  // The shadow must start in sync with the log.
  storage_ = std::make_unique<SegmentedLog>(device);
}

std::int64_t PartitionLog::crash_power_loss(TimePoint now, bool torn_write) {
  std::int64_t dropped = 0;
  if (storage_) {
    dropped = storage_->power_loss(now, torn_write).dropped_records;
  }
  entries_.clear();
  producers_.clear();
  size_bytes_ = 0;
  high_watermark_ = 0;
  pending_flush_cost_ = 0;
  return dropped;
}

void PartitionLog::recover_from_storage(TimePoint now, RecoveryResult* out) {
  (void)now;
  assert(storage_ != nullptr);
  std::vector<LogEntry> recovered;
  *out = storage_->recover(recovered);
  entries_ = std::move(recovered);
  // Rebuild producer dedup state and byte accounting from the surviving
  // prefix, exactly as truncation does.
  producers_.clear();
  size_bytes_ = 0;
  for (const auto& e : entries_) {
    if (e.producer_id != 0 && e.sequence >= 0) {
      auto& state = producers_[e.producer_id];
      state.last_sequence = std::max(state.last_sequence, e.sequence);
    }
    size_bytes_ += kRecordOverhead + e.value_size;
  }
  // Restore the checkpointed commit point: entries below it were committed
  // before the crash, so a recovering follower keeps them (no divergence
  // risk) and refetches only the unchecked tail.
  high_watermark_ = std::min(out->recovered_hw, log_end_offset());
}

std::uint64_t PartitionLog::verify_recovery() const {
  return storage_ ? storage_->verify_recovered(entries_) : 0;
}

std::span<const LogEntry> PartitionLog::read(std::int64_t offset,
                                             std::size_t max_records) const {
  if (offset < 0 || offset >= log_end_offset()) return {};
  const auto begin = static_cast<std::size_t>(offset);
  const auto count =
      std::min(max_records, entries_.size() - begin);
  return {entries_.data() + begin, count};
}

}  // namespace ks::kafka
