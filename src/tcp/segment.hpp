// Wire format of the simulated TCP transport.
//
// We simulate the byte stream positionally: segments carry (seq, len) byte
// ranges plus metadata describing the application message that ENDS inside
// the range, so the receiver can reassemble app messages in order without
// simulating actual payload bytes.
//
// A segment is a fixed-size value: its SACK blocks ride inline, and since
// the sender cuts segments at message boundaries at most one message ends
// in each, at the segment's last byte. So a segment costs one allocation,
// its own shared block, and nothing beside it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/types.hpp"

namespace ks::tcp {

/// Stream offset in bytes (per connection epoch, starts at 0).
using StreamOffset = std::int64_t;

enum SegmentFlags : std::uint32_t {
  kFlagSyn = 1u << 0,
  kFlagSynAck = 1u << 1,
  kFlagAck = 1u << 2,
  kFlagRst = 1u << 3,
  kFlagProbe = 1u << 4,  ///< Zero-window probe; receiver must ack.
};

/// A received-but-not-contiguous [start, end) byte range.
struct SackBlock {
  StreamOffset start = 0;
  StreamOffset end = 0;
};

/// SACK blocks per segment, like the real TCP option.
inline constexpr std::size_t kMaxSackBlocks = 4;

/// The app message whose final byte is the segment's final byte: the opaque
/// app payload delivered to the peer when the stream is contiguous up to
/// seq + len.
struct MessageEnd {
  std::shared_ptr<const void> payload;
  /// Open tcp.flight span for this message (0 = untraced); the receiver
  /// closes it when the message reassembles.
  std::uint64_t flight_span = 0;
};

struct Segment {
  std::uint32_t flags = 0;
  std::uint64_t epoch = 0;     ///< Connection incarnation.
  StreamOffset seq = 0;        ///< First payload byte's stream offset.
  Bytes len = 0;               ///< Payload byte count (0 for pure control).
  StreamOffset ack = 0;        ///< Cumulative ack (next expected offset).
  Bytes wnd = 0;               ///< Advertised receive window, bytes.
  std::array<SackBlock, kMaxSackBlocks> sack{};
  std::size_t sack_count = 0;  ///< Blocks in use, lowest range first.
  std::optional<MessageEnd> message_end;

  bool has(SegmentFlags f) const noexcept { return (flags & f) != 0; }
  std::span<const SackBlock> sack_blocks() const noexcept {
    return {sack.data(), sack_count};
  }
};

}  // namespace ks::tcp
