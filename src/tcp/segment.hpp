// Wire format of the simulated TCP transport.
//
// We simulate the byte stream positionally: segments carry (seq, len) byte
// ranges plus metadata describing the application message that ENDS inside
// the range, so the receiver can reassemble app messages in order without
// simulating actual payload bytes.
//
// A segment is a fixed-size, trivially copyable value that rides inside
// its net::Packet as the packet's header: its SACK blocks are inline, and
// since the sender cuts segments at message boundaries at most one message
// ends in each, at the segment's last byte; that message's payload is the
// packet's payload. So a segment costs no allocation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
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
  /// An app message ends at seq + len: the packet's payload is that
  /// message's, delivered to the peer once the stream is contiguous there.
  kFlagMessageEnd = 1u << 5,
};

/// A received-but-not-contiguous [start, end) byte range.
struct SackBlock {
  StreamOffset start = 0;
  StreamOffset end = 0;
};

/// SACK blocks per segment, like the real TCP option.
inline constexpr std::size_t kMaxSackBlocks = 4;

struct Segment {
  std::uint32_t flags = 0;
  std::uint64_t epoch = 0;     ///< Connection incarnation.
  StreamOffset seq = 0;        ///< First payload byte's stream offset.
  Bytes len = 0;               ///< Payload byte count (0 for pure control).
  StreamOffset ack = 0;        ///< Cumulative ack (next expected offset).
  Bytes wnd = 0;               ///< Advertised receive window, bytes.
  std::array<SackBlock, kMaxSackBlocks> sack{};
  std::size_t sack_count = 0;  ///< Blocks in use, lowest range first.
  /// With kFlagMessageEnd: the ending message's open tcp.flight span
  /// (0 = untraced); the receiver closes it when the message reassembles.
  std::uint64_t flight_span = 0;

  bool has(SegmentFlags f) const noexcept { return (flags & f) != 0; }
  std::span<const SackBlock> sack_blocks() const noexcept {
    return {sack.data(), sack_count};
  }
};

}  // namespace ks::tcp
