// A simulated network packet. Payload content is opaque to the network
// layer; only the wire size matters for bandwidth and loss accounting.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/types.hpp"

namespace ks::net {

/// Room for a protocol header carried inside the packet by value.
inline constexpr std::size_t kHeaderBytes = 128;

struct Packet {
  std::uint64_t id = 0;                     ///< Unique per link, for tracing.
  Bytes size = 0;                           ///< Total wire size in bytes.
  std::shared_ptr<const void> payload;      ///< Protocol-defined payload.
  /// Protocol-defined header bytes (a TCP segment's fields), copied with
  /// the packet, so a header costs no allocation of its own.
  alignas(8) std::array<std::byte, kHeaderBytes> header{};

  template <typename H>
  void set_header(const H& h) noexcept {
    static_assert(std::is_trivially_copyable_v<H>);
    static_assert(sizeof(H) <= kHeaderBytes && alignof(H) <= 8);
    std::memcpy(header.data(), &h, sizeof(H));
  }

  /// The header as set_header() wrote it; the caller asserts the type.
  template <typename H>
  H header_as() const noexcept {
    static_assert(std::is_trivially_copyable_v<H>);
    static_assert(sizeof(H) <= kHeaderBytes && alignof(H) <= 8);
    H h;
    std::memcpy(&h, header.data(), sizeof(H));
    return h;
  }
};

}  // namespace ks::net
