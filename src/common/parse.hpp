// The one reader of unsigned numbers given on a command line, in the
// environment or in a seed corpus file.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace ks {

/// A whole decimal or 0x-prefixed hex token whose value fits in 64 bits;
/// nullopt for anything else (empty, a sign, a trailing character, an
/// overflow). A leading zero is decimal: "012" reads as 12.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || ec != std::errc{} || p != end) return std::nullopt;
  return value;
}

}  // namespace ks
