// Minimal JSON reader — the counterpart of JsonWriter, just enough to load
// run artifacts back (ks_explain on a saved report) and to validate the
// Perfetto export in tests. Recursive descent over the full JSON grammar;
// numbers become doubles, objects keep insertion order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ks::obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// True when the source token was a pure integer that fits std::int64_t
  /// or std::uint64_t; `integer`/`uinteger` then hold the exact value.
  /// Doubles lose integers above 2^53 (e.g. the kNoKey span sentinel), so
  /// exact reconstruction must go through these.
  bool integral = false;
  std::int64_t integer = 0;    ///< Valid when integral (clamped if > int64).
  std::uint64_t uinteger = 0;  ///< Valid when integral and non-negative.
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const noexcept { return type == Type::kObject; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_number() const noexcept { return type == Type::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;

  /// This value as integer type T: an integer token (no fraction, no
  /// exponent) whose value T can hold; nullopt for anything else.
  template <typename T>
  std::optional<T> to_int() const noexcept {
    if (!integral) return std::nullopt;
    // A negative token is exact in `integer`, a non-negative one in
    // `uinteger`.
    if (integer < 0) {
      if (!std::in_range<T>(integer)) return std::nullopt;
      return static_cast<T>(integer);
    }
    if (!std::in_range<T>(uinteger)) return std::nullopt;
    return static_cast<T>(uinteger);
  }

  /// Convenience accessors with fallbacks. int_or and uint_or answer the
  /// fallback for a number to_int() rejects.
  double num_or(std::string_view key, double fallback = 0.0) const noexcept;
  std::int64_t int_or(std::string_view key,
                      std::int64_t fallback = 0) const noexcept;
  std::uint64_t uint_or(std::string_view key,
                        std::uint64_t fallback = 0) const noexcept;
  bool bool_or(std::string_view key, bool fallback = false) const noexcept;
  std::string str_or(std::string_view key, std::string fallback = {}) const;
};

/// Parse `text` as one JSON document (trailing whitespace allowed).
/// Returns nullopt on any syntax error and on containers nested more than
/// 256 deep.
std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace ks::obs
