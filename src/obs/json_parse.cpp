#include "obs/json_parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace ks::obs {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // Trailing garbage.
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    JsonValue v;
    switch (text_[pos_]) {
      case '{': return nested(&Parser::object);
      case '[': return nested(&Parser::array);
      case '"': {
        auto s = string();
        if (!s) return std::nullopt;
        v.type = JsonValue::Type::kString;
        v.string = std::move(*s);
        return v;
      }
      case 't':
        if (!literal("true")) return std::nullopt;
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!literal("false")) return std::nullopt;
        v.type = JsonValue::Type::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!literal("null")) return std::nullopt;
        v.type = JsonValue::Type::kNull;
        return v;
      default: return number();
    }
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    std::size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++digits;
    }
    if (digits == 0) return std::nullopt;
    const std::size_t int_end = pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v.number)) return std::nullopt;
    if (int_end == pos_) {
      // Pure integer token: capture the exact 64-bit value alongside the
      // double so values above 2^53 (uint64 counters, the kNoKey sentinel)
      // survive a round-trip.
      const std::string_view tok = text_.substr(start, int_end - start);
      if (tok[0] == '-') {
        std::int64_t i = 0;
        const auto [p, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), i);
        if (ec == std::errc{} && p == tok.data() + tok.size()) {
          v.integral = true;
          v.integer = i;
        }
      } else {
        std::uint64_t u = 0;
        const auto [p, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), u);
        if (ec == std::errc{} && p == tok.data() + tok.size()) {
          v.integral = true;
          v.uinteger = u;
          v.integer = u <= static_cast<std::uint64_t>(
                               std::numeric_limits<std::int64_t>::max())
                          ? static_cast<std::int64_t>(u)
                          : std::numeric_limits<std::int64_t>::max();
        }
      }
    }
    return v;
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return std::nullopt;
            }
          }
          // UTF-8 encode (surrogate pairs unsupported; our writer only
          // escapes control characters, which are all < 0x80).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // Unterminated string.
  }

  std::optional<JsonValue> array() {
    if (!eat('[')) return std::nullopt;
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (eat(']')) return v;
    while (true) {
      auto elem = value();
      if (!elem) return std::nullopt;
      v.array.push_back(std::move(*elem));
      if (eat(']')) return v;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> object() {
    if (!eat('{')) return std::nullopt;
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (eat('}')) return v;
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      if (!eat(':')) return std::nullopt;
      auto member = value();
      if (!member) return std::nullopt;
      v.object.emplace_back(std::move(*key), std::move(*member));
      if (eat('}')) return v;
      if (!eat(',')) return std::nullopt;
    }
  }

  /// Containers recurse, so a hostile document of deeply nested brackets
  /// would exhaust the stack; no artifact nests anywhere near this deep.
  std::optional<JsonValue> nested(
      std::optional<JsonValue> (Parser::*parse)()) {
    if (depth_ == kMaxDepth) return std::nullopt;
    ++depth_;
    auto v = (this->*parse)();
    --depth_;
    return v;
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num_or(std::string_view key, double fallback) const noexcept {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::int64_t JsonValue::int_or(std::string_view key,
                               std::int64_t fallback) const noexcept {
  const JsonValue* v = find(key);
  if (v == nullptr) return fallback;
  return v->to_int<std::int64_t>().value_or(fallback);
}

std::uint64_t JsonValue::uint_or(std::string_view key,
                                 std::uint64_t fallback) const noexcept {
  const JsonValue* v = find(key);
  if (v == nullptr) return fallback;
  return v->to_int<std::uint64_t>().value_or(fallback);
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const noexcept {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type == Type::kBool) ? v->boolean : fallback;
}

std::string JsonValue::str_or(std::string_view key,
                              std::string fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->string : std::move(fallback);
}

std::optional<JsonValue> parse_json(std::string_view text) {
  return Parser(text).run();
}

}  // namespace ks::obs
