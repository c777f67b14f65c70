// One description per JSON record, walked by a writer and by a reader.
//
// A record type declares its JSON form once, as a field list:
//
//   template <class V>
//   void fields(V& v, MessageTrace::Entry& e) {
//     v("t_us", e.t);
//     v("key", e.key);
//     v("event", e.event);
//     v("detail", e.detail);
//   }
//
// JsonOut walks the list to write the record through JsonWriter; JsonIn
// walks the same list to read it back from a parsed JsonValue. So the
// writer and the reader cannot disagree on a key, its order or its type.
// Field lists live in their record's own namespace: the visitors find them
// by argument-dependent lookup, which never looks into an anonymous one.
//
// A field holds bool, an integer, double, std::string, an enum with
// to_string(), a record with a field list, or a std::vector of these. A
// std::map<std::string, double> and a vector of (name, value) pairs are
// each written as one JSON object, name -> value. A JsonValue field is an
// opaque object subtree (a record of a layer above this one), written
// back as it was read. Beyond the plain field a list can use
//   v.optional(key, s)   a string the writer omits when empty, or a
//                        JsonValue it omits when null;
//   v.object(key, body)  one JSON object around the fields `body` visits;
//   v(key, vec, skip)    a vector whose elements e with skip(e) the writer
//                        leaves out;
//   v.canonical          true while writing a canonical form.
//
// The reading rule:
//   - An absent key, or a value of another JSON type, leaves the field at
//     its default. An array element of another type reads as a default
//     element; a map member that is not a number is left out; a JsonValue
//     field takes only an object.
//   - An enum field must be present and carry a name to_string() gives one
//     of its values.
//   - An integer field given a number must get an integer token (no
//     fraction, no exponent) that its type can hold.
// A document that breaks either of the last two fails to read.
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace ks::obs {

/// Inverse of the to_string() overload of an enum written by name. It
/// scans the enum's values 0..255 — each such enum is numbered from 0 and
/// to_string() answers "?" for a value it does not name — so a value added
/// later is found without a second table. nullopt for a name no value
/// carries.
template <typename E>
std::optional<E> enum_from_string(std::string_view s) noexcept {
  if (s == "?") return std::nullopt;
  for (int i = 0; i < 256; ++i) {
    const auto e = static_cast<E>(i);
    if (s == to_string(e)) return e;
  }
  return std::nullopt;
}

namespace json_fields_detail {

template <class T>
struct Vector : std::false_type {};
template <class T>
struct Vector<std::vector<T>> : std::true_type {};

/// A container written as one JSON object: name -> value.
template <class T>
struct Named : std::false_type {};
template <class T>
struct Named<std::vector<std::pair<std::string, T>>> : std::true_type {};
template <>
struct Named<std::map<std::string, double>> : std::true_type {};

template <class T>
inline constexpr bool kInteger =
    std::is_integral_v<T> && !std::is_same_v<T, bool>;

}  // namespace json_fields_detail

/// Writes records through their field lists.
class JsonOut {
 public:
  explicit JsonOut(bool canonical_form = false) : canonical(canonical_form) {}

  const bool canonical;

  template <class T>
  void operator()(const char* key, const T& field) {
    w_.key(key);
    write(field);
  }
  template <class T, class Skip>
  void operator()(const char* key, const std::vector<T>& vec,
                  const Skip& skip) {
    w_.key(key);
    w_.begin_array();
    for (const auto& e : vec) {
      if (!skip(e)) write(e);
    }
    w_.end_array();
  }
  void optional(const char* key, const std::string& s) {
    if (!s.empty()) (*this)(key, s);
  }
  void optional(const char* key, const JsonValue& subtree) {
    if (subtree.type != JsonValue::Type::kNull) (*this)(key, subtree);
  }
  template <class Body>
  void object(const char* key, const Body& body) {
    w_.key(key);
    w_.begin_object();
    body();
    w_.end_object();
  }

  template <class T>
  void write(const T& x) {
    using namespace json_fields_detail;
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::string>) {
      w_.value(x);
    } else if constexpr (std::is_enum_v<T>) {
      w_.value(to_string(x));
    } else if constexpr (std::is_same_v<T, JsonValue>) {
      write_subtree(x);
    } else if constexpr (kInteger<T> && std::is_signed_v<T>) {
      w_.value(static_cast<std::int64_t>(x));
    } else if constexpr (kInteger<T>) {
      w_.value(static_cast<std::uint64_t>(x));
    } else if constexpr (Named<T>::value) {
      w_.begin_object();
      for (const auto& [name, value] : x) {
        w_.key(name);
        write(value);
      }
      w_.end_object();
    } else if constexpr (Vector<T>::value) {
      w_.begin_array();
      for (const auto& e : x) write(e);
      w_.end_array();
    } else {
      // A field list takes its record by reference so that JsonIn can fill
      // it; this visitor only reads through it.
      w_.begin_object();
      fields(*this, const_cast<T&>(x));
      w_.end_object();
    }
  }

  const std::string& str() const noexcept { return w_.str(); }

 private:
  /// A parsed value as it was read; an integer token keeps its exact
  /// value, which a double would round above 2^53.
  void write_subtree(const JsonValue& v) {
    switch (v.type) {
      case JsonValue::Type::kNull: w_.null(); break;
      case JsonValue::Type::kBool: w_.value(v.boolean); break;
      case JsonValue::Type::kNumber:
        if (!v.integral) {
          w_.value(v.number);
        } else if (v.integer < 0) {
          w_.value(v.integer);
        } else {
          w_.value(v.uinteger);
        }
        break;
      case JsonValue::Type::kString: w_.value(v.string); break;
      case JsonValue::Type::kArray:
        w_.begin_array();
        for (const auto& e : v.array) write_subtree(e);
        w_.end_array();
        break;
      case JsonValue::Type::kObject:
        w_.begin_object();
        for (const auto& [name, member] : v.object) {
          w_.key(name);
          write_subtree(member);
        }
        w_.end_object();
        break;
    }
  }

  JsonWriter w_;
};

/// Reads records through their field lists, by the rule at the top of this
/// file; ok() turns false at the first field the rule rejects.
class JsonIn {
 public:
  static constexpr bool canonical = false;

  bool ok() const noexcept { return ok_; }

  template <class T>
  void operator()(const char* key, T& field) {
    read(member(key), field);
  }
  template <class T, class Skip>
  void operator()(const char* key, std::vector<T>& vec, const Skip&) {
    read(member(key), vec);
  }
  void optional(const char* key, std::string& s) { read(member(key), s); }
  void optional(const char* key, JsonValue& subtree) {
    read(member(key), subtree);
  }
  template <class Body>
  void object(const char* key, const Body& body) {
    const JsonValue* outer = at_;
    at_ = member(key);
    body();
    at_ = outer;
  }

  /// Read `x` from `v`; a null `v` is an absent key.
  template <class T>
  void read(const JsonValue* v, T& x) {
    using namespace json_fields_detail;
    if constexpr (std::is_enum_v<T>) {
      const auto e = v != nullptr && v->is_string()
                         ? enum_from_string<T>(v->string)
                         : std::nullopt;
      if (e) {
        x = *e;
      } else {
        ok_ = false;
      }
    } else if constexpr (std::is_same_v<T, bool>) {
      if (v != nullptr && v->type == JsonValue::Type::kBool) x = v->boolean;
    } else if constexpr (std::is_same_v<T, double>) {
      if (v != nullptr && v->is_number()) x = v->number;
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (v != nullptr && v->is_string()) x = v->string;
    } else if constexpr (std::is_same_v<T, JsonValue>) {
      if (v != nullptr && v->is_object()) x = *v;
    } else if constexpr (kInteger<T>) {
      if (v == nullptr || !v->is_number()) return;
      if (const auto i = v->to_int<T>()) {
        x = *i;
      } else {
        ok_ = false;
      }
    } else if constexpr (std::is_same_v<T, std::map<std::string, double>>) {
      if (v == nullptr || !v->is_object()) return;
      for (const auto& [name, value] : v->object) {
        if (value.is_number()) x[name] = value.number;
      }
    } else if constexpr (Named<T>::value) {
      if (v == nullptr || !v->is_object()) return;
      x.clear();
      for (const auto& [name, value] : v->object) {
        read(&value, x.emplace_back(name, typename T::value_type::second_type{})
                         .second);
      }
    } else if constexpr (Vector<T>::value) {
      if (v == nullptr || !v->is_array()) return;
      x.assign(v->array.size(), typename T::value_type{});
      for (std::size_t i = 0; i < x.size(); ++i) read(&v->array[i], x[i]);
    } else {
      // A record: every field of a value that is no object reads as absent.
      const JsonValue* outer = at_;
      at_ = v;
      fields(*this, x);
      at_ = outer;
    }
  }

 private:
  const JsonValue* member(const char* key) const noexcept {
    return at_ != nullptr ? at_->find(key) : nullptr;
  }

  const JsonValue* at_ = nullptr;
  bool ok_ = true;
};

/// `record` as a JSON object; `canonical` selects the canonical form.
template <class R>
std::string encode_json(const R& record, bool canonical = false) {
  JsonOut out(canonical);
  out.write(record);
  return out.str();
}

/// Fill `record` from `text`, a JSON object. False when `text` is no JSON
/// object or breaks the reading rule.
template <class R>
bool decode_json(std::string_view text, R& record) {
  const auto doc = parse_json(text);
  if (!doc || !doc->is_object()) return false;
  JsonIn in;
  in.read(&*doc, record);
  return in.ok();
}

/// Write `text` to `path`. False unless every byte was written and the
/// file closed cleanly: a short document sits in the stdio buffer until
/// fclose, so only fclose reports a full disk.
inline bool write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  return written && closed;
}

/// The bytes of `path`; nullopt when it cannot be opened or read.
inline std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read = std::ferror(f) == 0;
  std::fclose(f);
  if (!read) return std::nullopt;
  return text;
}

}  // namespace ks::obs
