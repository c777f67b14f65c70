// Minimal JSON writer — enough for run artifacts; no external deps.
//
// Usage:
//   JsonWriter w;
//   w.begin_object();
//   w.key("p_loss"); w.value(0.01);
//   w.key("cases"); w.begin_array(); w.value(1); w.end_array();
//   w.end_object();
//   std::string s = w.str();
//
// The writer tracks container state so commas land where they should; it
// does not validate that keys are only written inside objects.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace ks::obs {

class JsonWriter {
 public:
  void begin_object() {
    comma();
    out_ += '{';
    stack_.push_back(false);
  }
  void end_object() {
    out_ += '}';
    pop();
  }
  void begin_array() {
    comma();
    out_ += '[';
    stack_.push_back(false);
  }
  void end_array() {
    out_ += ']';
    pop();
  }

  void key(std::string_view k) {
    comma();
    append_string(k);
    out_ += ':';
    pending_value_ = true;
  }

  void value(std::string_view v) {
    comma();
    append_string(v);
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v) {
    comma();
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";  // JSON has no NaN/Inf.
    }
  }
  void value(std::int64_t v) {
    comma();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
  }
  void value(std::uint64_t v) {
    comma();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    out_ += buf;
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v) {
    comma();
    out_ += v ? "true" : "false";
  }
  void null() {
    comma();
    out_ += "null";
  }

  const std::string& str() const noexcept { return out_; }

 private:
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;  // Value right after a key: no comma.
    }
    if (!stack_.empty() && stack_.back()) out_ += ',';
    if (!stack_.empty()) stack_.back() = true;
  }
  void pop() {
    if (!stack_.empty()) stack_.pop_back();
    if (!stack_.empty()) stack_.back() = true;
    pending_value_ = false;
  }
  void append_string(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> stack_;  ///< Per container: "already has an element".
  bool pending_value_ = false;
};

}  // namespace ks::obs
