// Minimal streaming JSON writer for telemetry export. Deliberately tiny:
// no DOM, no parsing — just deterministic serialization. Keys are emitted
// in call order (stable across runs), doubles are printed with a fixed
// locale-independent format, and non-finite doubles are clamped to 0 so a
// stray NaN can never produce invalid JSON. This determinism is load-bearing:
// the committed baselines are compared byte-for-byte by the tier-1 gate
// (`ctest -L baseline_test`).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace tsxhpc::sim {

class JsonWriter {
 public:
  JsonWriter() { frames_.push_back(Frame{false, 0}); }

  void begin_object() {
    comma_for_value();
    out_ += '{';
    frames_.push_back(Frame{false, 0});
  }

  void end_object() {
    frames_.pop_back();
    out_ += '}';
  }

  void begin_array() {
    comma_for_value();
    out_ += '[';
    frames_.push_back(Frame{false, 0});
  }

  void end_array() {
    frames_.pop_back();
    out_ += ']';
  }

  void key(std::string_view k) {
    if (frames_.back().count++ > 0) out_ += ',';
    append_string(k);
    out_ += ':';
    frames_.back().after_key = true;
  }

  void value(std::uint64_t v) {
    comma_for_value();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
  }
  void value(std::int64_t v) {
    comma_for_value();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }

  void value(double v) {
    comma_for_value();
    if (!(v == v) || v > 1e308 || v < -1e308) v = 0.0;  // NaN / inf guard
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ += buf;
  }

  void value(bool v) {
    comma_for_value();
    out_ += v ? "true" : "false";
  }

  void value(std::string_view v) {
    comma_for_value();
    append_string(v);
  }
  void value(const char* v) { value(std::string_view(v)); }

  /// Splice pre-serialized JSON bytes in as one value, verbatim. The sweep
  /// merger uses this to embed per-cell telemetry artifacts without a
  /// re-serialization round trip, so merged-artifact bytes cannot depend on
  /// how the cells were sharded. The caller guarantees `json` is valid.
  void raw_value(std::string_view json) {
    comma_for_value();
    out_ += json;
  }

  /// Hex-formatted address value (lock sites, futex words).
  void value_hex(Addr a) {
    comma_for_value();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"0x%llx\"",
                  static_cast<unsigned long long>(a));
    out_ += buf;
  }

  // key/value in one call.
  template <typename V>
  void kv(std::string_view k, V v) {
    key(k);
    value(v);
  }
  void kv_hex(std::string_view k, Addr a) {
    key(k);
    value_hex(a);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  struct Frame {
    bool after_key = false;
    std::size_t count = 0;
  };

  void comma_for_value() {
    Frame& f = frames_.back();
    if (f.after_key) {
      f.after_key = false;  // key() already emitted the separator
      return;
    }
    if (f.count++ > 0) out_ += ',';
  }

  void append_string(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<Frame> frames_;
};

}  // namespace tsxhpc::sim
