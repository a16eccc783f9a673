// Minimal recursive-descent JSON parser — the read side of json.h's
// writer, used by the report layer (tools/tsx_report and the in-process
// --report path both consume telemetry artifacts through it, so they
// compute identical numbers). Deliberately small: no streaming, no
// surrogate-pair decoding, numbers kept as raw text so 64-bit cycle
// counters survive the round trip without a double conversion. The sweep
// merger feeds it artifacts this process did not write, so malformed input
// (truncation, bad escapes, duplicate keys, unescaped control bytes,
// non-UTF-8 bytes) fails with an offset-located error rather than yielding
// a silently wrong document.
//
// Reads are strict too: each lookup names the type it wants, and a missing
// member, wrong type or out-of-range index throws a JsonError naming the
// JSON path the parser recorded, e.g. "runs[0].threads: expected array, got
// string". find() is the only optional lookup.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tsxhpc::sim {

/// A strict lookup failed: "<path>: <problem>".
struct JsonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  // Object members: a missing key or a wrong type throws JsonError.
  std::uint64_t u64(std::string_view key) const {
    return member(key, Type::kNumber).to_u64([&] { return child(key); });
  }
  double f64(std::string_view key) const {
    return std::strtod(member(key, Type::kNumber).text_.c_str(), nullptr);
  }
  const std::string& str(std::string_view key) const {
    return member(key, Type::kString).text_;
  }
  bool boolean(std::string_view key) const {
    return member(key, Type::kBool).bool_;
  }
  const JsonValue& obj(std::string_view key) const {
    return member(key, Type::kObject);
  }
  const JsonValue& arr(std::string_view key) const {
    return member(key, Type::kArray);
  }
  /// The array at `key`, which must hold exactly `n` elements.
  const JsonValue& arr(std::string_view key, std::size_t n) const {
    const JsonValue& a = arr(key);
    if (a.arr_.size() != n) {
      error(child(key), "expected " + std::to_string(n) + " elements, got " +
                            std::to_string(a.arr_.size()));
    }
    return a;
  }
  /// The array at `key`, every element checked to be an object.
  const std::vector<JsonValue>& objects(std::string_view key) const {
    const JsonValue& a = arr(key);
    for (std::size_t i = 0; i < a.arr_.size(); ++i) a.element(i, Type::kObject);
    return a.arr_;
  }
  /// The one optional lookup: null when `key` is absent. A present member
  /// is then read through the typed lookups above.
  const JsonValue* find(std::string_view key) const {
    expect(Type::kObject, path_);
    for (const auto& [k, v] : obj_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    expect(Type::kObject, path_);
    return obj_;
  }

  // Array elements: an index out of range or a wrong type throws JsonError.
  std::size_t size() const {
    expect(Type::kArray, path_);
    return arr_.size();
  }
  std::uint64_t u64(std::size_t i) const {
    return element(i, Type::kNumber).to_u64([&] { return child(i); });
  }
  const std::string& str(std::size_t i) const {
    return element(i, Type::kString).text_;
  }
  const JsonValue& obj(std::size_t i) const {
    return element(i, Type::kObject);
  }

  /// Throw a JsonError about member `key` of this object.
  [[noreturn]] void fail(std::string_view key,
                         const std::string& problem) const {
    error(child(key), problem);
  }

 private:
  friend class JsonParser;

  static const char* name(Type t) {
    constexpr const char* kNames[] = {"null",   "boolean", "number",
                                      "string", "array",   "object"};
    return kNames[static_cast<int>(t)];
  }
  [[noreturn]] static void error(const std::string& path,
                                 const std::string& problem) {
    throw JsonError((path.empty() ? "(root)" : path) + ": " + problem);
  }
  std::string child(std::string_view key) const {
    return path_.empty() ? std::string(key) : path_ + "." + std::string(key);
  }
  std::string child(std::size_t i) const {
    return path_ + "[" + std::to_string(i) + "]";
  }

  void expect(Type want, const std::string& path) const {
    if (type_ != want) {
      error(path,
            std::string("expected ") + name(want) + ", got " + name(type_));
    }
  }
  const JsonValue& member(std::string_view key, Type want) const {
    expect(Type::kObject, path_);
    for (const auto& [k, v] : obj_) {
      if (k != key) continue;
      if (v.type_ != want) v.expect(want, child(key));
      return v;
    }
    error(path_, "missing member '" + std::string(key) + "'");
  }
  const JsonValue& element(std::size_t i, Type want) const {
    expect(Type::kArray, path_);
    if (i >= arr_.size()) {
      error(path_, "index " + std::to_string(i) + " out of range (size " +
                       std::to_string(arr_.size()) + ")");
    }
    const JsonValue& v = arr_[i];
    if (v.type_ != want) v.expect(want, child(i));
    return v;
  }
  /// Counters are unsigned integers; a sign, fraction, exponent or
  /// overflow is a wrong type. `path()` names this number on error.
  std::uint64_t to_u64(auto path) const {
    errno = 0;
    const std::uint64_t n = std::strtoull(text_.c_str(), nullptr, 10);
    if (text_.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE) {
      error(path(), "expected unsigned integer, got " + text_);
    }
    return n;
  }

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string text_;  // number (raw) or string (unescaped)
  std::string path_;  // where a container sits, e.g. "runs[0].threads"
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

class JsonParser {
 public:
  /// Parse `text`; on malformed input sets *error and returns a null value.
  static JsonValue parse(std::string_view text, std::string* error = nullptr) {
    JsonParser p(text);
    JsonValue v;
    try {
      v = p.value();
      p.skip_ws();
      if (p.pos_ != text.size()) p.fail("trailing characters");
    } catch (const ParseError& e) {
      if (error) *error = e.what;
      return JsonValue{};
    }
    return v;
  }

 private:
  struct ParseError {
    std::string what;
  };

  explicit JsonParser(std::string_view text) : text_(text) {}

  [[noreturn]] void fail(const char* msg) {
    throw ParseError{std::string(msg) + " at offset " +
                     std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      pos_++;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    pos_++;
  }

  bool consume_lit(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// `path` names the value if it is a container (JsonValue::path_).
  JsonValue value(std::string path = {}) {
    skip_ws();
    switch (peek()) {
      case '{': return object(std::move(path));
      case '[': return array(std::move(path));
      case '"': return string_value();
      case 't':
        if (!consume_lit("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_lit("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_lit("null")) fail("bad literal");
        return JsonValue{};
      default: return number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.type_ = JsonValue::Type::kBool;
    v.bool_ = b;
    return v;
  }

  /// Only containers record a path, so scalars cost no string.
  std::string path_if_container(const JsonValue& parent, auto key_or_index) {
    skip_ws();
    const char c = peek();
    return c == '{' || c == '[' ? parent.child(key_or_index) : std::string();
  }

  JsonValue object(std::string path) {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    v.path_ = std::move(path);
    skip_ws();
    if (peek() == '}') {
      pos_++;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      // Duplicate keys are always a writer bug; first-wins lookup would
      // silently hide the second value, so fail loudly with the offset.
      for (const auto& kv : v.obj_) {
        if (kv.first == key) fail("duplicate object key");
      }
      skip_ws();
      expect(':');
      JsonValue member = value(path_if_container(v, std::string_view(key)));
      v.obj_.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') {
        pos_++;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array(std::string path) {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    v.path_ = std::move(path);
    skip_ws();
    if (peek() == ']') {
      pos_++;
      return v;
    }
    for (;;) {
      v.arr_.push_back(value(path_if_container(v, v.arr_.size())));
      skip_ws();
      if (peek() == ',') {
        pos_++;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.type_ = JsonValue::Type::kString;
    v.text_ = parse_string();
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      pos_++;
      if (c == '"') return out;
      if (c != '\\') {
        const unsigned char u = static_cast<unsigned char>(c);
        // JSON requires control characters to be escaped, and the document
        // to be UTF-8. The writer guarantees both; reject bytes that cannot
        // have come from it (truncation, corruption, a foreign producer)
        // with a located error instead of passing garbage downstream.
        if (u < 0x20) fail("unescaped control character in string");
        if (u >= 0x80) {
          int tail;
          if (u >= 0xc2 && u <= 0xdf) tail = 1;
          else if (u >= 0xe0 && u <= 0xef) tail = 2;
          else if (u >= 0xf0 && u <= 0xf4) tail = 3;
          else fail("invalid UTF-8 byte in string");  // 0x80-0xC1, 0xF5-0xFF
          out += c;
          for (int i = 0; i < tail; ++i) {
            const char cc = peek();
            if ((static_cast<unsigned char>(cc) & 0xc0) != 0x80) {
              fail("truncated UTF-8 sequence in string");
            }
            pos_++;
            out += cc;
          }
          continue;
        }
        out += c;
        continue;
      }
      const char esc = peek();
      pos_++;
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
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only emits \u00XX control escapes; anything wider is
          // replaced rather than UTF-8 encoded.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') pos_++;
    bool any = false;
    auto digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        pos_++;
        any = true;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      pos_++;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      pos_++;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        pos_++;
      }
      digits();
    }
    if (!any) fail("bad number");
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.text_.assign(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace tsxhpc::sim
