// Minimal JSON reader/writer for the obs layer and pfaird's requests.
//
// The repo bans external dependencies.  The obs tooling reads back what
// its sinks write (JSONL event lines, Perfetto trace JSON, BENCH_*.json
// reports), and pfaird reads every request line a client sends.  Both
// go through the one grammar here: Reader, a pull reader over a string,
// and parse(), which builds a tree of Values on top of it.  A canonical
// dump() serves round-trip tests and schema checks.
//
// Since clients reach it, the reader keeps three bounds on any input:
//   - nesting is capped at depth 64: a deeper value is a syntax error;
//   - keys and strings without escapes are views into the text, so
//     they allocate nothing;
//   - a number is the longest run of [0-9.eE+-], read as strtod reads
//     it, and a syntax error unless strtod takes the whole run (so +1,
//     01 and 1. read as 1, 1e999 as inf and 1e-400 as 0).
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pfair::obs::json {

class Value;
using Array = std::vector<Value>;
/// std::map keeps members sorted: dump() is canonical by construction.
using Object = std::map<std::string, Value>;

class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] double as_number() const { return std::get<double>(v_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(v_); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(v_); }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    const auto it = as_object().find(key);
    return it == as_object().end() ? nullptr : &it->second;
  }

  /// Member as number with a fallback (the JSONL reader's idiom).
  [[nodiscard]] double number_or(const std::string& key, double fallback) const {
    const Value* m = find(key);
    return m != nullptr && m->is_number() ? m->as_number() : fallback;
  }

  /// Member as string with a fallback.
  [[nodiscard]] std::string string_or(const std::string& key, std::string fallback) const {
    const Value* m = find(key);
    return m != nullptr && m->is_string() ? m->as_string() : std::move(fallback);
  }

  [[nodiscard]] bool operator==(const Value& o) const { return v_ == o.v_; }

  /// Canonical serialization (sorted object keys, %.17g numbers).
  [[nodiscard]] std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_ = nullptr;
};

/// Parses one JSON document; std::nullopt on any syntax error or
/// trailing garbage.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

/// Pull reader: one pass over one JSON document, building nothing.
/// value() reads the next value's first token: a whole scalar, or the
/// bracket that opens an object or array, whose children the caller
/// then steps through with next_member()/next_element(), or passes over
/// with skip().  A syntax error sticks: value() returns kError and the
/// stepping calls return false from then on, so every loop ends, and
/// finish() reports it.
///
///   Reader r(text);
///   if (r.value() == Reader::Token::kObject)
///     for (std::string_view key; r.next_member(&key);) r.skip(r.value());
///   const bool well_formed = r.finish();
class Reader {
 public:
  enum class Token : std::uint8_t {
    kError, kNull, kFalse, kTrue, kNumber, kString, kObject, kArray
  };

  explicit Reader(std::string_view text) noexcept : s_(text) {}

  [[nodiscard]] Token value() {
    switch (peek()) {
      case '{': case '[':
        ++depth_;
        first_ = true;
        return s_[pos_++] == '{' ? Token::kObject : Token::kArray;
      case '"': return read_string() ? Token::kString : Token::kError;
      case 't': case 'f': case 'n': return read_literal();
      default: return read_number();
    }
  }

  /// The value of the last kNumber.
  [[nodiscard]] double number() const noexcept { return num_; }
  /// The last kString or key, unescaped: a view into the text, or, for
  /// one with an escape, into a buffer the next such string overwrites.
  [[nodiscard]] std::string_view string() const noexcept { return str_; }

  /// Steps to the next member of the object value() opened: true with
  /// `key` set, ready for value() to read the member's value; false
  /// past the closing '}' or on a syntax error.
  [[nodiscard]] bool next_member(std::string_view* key) {
    if (!next_child('}')) return false;
    if (peek() != '"' || !read_string()) return fail();
    *key = str_;
    if (peek() != ':') return fail();
    ++pos_;
    return true;
  }

  /// Steps to the next element of the array value() opened, as above.
  [[nodiscard]] bool next_element() { return next_child(']'); }

  /// Passes over the rest of a value whose first token value() returned.
  void skip(Token t) {
    if (t == Token::kObject || t == Token::kArray) skip_children(t);
  }

  /// True when the text held one well-formed value and only whitespace
  /// after it.
  [[nodiscard]] bool finish() {
    (void)peek();
    return !failed_ && pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  // The scans below advance a local index, not pos_: a char load may
  // alias any member, so a member index would be stored every byte.

  /// Skips whitespace; the next character, or '\0' at the end.
  char peek() noexcept {
    std::size_t i = pos_;
    while (i < s_.size() && (s_[i] == ' ' || s_[i] == '\t' || s_[i] == '\n' || s_[i] == '\r'))
      ++i;
    pos_ = i;
    return i < s_.size() ? s_[i] : '\0';
  }

  /// True past a ',' or at the first child, false past `close`.  depth_
  /// counts the open containers, so it is the child's depth.
  bool next_child(char close) {
    const char c = peek();
    if (c == close) {
      ++pos_;
      --depth_;
      first_ = false;
      return false;
    }
    if (!first_) {
      if (c != ',') return fail();
      ++pos_;
    }
    first_ = false;
    return depth_ <= kMaxDepth || fail();
  }

  bool read_string() {
    const std::size_t start = ++pos_;  // past the opening quote
    for (std::size_t i = start; i < s_.size(); ++i) {
      if (s_[i] == '\\') return read_escaped(start, i);
      if (s_[i] == '"') {
        str_ = std::string_view(s_.data() + start, i - start);
        pos_ = i + 1;
        return true;
      }
    }
    return fail();  // unterminated
  }

  Token read_number() {
    const std::size_t start = pos_;
    std::size_t i = start;
    // A run of at most 15 digits is exact as a double, so it is read
    // as an integer; any other run goes to from_chars.
    std::int64_t digits = 0;
    bool integer = true;
    for (; i < s_.size(); ++i) {
      const char c = s_[i];
      if (c >= '0' && c <= '9') {
        integer = integer && i - start < 15;
        if (integer) digits = digits * 10 + (c - '0');
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integer = false;
      } else {
        break;
      }
    }
    pos_ = i;
    if (integer && i > start) {
      num_ = static_cast<double>(digits);
      return Token::kNumber;
    }
    // from_chars rounds as strtod does, but refuses some spellings
    // strtod takes (+1) and values it cannot hold (1e999).
    const char* last = s_.data() + i;
    const auto [end, ec] =
        std::from_chars(s_.data() + start, last, num_, std::chars_format::general);
    if (ec == std::errc{} && end == last) return Token::kNumber;
    return read_number_strtod(start);
  }

  /// Records a syntax error and moves to the end of the text; false.
  bool fail() noexcept {
    failed_ = true;
    pos_ = s_.size();
    return false;
  }
  Token error() noexcept {
    fail();
    return Token::kError;
  }

  bool read_escaped(std::size_t start, std::size_t i);
  Token read_literal();
  Token read_number_strtod(std::size_t start);
  void skip_children(Token t);

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool first_ = false;  ///< value() just opened a container
  bool failed_ = false;
  double num_ = 0.0;
  std::string_view str_;
  std::string scratch_;  ///< the last string with an escape, unescaped
};

/// Streaming writer for one flat JSON object on the serving hot path.
///
/// Appends members straight into a caller-owned string and produces
/// bytes identical to building an Object (std::map) with the same
/// members and dump()ing it — PROVIDED members are appended in
/// strictly ascending key order, which debug builds assert (std::map
/// iteration *is* sorted order, so the equivalence is structural).
/// pfaird answers every decision line through this instead of paying
/// a tree of Value nodes plus their string allocations per line.
class ObjectWriter {
 public:
  /// Opens the object: appends '{' to `out`, which must outlive the
  /// writer.  finish() closes it.
  explicit ObjectWriter(std::string& out);

  ObjectWriter& field_bool(std::string_view key, bool v);
  /// Integer member, byte-identical to dump()'s %.17g rendering of the
  /// same integral double; |v| must stay within the exactly-
  /// representable 2^53 (debug-asserted).
  ObjectWriter& field_int(std::string_view key, std::int64_t v);
  ObjectWriter& field_str(std::string_view key, std::string_view v);

  /// Closes the object.  No fields may follow.
  void finish();

 private:
  void begin(std::string_view key);

  std::string& out_;
  bool first_ = true;
#ifndef NDEBUG
  std::string last_key_;
  bool finished_ = false;
#endif
};

}  // namespace pfair::obs::json
