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

#include <bit>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstring>
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

/// Appends `s` as a JSON string: quoted, with '"', '\\' and control
/// characters escaped.  The repo's one string writer: dump(), the
/// ObjectWriter, the bench reports and the Perfetto export call it.
void write_string(std::string& out, std::string_view s);

/// Appends `d` as a JSON number (%.17g, so it reads back exactly); a
/// non-finite value, which JSON cannot represent, as null.
void write_number(std::string& out, double d);

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

namespace detail {
/// Not constexpr, so a Key that calls it does not compile.
void key_needs_escaping();
}  // namespace detail

/// An ObjectWriter member name, fixed at compile time: the constructor
/// is consteval, so a key is always a string literal, and one that
/// would need escaping (a quote, a backslash or a control character)
/// or that is longer than kMaxLength fails to compile.  It holds the
/// bytes the writer stores for it, `,"key":`, packed into 64-bit words,
/// so that each key is one to four stores of constants.
class Key {
 public:
  static constexpr std::size_t kMaxLength = 28;

  template <std::size_t N>
  consteval Key(const char (&key)[N])  // NOLINT: implicit, so a literal converts
      : name_(key, N - 1), length_(N + 3) {
    static_assert(N - 1 <= kMaxLength, "ObjectWriter key is too long");
    char block[32] = {',', '"'};
    for (std::size_t i = 0; i + 1 < N; ++i) {
      const char c = key[i];
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
        detail::key_needs_escaping();
      block[i + 2] = c;
    }
    block[N + 1] = '"';
    block[N + 2] = ':';
    for (std::size_t w = 0; w < 4; ++w)
      for (std::size_t b = 0; b < 8; ++b) {
        const std::size_t shift = 8 * (std::endian::native == std::endian::little ? b : 7 - b);
        words_[w] |= std::uint64_t{static_cast<unsigned char>(block[8 * w + b])} << shift;
      }
  }

  /// The key itself, without quotes.
  [[nodiscard]] constexpr std::string_view name() const noexcept { return name_; }

 private:
  friend class ObjectWriter;

  /// Stores `,"key":` at `p`, padded to a whole word; past its end.
  char* put(char* p) const noexcept {
    std::memcpy(p, &words_[0], 8);
    if (length_ > 8) std::memcpy(p + 8, &words_[1], 8);
    if (length_ > 16) std::memcpy(p + 16, &words_[2], 8);
    if (length_ > 24) std::memcpy(p + 24, &words_[3], 8);
    return p + length_;
  }

  std::string_view name_;
  std::size_t length_;  ///< bytes of `,"key":`
  std::uint64_t words_[4] = {};
};

/// Writer for one flat JSON object on the serving hot path.
///
/// Produces bytes identical to building an Object (std::map) with the
/// same members and dump()ing it — PROVIDED members are written in
/// strictly ascending key order, which debug builds assert (std::map
/// iteration *is* sorted order, so the equivalence is structural).
/// pfaird answers every decision line through this instead of paying
/// a tree of Value nodes plus their string allocations per line.
///
/// The object is staged in a fixed buffer inside the writer and
/// appended to the caller's string once, by finish().  Each key is a
/// few stores of its Key's constant words; integers are rendered by
/// to_chars in place; string values are scanned for bytes that need
/// escaping and copied when they hold none.  A value that needs
/// escaping, or that does not fit in the buffer, flushes what is
/// staged and goes through dump()'s escaper straight into the string.
class ObjectWriter {
 public:
  /// `out` must outlive the writer; the object is appended to what it
  /// already holds.
  explicit ObjectWriter(std::string& out) noexcept : out_(out) {}
  ObjectWriter(const ObjectWriter&) = delete;
  ObjectWriter& operator=(const ObjectWriter&) = delete;

  ObjectWriter& field_bool(Key key, bool v) {
    static constexpr char kWords[2][8] = {"false", "true"};
    char* p = put_key(key, 8);
    std::memcpy(p, kWords[v], 8);
    pos_ = static_cast<std::size_t>(p - buf_) + (v ? 4 : 5);
    return *this;
  }

  /// Integer member, in exact decimal for every int64.  Within ±2^53
  /// that is byte-identical to dump()'s %.17g rendering of the same
  /// integral double; past it the double would round, the writer does
  /// not.
  ObjectWriter& field_int(Key key, std::int64_t v) {
    char* p = put_key(key, kIntRoom);
    pos_ = static_cast<std::size_t>(std::to_chars(p, p + kIntRoom, v).ptr - buf_);
    return *this;
  }

  ObjectWriter& field_str(Key key, std::string_view v) {
    char* p = put_key(key, 0);
    if (v.size() + 2 <= static_cast<std::size_t>(buf_ + kCapacity - p) && copy_clean(p + 1, v)) {
      *p = '"';
      p[v.size() + 1] = '"';
      pos_ = static_cast<std::size_t>(p - buf_) + v.size() + 2;
    } else {
      pos_ = static_cast<std::size_t>(p - buf_);
      put_escaped(v);
    }
    return *this;
  }

  /// Closes the object and appends it to the string.  No fields may
  /// follow.
  void finish() {
#ifndef NDEBUG
    assert(!finished_);
    finished_ = true;
#endif
    // The first member's key opened with a ',', where the '{' goes; an
    // empty object has no key.
    if (!flushed_) {
      buf_[0] = '{';
      if (pos_ == 0) pos_ = 1;
    }
    buf_[pos_] = '}';
    out_.append(buf_, pos_ + 1);
  }

 private:
  /// Staged bytes, one more holding '}'.  The longest decision line, a
  /// reweight answer with every integer 20 characters long, is about
  /// 310 bytes, so every line pfaird writes is appended whole.
  static constexpr std::size_t kCapacity = 480;
  static constexpr std::size_t kKeyRoom = Key::kMaxLength + 4;  ///< the most put() stores
  static constexpr std::size_t kIntRoom = 20;    ///< "-9223372036854775808"

  static constexpr std::uint64_t kOnes = 0x0101010101010101u;

  /// The high bit of each byte of `w` that is a '"', a '\\' or a
  /// control character, and maybe of bytes after one: a byte below 0x20
  /// borrows into its high bit when 0x20 is subtracted, and a byte equal
  /// to the one sought XORs to zero, which borrows likewise.  So the
  /// result is nonzero exactly when such a byte is present.
  [[nodiscard]] static constexpr std::uint64_t escape_flags(std::uint64_t w) noexcept {
    const std::uint64_t quote = w ^ (kOnes * '"');
    const std::uint64_t slash = w ^ (kOnes * '\\');
    return (((w - kOnes * 0x20) & ~w) | ((quote - kOnes) & ~quote) | ((slash - kOnes) & ~slash)) &
           (kOnes * 0x80);
  }

  /// Copies `v` to `p` a word at a time (the last word overlapping the
  /// one before it), with no library call for these short strings;
  /// true when no byte of `v` needs escaping.
  [[nodiscard]] static bool copy_clean(char* p, std::string_view v) noexcept {
    const char* s = v.data();
    const std::size_t n = v.size();
    std::uint64_t flags = 0;
    if (n >= 8) {
      const auto copy_word = [&](std::size_t i) {
        std::uint64_t w = 0;
        std::memcpy(&w, s + i, 8);
        std::memcpy(p + i, &w, 8);
        flags |= escape_flags(w);
      };
      for (std::size_t i = 0; i + 8 < n; i += 8) copy_word(i);
      copy_word(n - 8);
    } else if (n >= 4) {
      std::uint32_t head = 0;
      std::uint32_t tail = 0;
      std::memcpy(&head, s, 4);
      std::memcpy(&tail, s + n - 4, 4);
      std::memcpy(p, &head, 4);
      std::memcpy(p + n - 4, &tail, 4);
      flags = escape_flags(head | std::uint64_t{tail} << 32);
    } else {
      std::uint64_t w = kOnes * 'a';  // bytes that need no escape
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = s[i];
        w = w << 8 | static_cast<unsigned char>(s[i]);
      }
      flags = escape_flags(w);
    }
    return flags == 0;
  }

  /// Makes room for a key and `value_room` more bytes, flushing when
  /// they would not fit, and stores the key; the position past it.
  char* put_key(const Key& key, std::size_t value_room) {
#ifndef NDEBUG
    assert(!finished_);
    // Strictly ascending keys keep the output byte-identical to a
    // dump()ed std::map Object holding the same members.
    assert((pos_ == 0 && !flushed_) || last_key_ < key.name());
    last_key_.assign(key.name());
#endif
    if (pos_ + kKeyRoom + value_room > kCapacity) flush();
    return key.put(buf_ + pos_);
  }

  /// Appends the staged bytes to the string and empties the buffer.
  /// It runs only after a key is staged, so buf_[0] is the first
  /// member's ',' the first time.
  void flush();

  /// The string value through dump()'s escaper, after a flush.
  void put_escaped(std::string_view v);

  std::string& out_;
  std::size_t pos_ = 0;
  bool flushed_ = false;
#ifndef NDEBUG
  std::string last_key_;
  bool finished_ = false;
#endif
  // Left uninitialized: finish() and flush() append only bytes a field
  // stored, so clearing the buffer for every line would be wasted work.
  char buf_[kCapacity + 1];
};

}  // namespace pfair::obs::json
