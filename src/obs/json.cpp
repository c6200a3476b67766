#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pfair::obs::json {

bool Reader::read_escaped(std::size_t start, std::size_t i) {
  scratch_.assign(s_.data() + start, i - start);
  while (i < s_.size()) {
    const char c = s_[i++];
    if (c == '"') {
      str_ = scratch_;
      pos_ = i;
      return true;
    }
    if (c != '\\') {
      scratch_ += c;
      continue;
    }
    if (i >= s_.size()) break;
    switch (s_[i++]) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': {
        if (i + 4 > s_.size()) return fail();
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = s_[i++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return fail();
        }
        // UTF-8 encode (surrogate pairs unsupported: our writers only
        // escape control characters, all below U+0800).
        if (code < 0x80) {
          scratch_ += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch_ += static_cast<char>(0xc0 | (code >> 6));
          scratch_ += static_cast<char>(0x80 | (code & 0x3f));
        } else {
          scratch_ += static_cast<char>(0xe0 | (code >> 12));
          scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
          scratch_ += static_cast<char>(0x80 | (code & 0x3f));
        }
        break;
      }
      default: return fail();
    }
  }
  return fail();  // unterminated
}

Reader::Token Reader::read_literal() {
  for (const auto& [word, t] : {std::pair{std::string_view("true"), Token::kTrue},
                                {std::string_view("false"), Token::kFalse},
                                {std::string_view("null"), Token::kNull}}) {
    if (s_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return t;
    }
  }
  return error();
}

Reader::Token Reader::read_number_strtod(std::size_t start) {
  const std::string token(s_.substr(start, pos_ - start));  // strtod wants a terminator
  char* end = nullptr;
  num_ = std::strtod(token.c_str(), &end);
  return !token.empty() && end == token.c_str() + token.size() ? Token::kNumber : error();
}

void Reader::skip_children(Token t) {
  if (t == Token::kObject) {
    for (std::string_view key; next_member(&key);) skip(value());
  } else {
    while (next_element()) skip(value());
  }
}

void write_string(std::string& out, std::string_view s) {
  out += '"';
  // Append maximal clean runs in bulk; escapes are rare in practice.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void write_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

namespace {

/// The tree under the token value() just returned; what it holds after
/// a syntax error does not matter, since parse() then drops it.
Value build(Reader& r, Reader::Token t) {
  switch (t) {
    case Reader::Token::kError:
    case Reader::Token::kNull: return Value();
    case Reader::Token::kFalse: return Value(false);
    case Reader::Token::kTrue: return Value(true);
    case Reader::Token::kNumber: return Value(r.number());
    case Reader::Token::kString: return Value(std::string(r.string()));
    case Reader::Token::kObject: {
      Object out;
      for (std::string_view key; r.next_member(&key);) {
        std::string k(key);  // before value() overwrites the view
        out.insert_or_assign(std::move(k), build(r, r.value()));
      }
      return Value(std::move(out));
    }
    case Reader::Token::kArray: {
      Array out;
      while (r.next_element()) out.push_back(build(r, r.value()));
      return Value(std::move(out));
    }
  }
  return Value();
}

void dump_value(std::string& out, const Value& v) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    write_number(out, v.as_number());
  } else if (v.is_string()) {
    write_string(out, v.as_string());
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const Value& e : v.as_array()) {
      if (!first) out += ',';
      first = false;
      dump_value(out, e);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [k, e] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      write_string(out, k);
      out += ':';
      dump_value(out, e);
    }
    out += '}';
  }
}

}  // namespace

std::string Value::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

std::optional<Value> parse(std::string_view text) {
  Reader r(text);
  Value v = build(r, r.value());
  if (!r.finish()) return std::nullopt;
  return v;
}

void ObjectWriter::flush() {
  if (!flushed_) buf_[0] = '{';
  flushed_ = true;
  out_.append(buf_, pos_);
  pos_ = 0;
}

void ObjectWriter::put_escaped(std::string_view v) {
  flush();
  write_string(out_, v);
}

}  // namespace pfair::obs::json
