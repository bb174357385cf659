#include "obs/json.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>

namespace csaw::obs::minijson {

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
             << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::uint64_t Json::u64_or(std::string_view key, std::uint64_t def) const {
  const Json* v = find(key);
  if (v == nullptr || v->type != Type::kNumber) return def;
  return v->integral ? v->uint_value
                     : static_cast<std::uint64_t>(std::llround(v->number));
}

double Json::num_or(std::string_view key, double def) const {
  const Json* v = find(key);
  return (v != nullptr && v->type == Type::kNumber) ? v->number : def;
}

std::string_view Json::str_or(std::string_view key,
                              std::string_view def) const {
  const Json* v = find(key);
  return (v != nullptr && v->type == Type::kString) ? std::string_view(v->str)
                                                    : def;
}

namespace {

// Propagate-or-assign for Result<T> inside this file.
#define CSAW_TRY_ASSIGN(dst, expr)                     \
  do {                                                 \
    auto csaw_try_r_ = (expr);                         \
    if (!csaw_try_r_.ok()) return csaw_try_r_.error(); \
    (dst) = std::move(csaw_try_r_).value();            \
  } while (false)

class JsonParser {
 public:
  explicit JsonParser(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  Result<Json> parse() {
    Json v;
    CSAW_TRY_ASSIGN(v, value());
    skip_ws();
    if (p_ != end_) return fail("trailing bytes after JSON value");
    return v;
  }

 private:
  Error fail(const std::string& what) const {
    return make_error(
        Errc::kDecode,
        "json: " + what + " at offset " +
            std::to_string(static_cast<std::size_t>(p_ - begin_)));
  }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }

  bool consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  Result<Json> value() {
    skip_ws();
    if (p_ == end_) return fail("unexpected end of input");
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
      case 'f': return boolean();
      case 'n': return null_value();
      default: return number();
    }
  }

  Result<Json> object() {
    ++p_;  // '{'
    Json v;
    v.type = Json::Type::kObject;
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      Json key;
      CSAW_TRY_ASSIGN(key, string_value());
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      Json val;
      CSAW_TRY_ASSIGN(val, value());
      v.fields.emplace_back(std::move(key.str), std::move(val));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return v;
      return fail("expected ',' or '}' in object");
    }
  }

  Result<Json> array() {
    ++p_;  // '['
    Json v;
    v.type = Json::Type::kArray;
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      Json item;
      CSAW_TRY_ASSIGN(item, value());
      v.items.push_back(std::move(item));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return v;
      return fail("expected ',' or ']' in array");
    }
  }

  Result<Json> string_value() {
    if (p_ == end_ || *p_ != '"') return fail("expected string");
    ++p_;
    Json v;
    v.type = Json::Type::kString;
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        v.str.push_back(c);
        continue;
      }
      if (p_ == end_) return fail("unterminated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': v.str.push_back('"'); break;
        case '\\': v.str.push_back('\\'); break;
        case '/': v.str.push_back('/'); break;
        case 'b': v.str.push_back('\b'); break;
        case 'f': v.str.push_back('\f'); break;
        case 'n': v.str.push_back('\n'); break;
        case 'r': v.str.push_back('\r'); break;
        case 't': v.str.push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writers; pass them through as-is).
          if (code < 0x80) {
            v.str.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            v.str.push_back(static_cast<char>(0xc0 | (code >> 6)));
            v.str.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            v.str.push_back(static_cast<char>(0xe0 | (code >> 12)));
            v.str.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            v.str.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    if (!consume('"')) return fail("unterminated string");
    return v;
  }

  Result<Json> boolean() {
    Json v;
    v.type = Json::Type::kBool;
    if (end_ - p_ >= 4 && std::string_view(p_, 4) == "true") {
      v.boolean = true;
      p_ += 4;
      return v;
    }
    if (end_ - p_ >= 5 && std::string_view(p_, 5) == "false") {
      v.boolean = false;
      p_ += 5;
      return v;
    }
    return fail("expected boolean");
  }

  Result<Json> null_value() {
    if (end_ - p_ >= 4 && std::string_view(p_, 4) == "null") {
      p_ += 4;
      return Json{};
    }
    return fail("expected null");
  }

  Result<Json> number() {
    const char* start = p_;
    bool negative = false;
    if (consume('-')) negative = true;
    std::uint64_t mag = 0;
    bool overflow = false;
    bool any_digit = false;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') {
      any_digit = true;
      const std::uint64_t digit = static_cast<std::uint64_t>(*p_ - '0');
      if (mag > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        overflow = true;
      } else {
        mag = mag * 10 + digit;
      }
      ++p_;
    }
    if (!any_digit) return fail("expected number");
    bool fractional = false;
    if (p_ != end_ && *p_ == '.') {
      fractional = true;
      ++p_;
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      fractional = true;
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::strtod(std::string(start, p_).c_str(), nullptr);
    v.integral = !negative && !fractional && !overflow;
    v.uint_value = v.integral ? mag : 0;
    return v;
  }

  const char* begin_;
  const char* p_;
  const char* end_;
};

#undef CSAW_TRY_ASSIGN

}  // namespace

Result<Json> parse(std::string_view text) { return JsonParser(text).parse(); }

}  // namespace csaw::obs::minijson
