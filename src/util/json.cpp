#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace sharedres::util {

namespace {

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

void expect_type(Json::Type have, Json::Type want) {
  if (have != want) {
    fail(std::string("Json: expected ") + type_name(want) + ", have " +
         type_name(have));
  }
}

void dump_number(double v, std::string& out) {
  if (!std::isfinite(v)) fail("Json: cannot serialize NaN/Inf");
  // Integral values within the exact-double range print without a fraction
  // so counters (threads, reps, makespans) stay integers on disk.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) {
      out += probe;
      return;
    }
  }
  out += buf;
}

template <typename Int>
void append_int(std::string& out, Int v) {
  // Json holds every number as a double, so beyond 2^53 an integer prints
  // as the double it rounds to.
  constexpr Int kExact = Int{1} << 53;
  bool exact = v < kExact;
  if constexpr (std::is_signed_v<Int>) exact = exact && v > -kExact;
  if (!exact) {
    dump_number(static_cast<double>(v), out);
    return;
  }
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) err("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void err(const std::string& what) const {
    fail("Json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) err("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) err(std::string("expected '") + c + "'");
  }

  bool consume_word(const char* w) {
    std::size_t i = 0;
    while (w[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != w[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_word("true")) return Json(true);
        err("invalid literal");
      case 'f':
        if (consume_word("false")) return Json(false);
        err("invalid literal");
      case 'n':
        if (consume_word("null")) return Json(nullptr);
        err("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    for (;;) {
      skip_ws();
      if (peek() != '"') err("expected object key");
      std::string key = parse_string();
      for (const auto& [existing, unused] : obj) {
        if (existing == key) err("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) err("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) err("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              err("invalid \\u escape");
          }
          // Encode the code point as UTF-8 (BMP only — the harness never
          // emits surrogate pairs).
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
        default: err("invalid escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) err("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) err("invalid number");
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void dump_value(const Json& v, int indent, int depth, std::string& out);

void newline_indent(int indent, int depth, std::string& out) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

void dump_value(const Json& v, int indent, int depth, std::string& out) {
  switch (v.type()) {
    case Json::Type::kNull: out += "null"; return;
    case Json::Type::kBool: out += v.as_bool() ? "true" : "false"; return;
    case Json::Type::kNumber: dump_number(v.as_double(), out); return;
    case Json::Type::kString: append_json_string(out, v.as_string()); return;
    case Json::Type::kArray: {
      const auto& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(indent, depth + 1, out);
        dump_value(arr[i], indent, depth + 1, out);
      }
      newline_indent(indent, depth, out);
      out += ']';
      return;
    }
    case Json::Type::kObject: {
      const auto& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(indent, depth + 1, out);
        append_json_string(out, obj[i].first);
        out += indent < 0 ? ":" : ": ";
        dump_value(obj[i].second, indent, depth + 1, out);
      }
      newline_indent(indent, depth, out);
      out += '}';
      return;
    }
  }
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  const char* run = s.data();
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(run, p);
    run = p + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(run, end);  // UTF-8 bytes pass through unescaped
  out += '"';
}

void append_json_int(std::string& out, std::int64_t v) { append_int(out, v); }

void append_json_int(std::string& out, std::uint64_t v) { append_int(out, v); }

bool Json::as_bool() const {
  expect_type(type_, Type::kBool);
  return bool_;
}

double Json::as_double() const {
  expect_type(type_, Type::kNumber);
  return num_;
}

const std::string& Json::as_string() const {
  expect_type(type_, Type::kString);
  return str_;
}

const Json::Array& Json::as_array() const {
  expect_type(type_, Type::kArray);
  return arr_;
}

const Json::Object& Json::as_object() const {
  expect_type(type_, Type::kObject);
  return obj_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  return 0;
}

bool Json::contains(const std::string& key) const {
  if (type_ != Type::kObject) return false;
  for (const auto& [k, unused] : obj_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  expect_type(type_, Type::kObject);
  for (const auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  fail("Json: missing key \"" + key + "\"");
}

const Json& Json::at(std::size_t index) const {
  expect_type(type_, Type::kArray);
  if (index >= arr_.size()) fail("Json: array index out of range");
  return arr_[index];
}

void Json::push_back(Json value) {
  expect_type(type_, Type::kArray);
  arr_.push_back(std::move(value));
}

void Json::emplace(std::string key, Json value) {
  expect_type(type_, Type::kObject);
  obj_.emplace_back(std::move(key), std::move(value));
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return num_ == other.num_;
    case Type::kString: return str_ == other.str_;
    case Type::kArray: return arr_ == other.arr_;
    case Type::kObject: return obj_ == other.obj_;
  }
  return false;
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

Json Json::parse(const std::string& text) { return Parser(text).run(); }

}  // namespace sharedres::util
