#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.h"

namespace kf::obs {

namespace {

const char* TypeName(Json::Type type) {
  switch (type) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through unchanged
        }
    }
  }
  out += '"';
}

void AppendNumber(std::string& out, double value) {
  // Integral values in the exactly-representable double range print as
  // integers so counters round-trip byte-identically in baselines.
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    out += buf;
    return;
  }
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no Inf/NaN; null keeps the document valid
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) {
      out += shorter;
      return;
    }
  }
  out += buf;
}

// Deepest array/object nesting Parse accepts. The repo's own documents
// nest at most 5 levels.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json ParseDocument() {
    Json value = ParseValue();
    SkipWhitespace();
    KF_REQUIRE_AS(::kf::InvalidArgument, pos_ == text_.size())
        << "trailing characters after JSON document at offset " << pos_;
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    KF_REQUIRE_AS(::kf::InvalidArgument, pos_ < text_.size())
        << "unexpected end of JSON at offset " << pos_;
    return text_[pos_];
  }

  void Expect(char c) {
    KF_REQUIRE_AS(::kf::InvalidArgument, Peek() == c)
        << "expected '" << c << "' at offset " << pos_ << ", found '" << text_[pos_]
        << "'";
    ++pos_;
  }

  bool ConsumeLiteral(const char* literal) {
    std::size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json ParseValue() {
    SkipWhitespace();
    const char c = Peek();
    switch (c) {
      case '{':
      case '[': {
        // Bounded recursion: a hostile file cannot overflow the stack.
        KF_REQUIRE_AS(::kf::InvalidArgument, depth_ < kMaxDepth)
            << "JSON nests deeper than " << kMaxDepth << " levels at offset " << pos_;
        ++depth_;
        Json nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': return Json(ParseString());
      case 't':
        KF_REQUIRE_AS(::kf::InvalidArgument, ConsumeLiteral("true"))
            << "bad literal at offset " << pos_;
        return Json(true);
      case 'f':
        KF_REQUIRE_AS(::kf::InvalidArgument, ConsumeLiteral("false"))
            << "bad literal at offset " << pos_;
        return Json(false);
      case 'n':
        KF_REQUIRE_AS(::kf::InvalidArgument, ConsumeLiteral("null"))
            << "bad literal at offset " << pos_;
        return Json();
      default:
        return ParseNumber();
    }
  }

  Json ParseObject() {
    Expect('{');
    Json::Object object;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      object[std::move(key)] = ParseValue();
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return Json(std::move(object));
    }
  }

  Json ParseArray() {
    Expect('[');
    Json::Array array;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return Json(std::move(array));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      KF_REQUIRE_AS(::kf::InvalidArgument, pos_ < text_.size())
          << "unterminated string at offset " << pos_;
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      KF_REQUIRE_AS(::kf::InvalidArgument, pos_ < text_.size())
          << "unterminated escape at offset " << pos_;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          KF_REQUIRE_AS(::kf::InvalidArgument, pos_ + 4 <= text_.size())
              << "truncated \\u escape at offset " << pos_;
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
              KF_FAIL_AS(::kf::InvalidArgument)
                  << "bad hex digit in \\u escape at offset " << pos_;
            }
          }
          // UTF-8 encode the code point (BMP only; surrogate pairs are not
          // produced by our own writer).
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
        default:
          KF_FAIL_AS(::kf::InvalidArgument)
              << "bad escape '\\" << esc << "' at offset " << pos_;
      }
    }
  }

  Json ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    KF_REQUIRE_AS(::kf::InvalidArgument, pos_ > start)
        << "expected a JSON value at offset " << start;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    KF_REQUIRE_AS(::kf::InvalidArgument, end != nullptr && *end == '\0')
        << "malformed number '" << token << "' at offset " << start;
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

bool Json::bool_value() const {
  KF_REQUIRE(is_bool()) << "JSON value is " << TypeName(type_) << ", not bool";
  return bool_;
}

double Json::number() const {
  KF_REQUIRE(is_number()) << "JSON value is " << TypeName(type_) << ", not number";
  return number_;
}

const std::string& Json::str() const {
  KF_REQUIRE(is_string()) << "JSON value is " << TypeName(type_) << ", not string";
  return string_;
}

const Json::Array& Json::array() const {
  KF_REQUIRE(is_array()) << "JSON value is " << TypeName(type_) << ", not array";
  return array_;
}

Json::Array& Json::array() {
  KF_REQUIRE(is_array()) << "JSON value is " << TypeName(type_) << ", not array";
  return array_;
}

const Json::Object& Json::object() const {
  KF_REQUIRE(is_object()) << "JSON value is " << TypeName(type_) << ", not object";
  return object_;
}

Json::Object& Json::object() {
  KF_REQUIRE(is_object()) << "JSON value is " << TypeName(type_) << ", not object";
  return object_;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) type_ = Type::kObject;  // auto-vivify like map::operator[]
  KF_REQUIRE(is_object()) << "JSON value is " << TypeName(type_) << ", not object";
  return object_[key];
}

const Json& Json::at(const std::string& key) const {
  const Json* found = Find(key);
  KF_REQUIRE(found != nullptr) << "JSON object has no key '" << key << "'";
  return *found;
}

const Json* Json::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const Json& Json::at(std::size_t index) const {
  KF_REQUIRE(is_array()) << "JSON value is " << TypeName(type_) << ", not array";
  KF_REQUIRE(index < array_.size())
      << "JSON array index " << index << " out of range (size " << array_.size() << ")";
  return array_[index];
}

void Json::push_back(Json value) {
  if (is_null()) type_ = Type::kArray;
  KF_REQUIRE(is_array()) << "JSON value is " << TypeName(type_) << ", not array";
  array_.push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  KF_REQUIRE(false) << "size() on scalar JSON value (" << TypeName(type_) << ")";
  return 0;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  auto newline = [&](int level) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: AppendNumber(out, number_); break;
    case Type::kString: AppendEscaped(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        AppendEscaped(out, key);
        out += pretty ? ": " : ":";
        value.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  if (indent >= 0) out += '\n';
  return out;
}

Json Json::Parse(const std::string& text) { return Parser(text).ParseDocument(); }

}  // namespace kf::obs
