#include "util/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace farmer {
namespace json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(Value* out) {
    SkipSpace();
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();  // No trailing garbage.
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return false;
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case 'n':
        out->type = Value::Type::kNull;
        return Literal("null");
      case 't':
        out->type = Value::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = Value::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case '"':
        out->type = Value::Type::kString;
        return ParseString(&out->string);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        out->type = Value::Type::kNumber;
        return ParseNumber(&out->number);
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return false;
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_ + k];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogates rejected: no
          // producer in this project emits them).
          if (code >= 0xD800 && code <= 0xDFFF) return false;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // Unterminated.
  }

  bool ParseNumber(double* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    return errno == 0 && end == token.c_str() + token.size() &&
           std::isfinite(*out);
  }

  bool ParseArray(Value* out, int depth) {
    out->type = Value::Type::kArray;
    ++pos_;  // '['.
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value element;
      SkipSpace();
      if (!ParseValue(&element, depth + 1)) return false;
      out->array.push_back(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool ParseObject(Value* out, int depth) {
    out->type = Value::Type::kObject;
    ++pos_;  // '{'.
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return false;
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipSpace();
      Value value;
      if (!ParseValue(&value, depth + 1)) return false;
      if (!out->object.emplace(std::move(key), std::move(value)).second) {
        return false;  // Duplicate key.
      }
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::Find(std::string_view key) const {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

bool Parse(std::string_view text, Value* out) {
  return Parser(text).Parse(out);
}

}  // namespace json
}  // namespace farmer
