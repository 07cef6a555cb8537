#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

void AppendJsonString(std::string* out, std::string_view s) {
  static const char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (u < 0x20 || u == 0x7f) {
          *out += "\\u00";
          out->push_back(kHex[u >> 4]);
          out->push_back(kHex[u & 0xf]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // The shortest %g form that reads back as the same double. snprintf
  // is sized by a first call: no fixed-size buffer to truncate into.
  std::string s;
  for (int precision = 15; precision <= 17; ++precision) {
    const int n = std::snprintf(nullptr, 0, "%.*g", precision, v);
    s.assign(static_cast<size_t>(n), '\0');
    std::snprintf(s.data(), s.size() + 1, "%.*g", precision, v);
    if (std::strtod(s.c_str(), nullptr) == v) break;
  }
  return s;
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) out_.push_back(',');
    has_item_.back() = true;
  }
}

void JsonWriter::Open(char c) {
  Separate();
  out_.push_back(c);
  has_item_.push_back(false);
}

void JsonWriter::Close(char c) {
  out_.push_back(c);
  if (!has_item_.empty()) has_item_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  AppendJsonString(&out_, key);
  out_.push_back(':');
  after_key_ = true;
}

void JsonWriter::String(std::string_view s) {
  Separate();
  AppendJsonString(&out_, s);
}

void JsonWriter::Number(double v) {
  Separate();
  out_ += JsonNumber(v);
}

void JsonWriter::Int(int64_t v) {
  Separate();
  out_ += std::to_string(v);
}

void JsonWriter::Uint(uint64_t v) {
  Separate();
  out_ += std::to_string(v);
}

void JsonWriter::Bool(bool b) {
  Separate();
  out_ += b ? "true" : "false";
}

void JsonWriter::Null() {
  Separate();
  out_ += "null";
}

namespace {

class Validator {
 public:
  explicit Validator(std::string_view s) : s_(s) {}

  bool Run(std::string* error) {
    SkipWs();
    if (!Value(0)) return Fail(error);
    SkipWs();
    if (pos_ != s_.size()) {
      why_ = "trailing characters";
      return Fail(error);
    }
    return true;
  }

 private:
  bool Fail(std::string* error) {
    if (error) *error = "offset " + std::to_string(pos_) + ": " + why_;
    return false;
  }
  bool Err(const char* why) {
    why_ = why;
    return false;
  }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return Err("bad literal");
    pos_ += lit.size();
    return true;
  }
  bool Value(int depth) {
    if (depth > 256) return Err("nesting too deep");
    if (pos_ >= s_.size()) return Err("unexpected end");
    switch (s_[pos_]) {
      case '{': return Object(depth);
      case '[': return Array(depth);
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object(int depth) {
    ++pos_;
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Err("expected key");
      if (!String()) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Err("expected ':'");
      ++pos_;
      SkipWs();
      if (!Value(depth + 1)) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Err("expected ',' or '}'");
    }
  }
  bool Array(int depth) {
    ++pos_;
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value(depth + 1)) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Err("expected ',' or ']'");
    }
  }
  static bool IsHex(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
           (c >= 'A' && c <= 'F');
  }
  bool String() {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return Err("unescaped control character");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return Err("unterminated escape");
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= s_.size() || !IsHex(s_[pos_ + i])) {
              return Err("bad \\u escape");
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return Err("bad escape");
        }
      }
      ++pos_;
    }
    return Err("unterminated string");
  }
  bool Digits() {
    const size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }
  bool Number() {
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ >= s_.size()) return Err("bad number");
    if (s_[pos_] == '0') {
      ++pos_;
    } else if (!Digits()) {
      return Err("bad number");
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!Digits()) return Err("bad fraction");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!Digits()) return Err("bad exponent");
    }
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
  const char* why_ = "";
};

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool ValidateJson(std::string_view text, std::string* error) {
  return Validator(text).Run(error);
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name[0];
  if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
        (c0 >= '0' && c0 <= '9'))) {
    return false;
  }
  for (const char c : name) {
    if (!IsNameChar(c)) return false;
  }
  return true;
}

bool ValidMetricUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    if (!(IsNameChar(c) || c == '/' || c == '%')) return false;
  }
  return true;
}

}  // namespace perfbench
