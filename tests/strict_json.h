#ifndef TCMF_TESTS_STRICT_JSON_H_
#define TCMF_TESTS_STRICT_JSON_H_

#include <cctype>
#include <string>

namespace tcmf::testing {

/// Strict RFC 8259 validator for the JSON the library writes (reports,
/// metrics): one value, no trailing bytes, no NaN/Infinity, no raw
/// control characters in strings, only the standard escapes. Returns ""
/// when `text` is valid, else a message naming the byte offset.
class StrictJson {
 public:
  static std::string Check(const std::string& text) {
    StrictJson p(text);
    p.Ws();
    if (!p.Value()) return p.Error();
    p.Ws();
    if (p.i_ != text.size()) {
      p.Fail("trailing bytes");
      return p.Error();
    }
    return "";
  }

 private:
  explicit StrictJson(const std::string& s) : s_(s) {}

  bool Fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }
  std::string Error() const {
    return error_ + " at byte " + std::to_string(i_);
  }
  bool At(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool Literal(const char* word) {
    for (const char* c = word; *c; ++c, ++i_) {
      if (!At(*c)) return Fail("bad literal");
    }
    return true;
  }
  bool Digits() {
    if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      return Fail("expected digit");
    }
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return true;
  }
  bool Number() {
    if (At('-')) ++i_;
    if (At('0')) {
      ++i_;
    } else if (!Digits()) {
      return false;
    }
    if (At('.')) {
      ++i_;
      if (!Digits()) return false;
    }
    if (At('e') || At('E')) {
      ++i_;
      if (At('+') || At('-')) ++i_;
      if (!Digits()) return false;
    }
    return true;
  }
  bool String() {
    ++i_;  // opening quote
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return Fail("raw control byte in string");
      if (c != '\\') continue;
      if (i_ >= s_.size()) break;
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k, ++i_) {
          if (i_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
            return Fail("bad \\u escape");
          }
        }
      } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
        return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }
  bool Members(char close, bool keyed) {
    ++i_;  // opening bracket
    Ws();
    if (At(close)) {
      ++i_;
      return true;
    }
    while (true) {
      Ws();
      if (keyed) {
        if (!At('"')) return Fail("expected key");
        if (!String()) return false;
        Ws();
        if (!At(':')) return Fail("expected ':'");
        ++i_;
        Ws();
      }
      if (!Value()) return false;
      Ws();
      if (At(',')) {
        ++i_;
        continue;
      }
      if (At(close)) {
        ++i_;
        return true;
      }
      return Fail("expected ',' or closing bracket");
    }
  }
  bool Value() {
    if (i_ >= s_.size()) return Fail("unexpected end");
    switch (s_[i_]) {
      case '{': return Members('}', true);
      case '[': return Members(']', false);
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  const std::string& s_;
  size_t i_ = 0;
  std::string error_;
};

}  // namespace tcmf::testing

#endif  // TCMF_TESTS_STRICT_JSON_H_
