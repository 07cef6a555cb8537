// The benchmark's own JSON writer and a strict validator for its
// self-tests. Every string goes through one escaping path and no output
// is formatted into a fixed buffer, so arbitrary stage names, error
// messages and metric values always produce well-formed JSON.
#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Appends `s` to `out` as a quoted JSON string (RFC 8259 escaping;
/// bytes >= 0x80 are passed through, so valid UTF-8 stays valid).
void AppendJsonString(std::string* out, std::string_view s);

/// `s` as a quoted JSON string.
inline std::string JsonQuote(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

/// Formats a finite double with round-trip precision; non-finite values
/// (which JSON cannot express) become null.
std::string JsonNumber(double v);

/// Streaming writer with automatic comma placement:
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("name"); w.String("x\"y");
///   w.Key("n");    w.Number(1.5);
///   w.EndObject();
///   w.str();  // {"name":"x\"y","n":1.5}
class JsonWriter {
 public:
  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }
  void Key(std::string_view key);
  void String(std::string_view s);
  void Number(double v);
  void Int(int64_t v);
  void Uint(uint64_t v);
  void Bool(bool b);
  void Null();

  const std::string& str() const { return out_; }

 private:
  void Separate();
  void Open(char c);
  void Close(char c);

  std::string out_;
  std::vector<bool> has_item_;  // per open container
  bool after_key_ = false;
};

/// Strict RFC 8259 validation of one JSON text (no trailing garbage, no
/// NaN, no unescaped control bytes, valid escapes). Returns true when
/// valid; otherwise fills `error` with the offset and reason.
bool ValidateJson(std::string_view text, std::string* error);

/// Metric names: start with a letter or digit, then at most 63 more of
/// [A-Za-z0-9_.-].
bool ValidMetricName(std::string_view name);

/// Metric units: 1-16 of [A-Za-z0-9_/%.-].
bool ValidMetricUnit(std::string_view unit);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
