// Self-tests of the benchmark's own code: the JSON writer against a
// strict parse (adversarial strings included), the metric name and unit
// rules, the samples-beyond-a-percentile rule, failure accounting for
// injected mismatches, and span self time. Exits non-zero when any check
// fails; run through `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"
#include "json.h"
#include "rdf/term.h"
#include "reference.h"
#include "store/kgstore.h"

namespace {

using namespace perfbench;

int failures = 0;

/// 3000 bytes ending in a quote: longer than StageMetrics::ToJson's buffer.
std::string LongString() {
  std::string s(3000, 'x');
  s.push_back('"');
  return s;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what);
  }
}

void TestJsonWriter() {
  const std::vector<std::string> names = {
      "plain",
      "bad\"name",
      "back\\slash",
      "ctl\x01\x1f\x7f",
      "tab\tnl\nret\r",
      "utf8 \xc3\xa9\xe2\x82\xac",
      LongString(),  // longer than any fixed buffer
      std::string("nul\0inside", 10),
  };
  JsonWriter w;
  w.BeginObject();
  w.Key("stages");
  w.BeginArray();
  for (const std::string& n : names) {
    w.BeginObject();
    w.Key(n);
    w.String(n);
    w.Key("nan");
    w.Number(std::numeric_limits<double>::quiet_NaN());
    w.Key("inf");
    w.Number(std::numeric_limits<double>::infinity());
    w.Key("tiny");
    w.Number(5e-324);
    w.Key("neg");
    w.Int(-7);
    w.Key("empty");
    w.BeginArray();
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string error;
  Check(ValidateJson(w.str(), &error), "writer output parses strictly");
  if (!error.empty()) std::printf("  %s\n", error.c_str());
  Check(w.str().find(std::string(3000, 'x')) != std::string::npos,
        "long strings are not truncated");

  // The validator itself must reject what a strict parser rejects.
  for (const char* bad :
       {"{\"a\":1,}", "[1,2", "{\"a\" 1}", "\"ctl\x01\"", "NaN", "[01]",
        "{\"a\":1} x", "\"bad \\q escape\"", "[1.]", "{'a':1}", ""}) {
    Check(!ValidateJson(bad, nullptr), "validator rejects malformed JSON");
  }
  Check(JsonNumber(0.1) == "0.1", "shortest round-trip number");
  Check(std::stod(JsonNumber(1.0 / 3.0)) == 1.0 / 3.0, "numbers round-trip");
}

void TestNames() {
  for (const char* good : {"setup_s", "e2e_p99_ms", "stream.blocked_producer_s.keyed.cep",
                           "9lives", "a-b_c.d"}) {
    Check(ValidMetricName(good), "valid metric name accepted");
  }
  for (const std::string& bad :
       {std::string(""), std::string("_lead"), std::string(".lead"),
        std::string("has space"), std::string("quote\""),
        std::string("slash/x"), std::string(65, 'a')}) {
    Check(!ValidMetricName(bad), "invalid metric name rejected");
  }
  Check(ValidMetricName(std::string(64, 'a')), "64-character name accepted");
  for (const char* good : {"ms", "s", "1/s", "count", "records/s", "%", "MB"}) {
    Check(ValidMetricUnit(good), "valid unit accepted");
  }
  for (const char* bad : {"", "has space", "abcdefghijklmnopq", "u\"nit"}) {
    Check(!ValidMetricUnit(bad), "invalid unit rejected");
  }
}

void TestSamplesBeyond() {
  Check(!SupportsQuantile(999, 0.99), "999 samples do not support p99");
  Check(SupportsQuantile(1000, 0.99), "1000 samples support p99");
  Check(!SupportsQuantile(9999, 0.999), "9999 samples do not support p999");
  Check(SupportsQuantile(10000, 0.999), "10000 samples support p999");
  Check(SupportsQuantile(20, 0.5) && !SupportsQuantile(19, 0.5),
        "median needs 20 samples");
}

void TestAccounting() {
  // One changed element, then one missing: two failures of four expected.
  Accounting acct;
  const std::vector<int> want = {1, 2, 3, 4};
  CompareSequence("seq", std::vector<int>{1, 9, 3}, want,
                  [](int a, int b) { return a == b; }, &acct);
  Check(acct.attempted() == 4 && acct.failed() == 2,
        "changed and missing elements each count one failure");
  Check(std::abs(acct.ErrorRate() - 0.5) < 1e-12, "error_rate = failed/attempted");
  CompareSequence("seq", std::vector<int>{1, 2, 3, 4, 5, 6}, want,
                  [](int a, int b) { return a == b; }, &acct);
  Check(acct.failed() == 4, "extra elements count as failures");

  // Knowledge stores: one injected wrong triple is one missing plus one
  // unexpected triple, whatever the dictionary ids.
  const tcmf::geom::StCellEncoder enc({-10, 34, 10, 45}, 10, 0, 900000);
  tcmf::store::KnowledgeStore want_store(enc), got_store(enc), same(enc);
  const auto iri = [](const std::string& s) { return tcmf::rdf::Iri(s); };
  const auto subject = [](int i) { return tcmf::rdf::Iri(std::to_string(i)); };
  for (int i = 0; i < 5; ++i) {
    want_store.Add({subject(i), iri("p"), iri("o")});
    same.Add({subject(4 - i), iri("p"), iri("o")});
    got_store.Add({subject(i), iri("p"), iri(i == 3 ? "wrong" : "o")});
  }
  want_store.Compile();
  got_store.Compile();
  same.Compile();
  Accounting stores;
  CompareStores("store", same, want_store, &stores);
  Check(stores.failed() == 0, "same triples in another order match");
  CompareStores("store", got_store, want_store, &stores);
  Check(stores.attempted() == 10 && stores.failed() == 2,
        "an injected wrong triple is caught");
}

void TestSelfTime() {
  // Root [0,100) with children [10,30), [20,50) and [70,80): they cover
  // 50 us of it, so its self time is 50.
  const std::vector<Span> spans = {
      {"record", nullptr, 7, 0, 100, 0},
      {"a", "record", 7, 10, 30, 0},
      {"b", "record", 7, 20, 50, 0},
      {"c", "record", 7, 70, 80, 0},
  };
  const auto self = SelfTimesUs(spans);
  Check(self.at("record").front() == 50.0, "self time subtracts covered union");
  Check(self.at("a").front() == 20.0, "leaf self time is its duration");
  const auto gaps = GapsUs(spans);
  Check(gaps.size() == 2 && gaps[1] == 20.0, "gaps between child spans");
}

}  // namespace

int main() {
  TestJsonWriter();
  TestNames();
  TestSamplesBeyond();
  TestAccounting();
  TestSelfTime();
  std::printf("%s: %d failed check(s)\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
