// Shared pieces of the Figure-2 benchmark: run options, the metric and
// result records, the seeded input feed, span tracing, and the
// bookkeeping for failed operations.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/position.h"
#include "scenario/histogram.h"
#include "stream/record.h"

namespace perfbench {

using tcmf::Position;
using tcmf::TimeMs;

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where scratch topics and trace files go (inside the checkout).
  std::string work_dir = ".bench_out";
};

inline int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowS() { return static_cast<double>(NowUs()) / 1e6; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Failed-operation accounting. Every operation the run attempts (an
/// append, a result the reference expects, a query) counts once in
/// `attempted`; each failure (append error, gap, duplicate, missing or
/// extra result, wrong query answer) counts once in `failed`.
class Accounting {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what, uint64_t n = 1);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double ErrorRate() const {
    return attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0;
  }
  /// The first few failure descriptions, for the log.
  const std::vector<std::string>& examples() const { return examples_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> examples_;
};

/// What one workload run reports. `e2e` is printed with --trace 0,
/// `layers` with --trace 1; `env` is the environment and validity record
/// printed on its own line before the result.
struct RunResult {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  /// Issue-level names of the end-to-end metrics (e.g. drain_rps), printed
  /// as human-readable lines.
  std::vector<Metric> named;
  Accounting acct;
  std::vector<std::pair<std::string, std::string>> env;  // key, JSON value
  bool valid = true;
  std::string invalid_reason;
};

// ---------------------------------------------------------------------
// Input feed.

enum class Source : uint8_t { kAis, kAdsb, kWeather };

/// One input event in compact form. Positions are kept as Position (the
/// log record is rebuilt at append time); weather cells keep their
/// record in Feed::weather.
struct Input {
  uint64_t key = 0;
  Position pos;
  Source source = Source::kAis;
  uint32_t weather_index = 0;
};

struct Feed {
  std::vector<Input> inputs;
  std::vector<tcmf::stream::Record> weather;
  size_t positions = 0;
};

/// The seeded scenario feed: consecutive one-hour scenario::MakeFleet
/// mixes (default FleetMix, seed derived from `seed` and the hour),
/// shifted so hour h covers [h, h+1) hours of event time and renumbered
/// so each hour's fleet is its own set of entities, truncated to
/// `records` events. Generating hour by hour keeps peak memory at one
/// hour of records.
Feed MakeFeed(uint64_t seed, size_t records);

/// The log record for input `in` (what the producer appends).
tcmf::stream::Record MakeRecord(const Feed& feed, const Input& in);

// ---------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> v);
/// Linear-interpolated quantile of unsorted samples (q in [0, 1]).
double Quantile(std::vector<double> v, double q);

/// True when `n` samples leave at least 10 beyond quantile q, the rule
/// for reporting that percentile.
bool SupportsQuantile(uint64_t n, double q);

/// Latency samples kept exactly per fixed wall-clock window, plus a
/// scenario::LatencyHistogram of every sample (count, p999, max). The
/// reported percentile is the median over windows of each window's exact
/// percentile: the median keeps one disturbed stretch of the run from
/// moving the p99 of the whole run, and exact samples keep the figure
/// from snapping to the histogram's bucket midpoints (which made most
/// runs read the same value to the microsecond).
class WindowedLatency {
 public:
  WindowedLatency(int64_t t0_us, int64_t window_us, size_t windows);
  void Record(int64_t at_us, int64_t latency_us);
  /// Median over the windows holding at least `min_samples` of each
  /// window's quantile q, in ms (the whole run's histogram quantile q
  /// when no window qualifies).
  double MedianOfWindowsMs(double q, uint64_t min_samples) const;
  const tcmf::scenario::LatencyHistogram& all() const { return all_; }

 private:
  int64_t t0_us_;
  int64_t window_us_;
  std::vector<std::vector<double>> windows_;  // latency samples, us
  tcmf::scenario::LatencyHistogram all_;
};

// ---------------------------------------------------------------------
// Tracing.

/// One span: a timed interval on the path of one sampled input record.
/// `name` and `parent` are string literals; spans of one record share
/// `trace_id`; `parent` names the enclosing span of the same record
/// (nullptr for the record's root span).
struct Span {
  const char* name = "";
  const char* parent = nullptr;
  uint64_t trace_id = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint32_t tid = 0;
};

/// In-memory span recorder. Sampling is a pure function of the record's
/// identity (entity id, event time), so every stage that sees the record
/// agrees on whether it is sampled without any lookup. Spans are kept in
/// memory and written once at exit.
class Tracer {
 public:
  static constexpr uint64_t kSampleEvery = 32;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  static uint64_t Id(uint64_t entity, TimeMs t);
  bool Sampled(uint64_t trace_id) const {
    return enabled_ && trace_id % kSampleEvery == 0;
  }

  /// Records a span on the calling thread.
  void Add(const char* name, const char* parent, uint64_t trace_id,
           int64_t start_us, int64_t end_us);
  std::vector<Span> Take();

 private:
  const bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span (duration minus the part covered by its child
/// spans, i.e. spans of the same record naming it as parent), grouped by
/// span name, in microseconds.
std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::vector<Span>& spans);

/// Gaps between consecutive child spans of each root span (the time a
/// record spent between the stages the benchmark can see), microseconds.
std::vector<double> GapsUs(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing). Timestamps are relative to `t0_us`.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      int64_t t0_us);

// ---------------------------------------------------------------------
// Environment.

/// Resident set size of the process now, MB.
double CurrentRssMb();

/// Samples the resident set every 5 ms on its own thread, from
/// construction until Stop(), which returns the largest sample in MB.
/// Workloads report the median over their measured passes of this
/// per-pass peak, so memory retained by the allocator from an earlier
/// pass does not decide the figure.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double Stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> max_mb_{0.0};
  std::thread thread_;
};
/// Threads of this process right now.
int ThreadCount();
/// Filesystem type name of `dir` ("ext4", "tmpfs", "overlay", ...).
std::string FilesystemType(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
