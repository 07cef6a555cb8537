#include "bench.h"

#include <unistd.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/hash.h"
#include "json.h"
#include "scenario/fleet.h"

namespace perfbench {

void Accounting::Fail(const std::string& what, uint64_t n) {
  if (n == 0) return;
  failed_ += n;
  if (examples_.size() < 8) examples_.push_back(what);
}

// ---------------------------------------------------------------------
// Feed.

namespace {

/// Every hour's mix reuses the simulators' id ranges; offsetting them per
/// hour keeps each hour's fleet a distinct set of entities (otherwise an
/// hour's first report would read as a jump of the previous hour's
/// vessel and be cleaned away).
constexpr uint64_t kIdStride = 1'000'000'000;

}  // namespace

Feed MakeFeed(uint64_t seed, size_t records) {
  Feed feed;
  feed.inputs.reserve(records);
  for (uint64_t hour = 0; feed.inputs.size() < records; ++hour) {
    tcmf::scenario::FleetMix mix;
    mix.seed = seed * 1000003ull + hour;
    const TimeMs shift = static_cast<TimeMs>(hour) * tcmf::kMillisPerHour;
    const uint64_t id_shift = hour * kIdStride;
    for (tcmf::scenario::FleetEvent& ev : tcmf::scenario::MakeFleet(mix)) {
      if (feed.inputs.size() == records) break;
      Input in;
      in.key = ev.key + id_shift;
      const std::string source =
          ev.record.GetString("source").value_or("weather");
      if (source == "weather") {
        in.source = Source::kWeather;
        in.weather_index = static_cast<uint32_t>(feed.weather.size());
        ev.record.set_event_time(ev.record.event_time() + shift);
        feed.weather.push_back(std::move(ev.record));
      } else {
        in.source = source == "ais" ? Source::kAis : Source::kAdsb;
        in.pos = tcmf::stream::RecordToPosition(ev.record);
        in.pos.t += shift;
        in.pos.entity_id += id_shift;
        ++feed.positions;
      }
      feed.inputs.push_back(in);
    }
  }
  return feed;
}

tcmf::stream::Record MakeRecord(const Feed& feed, const Input& in) {
  if (in.source == Source::kWeather) return feed.weather[in.weather_index];
  tcmf::stream::Record r = tcmf::stream::PositionToRecord(in.pos);
  r.Set("source", std::string(in.source == Source::kAis ? "ais" : "adsb"));
  return r;
}

// ---------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

bool SupportsQuantile(uint64_t n, double q) {
  // Integer form of (1 - q) * n >= 10 that is exact for the decimal
  // quantiles used here (0.5, 0.99, 0.999).
  const double beyond = (1.0 - q) * static_cast<double>(n);
  return beyond + 1e-9 >= 10.0;
}

WindowedLatency::WindowedLatency(int64_t t0_us, int64_t window_us,
                                 size_t windows)
    : t0_us_(t0_us),
      window_us_(std::max<int64_t>(1, window_us)),
      windows_(windows) {}

void WindowedLatency::Record(int64_t at_us, int64_t latency_us) {
  all_.RecordUs(latency_us);
  if (at_us < t0_us_ || windows_.empty()) return;
  const size_t w = static_cast<size_t>((at_us - t0_us_) / window_us_);
  if (w < windows_.size()) {
    windows_[w].push_back(static_cast<double>(std::max<int64_t>(0, latency_us)));
  }
}

double WindowedLatency::MedianOfWindowsMs(double q,
                                          uint64_t min_samples) const {
  std::vector<double> per_window;
  for (const std::vector<double>& samples : windows_) {
    if (samples.size() < min_samples) continue;
    per_window.push_back(Quantile(samples, q) / 1000.0);
  }
  if (per_window.empty()) {
    return static_cast<double>(all_.ValueAtQuantileUs(q)) / 1000.0;
  }
  return Median(std::move(per_window));
}

// ---------------------------------------------------------------------
// Tracing.

namespace {

uint32_t ThisThreadTraceId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

uint64_t Tracer::Id(uint64_t entity, TimeMs t) {
  return tcmf::Mix64(entity * 0x9E3779B97F4A7C15ull ^
                     static_cast<uint64_t>(t));
}

void Tracer::Add(const char* name, const char* parent, uint64_t trace_id,
                 int64_t start_us, int64_t end_us) {
  const uint32_t tid = ThisThreadTraceId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, trace_id, start_us, end_us, tid});
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

namespace {

/// Spans grouped by trace id (indexes into `spans`).
std::map<uint64_t, std::vector<size_t>> ByRecord(
    const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<size_t>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].trace_id].push_back(i);
  }
  return out;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredUs(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo,
                  int64_t hi) {
  for (auto& [s, e] : iv) {
    s = std::clamp(s, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_e) {
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) covered += cur_e - cur_s;
  return covered;
}

}  // namespace

std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const auto& [id, idx] : ByRecord(spans)) {
    for (const size_t i : idx) {
      const Span& s = spans[i];
      std::vector<std::pair<int64_t, int64_t>> children;
      for (const size_t j : idx) {
        const Span& c = spans[j];
        if (c.parent && std::string_view(c.parent) == s.name) {
          children.emplace_back(c.start_us, c.end_us);
        }
      }
      const int64_t self =
          (s.end_us - s.start_us) - CoveredUs(children, s.start_us, s.end_us);
      out[s.name].push_back(static_cast<double>(self));
    }
  }
  return out;
}

std::vector<double> GapsUs(const std::vector<Span>& spans) {
  std::vector<double> gaps;
  for (const auto& [id, idx] : ByRecord(spans)) {
    std::vector<std::pair<int64_t, int64_t>> children;
    for (const size_t i : idx) {
      if (spans[i].parent) {
        children.emplace_back(spans[i].start_us, spans[i].end_us);
      }
    }
    std::sort(children.begin(), children.end());
    for (size_t k = 1; k < children.size(); ++k) {
      gaps.push_back(static_cast<double>(
          std::max<int64_t>(0, children[k].first - children[k - 1].second)));
    }
  }
  return gaps;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      int64_t t0_us) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const Span& s : spans) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("cat");
    w.String(s.parent ? "stage" : "record");
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Int(s.start_us - t0_us);
    w.Key("dur");
    w.Int(std::max<int64_t>(0, s.end_us - s.start_us));
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Uint(s.tid);
    w.Key("args");
    w.BeginObject();
    w.Key("trace_id");
    w.String(std::to_string(s.trace_id));
    w.Key("parent");
    if (s.parent) {
      w.String(s.parent);
    } else {
      w.Null();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << w.str() << '\n';
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------
// Environment.

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RssSampler::RssSampler() : max_mb_(CurrentRssMb()) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      const double mb = CurrentRssMb();
      if (mb > max_mb_.load(std::memory_order_relaxed)) {
        max_mb_.store(mb, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

double RssSampler::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return std::max(max_mb_.load(std::memory_order_relaxed), CurrentRssMb());
}

int ThreadCount() {
  std::error_code ec;
  int n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

std::string FilesystemType(const std::string& dir) {
  struct statfs st{};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace perfbench
