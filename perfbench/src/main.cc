// Figure-2 benchmark driver.
//
//   fig2_bench --workload <fig2_steady|fig2_replay|kg_ingest_query>
//              --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints human-readable lines, then one environment/validity record
// ({"env": {...}}), then, as the last line, the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the per-layer metrics (and a Chrome trace file under the work dir).
// Exits 1 when any output differs from the single-threaded reference, 2
// on a usage error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "fig2.h"
#include "json.h"
#include "kg.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "fig2_bench: %s\nusage: fig2_bench --workload "
               "<fig2_steady|fig2_replay|kg_ingest_query> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

/// Keeps every hardware thread busy for kWarmUpMs before anything is
/// timed. On the reference box (a 4-vCPU VM) an idle CPU runs at about a
/// quarter of its speed for its first second of load; without this the
/// first set-up repetition and the first measured rounds would time the
/// host's ramp-up instead of the program.
void WarmUpCpus() {
  constexpr int64_t kWarmUpMs = 1500;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kWarmUpMs);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    threads.emplace_back([until] {
      volatile double x = 1.0;
      while (std::chrono::steady_clock::now() < until) {
        for (int k = 0; k < 1000; ++k) x = x * 1.0000001 + 1e-9;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

bool ParseArgs(int argc, char** argv, Options* opt, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + arg;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return *error = "bad --seed", false;
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt->seconds > 0) || opt->seconds > 120) {
        return *error = "bad --seconds", false;
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return *error = "bad --trace", false;
      }
      opt->trace = value[0] == '1';
    } else if (arg == "--work-dir") {
      opt->work_dir = value;
    } else {
      *error = "unknown argument " + arg;
      return false;
    }
  }
  if (opt->workload.empty()) return *error = "--workload is required", false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!ParseArgs(argc, argv, &opt, &error)) return Usage(error.c_str());

  WarmUpCpus();
  RunResult res;
  if (opt.workload == "fig2_steady") {
    res = RunFig2(opt, /*steady=*/true);
  } else if (opt.workload == "fig2_replay") {
    res = RunFig2(opt, /*steady=*/false);
  } else if (opt.workload == "kg_ingest_query") {
    res = RunKg(opt);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }

  for (const Metric& m : res.named) {
    std::printf("metric %-20s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric %-20s = %.6g fraction (%llu failed / %llu attempted)\n",
              "error_rate", res.acct.ErrorRate(),
              static_cast<unsigned long long>(res.acct.failed()),
              static_cast<unsigned long long>(res.acct.attempted()));
  for (const std::string& e : res.acct.examples()) {
    std::printf("MISMATCH %s\n", e.c_str());
  }
  if (!res.valid) std::printf("INVALID RUN: %s\n", res.invalid_reason.c_str());

  const bool correct = res.acct.failed() == 0 && res.acct.attempted() > 0;
  const std::vector<Metric>& metrics = opt.trace ? res.layers : res.e2e;

  JsonWriter env;
  env.BeginObject();
  env.Key("env");
  env.BeginObject();
  env.Key("workload");
  env.String(opt.workload);
  env.Key("seed");
  env.Uint(opt.seed);
  env.Key("seconds");
  env.Number(opt.seconds);
  env.Key("trace");
  env.Bool(opt.trace);
  env.Key("nproc");
  env.Uint(std::thread::hardware_concurrency());
  env.Key("compiler");
  env.String(__VERSION__);
  env.Key("build_type");
  env.String(PERFBENCH_BUILD_TYPE);
  env.Key("git_commit");
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  env.String(commit && *commit ? commit : "unknown");
  env.Key("valid");
  env.Bool(res.valid);
  env.Key("invalid_reason");
  env.String(res.invalid_reason);
  env.Key("error_rate");
  env.Number(res.acct.ErrorRate());
  std::string out = env.str();
  for (const auto& [key, raw] : res.env) {
    out.push_back(',');
    AppendJsonString(&out, key);
    out.push_back(':');
    out += raw;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());

  JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Uint(std::max<uint64_t>(1, res.acct.attempted()));
  w.Key("failed");
  w.Uint(res.acct.failed());
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Number(m.value);
    w.Key("unit");
    w.String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
