// Smart batching: a stage never holds staged outputs while its input is
// idle. Each test feeds a few records into a source channel that stays
// OPEN and waits, with a bound, for them to reach the end of the graph.
// Without the idle-flush rule they would sit in a partial batch until
// Close(), and every wait below would time out.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "geom/stcell.h"
#include "mlog/log.h"
#include "mlog/partitioned.h"
#include "mlog/stages.h"
#include "rdf/term.h"
#include "store/kgstore.h"
#include "store/stages.h"
#include "stream/pipeline.h"
#include "stream/record.h"

namespace tcmf {
namespace {

namespace fsys = std::filesystem;

/// Polls `done` every millisecond for up to 10 s (generous for sanitizer
/// builds; a passing run returns within a few ms).
bool WaitUntil(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

std::string TestDir(const std::string& name) {
  const std::string dir = "idle_flush_test_logs/" + name;
  fsys::remove_all(dir);
  return dir;
}

stream::Record MakeRecord(int i) {
  stream::Record r;
  r.set_event_time(1000 * i);
  r.Set("seq", static_cast<int64_t>(i));
  return r;
}

TEST(IdleFlushTest, MapDeliversTrickleWithoutLinger) {
  // max_linger_ms = -1: no timer. Before the idle-flush rule these three
  // records waited in the Map's 64-slot batch until end-of-stream.
  stream::Pipeline p;
  auto src = std::make_shared<stream::Channel<int>>();
  std::mutex mu;
  std::vector<int> got;
  stream::Flow<int>(&p, src,
                    stream::BatchPolicy{.max_batch = 64, .max_linger_ms = -1})
      .Map<int>([](const int& x) { return 10 * x; }, {.name = "times10"})
      .Sink([&](const int& x) {
        std::lock_guard<std::mutex> lock(mu);
        got.push_back(x);
      });
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(src->Push(i));
  const bool delivered = WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 3;
  });
  src->Close();
  p.Run();
  EXPECT_TRUE(delivered) << "records held until end-of-stream";
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(IdleFlushTest, BacklogStillMovesFullBatches) {
  // Under load the input stays non-empty, so batches fill exactly as
  // before: 640 queued records cross the Map's output edge as 10 full
  // batches of 64.
  stream::Pipeline p;
  auto src = std::make_shared<stream::Channel<int>>(1024);
  for (int i = 0; i < 640; ++i) ASSERT_TRUE(src->Push(i));
  src->Close();
  std::vector<int> got;
  stream::Flow<int>(&p, src,
                    stream::BatchPolicy{.max_batch = 64, .max_linger_ms = -1})
      .Map<int>([](const int& x) { return x; }, {.name = "id"})
      .CollectInto(&got);
  p.Run();
  ASSERT_EQ(got.size(), 640u);
  for (const stream::StageMetrics& m : p.Report()) {
    if (m.stage != "id") continue;
    EXPECT_EQ(m.records_in, 640u);
    EXPECT_EQ(m.batches_in, 10u);
  }
}

TEST(IdleFlushTest, LogSinkAppendsTrickleBeforeEndOfStream) {
  mlog::LogOptions opt;
  opt.dir = TestDir("log_sink");
  auto log = mlog::Log::Open(opt);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  mlog::Log* l = log.value().get();

  stream::Pipeline p;
  auto src = std::make_shared<stream::Channel<stream::Record>>();
  mlog::LogSink(stream::Flow<stream::Record>(&p, src), l);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(src->Push(MakeRecord(i)));
  const bool visible = WaitUntil([&] { return l->next_offset() == 3; });
  src->Close();
  p.Run();
  EXPECT_TRUE(visible) << "records reached the log only at end-of-stream";
  EXPECT_EQ(l->next_offset(), 3u);
}

TEST(IdleFlushTest, PartitionedLogSinkAppendsTrickleBeforeEndOfStream) {
  mlog::PartitionedLogOptions opt;
  opt.dir = TestDir("psink");
  opt.partitions = 2;
  auto topic = mlog::PartitionedLog::Open(opt);
  ASSERT_TRUE(topic.ok()) << topic.status().ToString();
  mlog::PartitionedLog* t = topic.value().get();
  auto appended = [t] {
    uint64_t n = 0;
    for (size_t i = 0; i < t->partition_count(); ++i) {
      n += t->partition(i)->next_offset();
    }
    return n;
  };

  stream::Pipeline p;
  auto src = std::make_shared<stream::Channel<stream::Record>>();
  mlog::PartitionedLogSink(
      stream::Flow<stream::Record>(&p, src), t,
      [](const stream::Record& r) { return *r.GetInt("seq"); });
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(src->Push(MakeRecord(i)));
  const bool visible = WaitUntil([&] { return appended() == 3; });
  src->Close();
  p.Run();
  EXPECT_TRUE(visible) << "records reached the topic only at end-of-stream";
  EXPECT_EQ(appended(), 3u);
}

TEST(IdleFlushTest, KgStoreSinkAddsTrickleBeforeEndOfStream) {
  geom::StCellEncoder encoder({0.0, 35.0, 10.0, 44.0}, 8, 0, 3'600'000);
  store::KnowledgeStore store(encoder, 4);

  stream::Pipeline p;
  auto src = std::make_shared<stream::Channel<rdf::Triple>>();
  store::KgStoreSink(stream::Flow<rdf::Triple>(&p, src), &store);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(src->Push({rdf::Iri("http://x/node" + std::to_string(i)),
                           rdf::Iri("http://x/p"), rdf::IntLiteral(i)}));
  }
  const bool visible = WaitUntil(
      [&] { return store.CountersSnapshot().triples_added == 3; });
  src->Close();
  p.Run();
  EXPECT_TRUE(visible) << "triples reached the store only at end-of-stream";
  EXPECT_EQ(store.CountersSnapshot().triples_added, 3u);
}

}  // namespace
}  // namespace tcmf
