// The fig2_steady and fig2_replay workloads: the Figure-2 real-time
// layer as two jobs reading one partitioned topic.
//
//   producer --AppendKeyed--> topic (kShards partitions)
//
//   entity-keyed job, one shard per partition (ShardedPipeline):
//     tail source -> insitu::CleaningStage -> synopses::SynopsesStage
//       -> keyed.cep (per-entity WayebEngine; records critical points and
//          forecasts/detections) -> rdf::TripleGeneratorStage
//       -> store::KgStoreSink (one KnowledgeStore per shard: the store is
//          single-writer)
//
//   cross-entity job, one consumer of every partition:
//     tail source -> insitu::CleaningStage -> cross.link
//       (SpatioTemporalLinker::Observe) -> cross.cpa (CpaScreen::Observe)
//       -> cross.sink
//
// Link discovery and CPA relate different entities, so entity-keyed
// sharding would split pairs that must meet; that job therefore runs as
// one consumer group member over all partitions.
#include "fig2.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "insitu/stages.h"
#include "json.h"
#include "mlog/partitioned.h"
#include "common/rng.h"
#include "rdf/stages.h"
#include "rdf/vocab.h"
#include "reference.h"
#include "scenario/arrival.h"
#include "store/stages.h"
#include "stream/pipeline.h"
#include "stream/sharded.h"
#include "synopses/stages.h"

namespace perfbench {

namespace mlog = tcmf::mlog;
namespace stream = tcmf::stream;
using tcmf::Status;
using tcmf::cep::WayebEngine;
using tcmf::linkdiscovery::Link;
using tcmf::prediction::CollisionWarning;
using tcmf::synopses::CriticalPoint;

namespace {

constexpr const char* kRecord = "record";

// ---------------------------------------------------------------------
// Setup.

/// Everything a run sets up. Owns the scratch topic directory and
/// removes it when destroyed.
struct Fig2Setup {
  Fig2Setup() = default;
  Fig2Setup(const Fig2Setup&) = delete;
  Fig2Setup& operator=(const Fig2Setup&) = delete;
  ~Fig2Setup() {
    topic.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  Feed feed;
  size_t n = 0;  ///< inputs used
  Fig2Config cfg;
  std::string dir;
  std::unique_ptr<mlog::PartitionedLog> topic;
  std::vector<uint32_t> shard_of;               ///< per input
  std::vector<std::vector<uint32_t>> index_of;  ///< [partition][offset]
  std::vector<int64_t> sched_us;                ///< per input, from start
  double fleet_s = 0;
  // Pre-fill (fig2_replay).
  double prefill_append_us = 0;
  uint64_t prefill_errors = 0;
};

Status OpenTopic(Fig2Setup* s) {
  std::error_code ec;
  std::filesystem::remove_all(s->dir, ec);
  std::filesystem::create_directories(s->dir, ec);
  mlog::PartitionedLogOptions o;
  o.dir = s->dir;
  o.partitions = kShards;
  auto topic = mlog::PartitionedLog::Open(o);
  if (!topic.ok()) return topic.status();
  s->topic = std::move(topic).value();
  return Status::Ok();
}

std::unique_ptr<Fig2Setup> Setup(const Options& opt, bool steady,
                                 size_t records, std::string* error) {
  auto s = std::make_unique<Fig2Setup>();
  s->dir = opt.work_dir + "/topic-" + opt.workload;
  const int64_t t0 = NowUs();
  s->feed = MakeFeed(opt.seed, records);
  s->n = s->feed.inputs.size();
  s->fleet_s = static_cast<double>(NowUs() - t0) / 1e6;
  s->cfg = MakeFig2Config(opt.seed);
  if (Status st = OpenTopic(s.get()); !st.ok()) {
    *error = st.ToString();
    return nullptr;
  }
  // Offsets are dense per partition in append order, so the producer's
  // input order fixes which input every (partition, offset) holds.
  s->index_of.assign(kShards, {});
  s->shard_of.resize(s->n);
  for (size_t i = 0; i < s->n; ++i) {
    const size_t p = s->topic->PartitionFor(s->feed.inputs[i].key);
    s->shard_of[i] = static_cast<uint32_t>(p);
    s->index_of[p].push_back(static_cast<uint32_t>(i));
  }
  if (steady) {
    tcmf::scenario::ArrivalSchedule schedule(
        tcmf::scenario::ArrivalCurve::Constant(kSteadyRatePerS), opt.seed);
    s->sched_us.resize(s->n);
    for (size_t i = 0; i < s->n; ++i) s->sched_us[i] = schedule.NextArrivalUs();
  } else {
    // fig2_replay: the receiver was down; the whole feed is in the topic
    // before the graph starts.
    int64_t append_us = 0;
    for (size_t i = 0; i < s->n; ++i) {
      const Input& in = s->feed.inputs[i];
      const stream::Record rec = MakeRecord(s->feed, in);
      const int64_t a0 = NowUs();
      const bool ok = s->topic->AppendKeyed(in.key, rec).ok();
      append_us += NowUs() - a0;
      if (!ok) ++s->prefill_errors;
    }
    s->prefill_append_us = static_cast<double>(append_us) / s->n;
  }
  return s;
}

// ---------------------------------------------------------------------
// One measured pass of the graph.

/// Per-consumer tail state, touched only by the consumer's source thread
/// until the pipeline has been joined.
struct JobSource {
  std::unique_ptr<mlog::GroupCursor> cursor;
  std::vector<mlog::GroupRecord> scratch;
  std::vector<uint64_t> next_expected = std::vector<uint64_t>(kShards, 0);
  uint64_t polls = 0, hits = 0, records = 0, read_us = 0;
  uint64_t gaps = 0, dups = 0, wrong = 0;
  std::string error;
  std::atomic<uint64_t> consumed{0};
};

struct CpOut {
  uint32_t shard = 0;
  uint32_t ordinal = 0;  ///< index among the entity's critical points
  CriticalPoint cp;
  int64_t emit_us = 0;
  int64_t end_us = 0;  ///< end of the keyed.cep call (trace span)
};

struct CepOut {
  uint32_t shard = 0;
  uint64_t entity = 0;
  uint32_t cp_ordinal = 0;
  WayebEngine::StepResult step;
  int64_t emit_us = 0;
};

struct KeyedShard {
  JobSource src;
  std::unique_ptr<tcmf::store::KnowledgeStore> store;
  std::vector<CpOut> cps;
  std::vector<CepOut> ceps;
};

/// What flows from cross.link to cross.cpa to cross.sink.
struct Probe {
  Position p;
  uint64_t k = 0;  ///< consumed ordinal
  std::vector<Link> links;
  std::vector<CollisionWarning> warnings;
};

struct LinkOut {
  uint64_t k = 0;
  Link link;
  int64_t emit_us = 0;
};

struct WarnOut {
  uint64_t k = 0;
  CollisionWarning warning;
  int64_t emit_us = 0;
};

struct CrossJob {
  JobSource src;
  std::vector<Position> consumed;  ///< cross.link input order
  std::vector<LinkOut> links;
  std::vector<WarnOut> warnings;
  std::vector<int64_t> verdict_us;  ///< per consumed ordinal: cross.sink time
};

struct Pass {
  int64_t start_us = 0;
  int64_t producer_end_us = 0;
  int64_t end_us = 0;
  std::vector<int64_t> read_keyed_us, read_cross_us;  // per input
  std::vector<std::unique_ptr<KeyedShard>> shards;
  std::unique_ptr<CrossJob> cross;
  std::vector<stream::StageMetrics> report;  // both jobs' stage rows
  // Producer (fig2_steady).
  std::vector<int64_t> late_us;
  double append_us = 0;
  uint64_t append_errors = 0;
  uint64_t end_backlog = 0;
  int threads = 0;
  double rss_mb = 0;  ///< resident set peak during the pass
};

struct PassContext {
  const Fig2Setup* s = nullptr;
  Tracer* tracer = nullptr;
  std::atomic<bool> producer_done{false};
};

/// Batch source tailing a consumer-group cursor: checks per-partition
/// offsets are dense, stamps each record's read time, decodes positions
/// (weather cells are read and counted, not forwarded) and, once the
/// producer is done and every assigned partition is drained, ends the
/// stream. A caught-up poll sleeps kTailPollUs.
std::function<size_t(std::vector<Position>*, size_t)> TailSource(
    PassContext* ctx, JobSource* src, std::vector<int64_t>* read_us,
    const char* span_name) {
  return [ctx, src, read_us, span_name](std::vector<Position>* out,
                                        size_t max_n) -> size_t {
    const Fig2Setup& s = *ctx->s;
    for (;;) {
      src->scratch.clear();
      const int64_t t0 = NowUs();
      const size_t n = src->cursor->NextBatch(&src->scratch, max_n);
      const int64_t t1 = NowUs();
      ++src->polls;
      if (n > 0) {
        ++src->hits;
        src->records += n;
        src->read_us += static_cast<uint64_t>(t1 - t0);
        src->consumed.fetch_add(n, std::memory_order_relaxed);
        size_t forwarded = 0;
        for (const mlog::GroupRecord& gr : src->scratch) {
          uint64_t& expect = src->next_expected[gr.partition];
          if (gr.offset < expect) {
            ++src->dups;
          } else if (gr.offset > expect) {
            src->gaps += gr.offset - expect;
          }
          expect = std::max(expect, gr.offset + 1);
          const auto& index = s.index_of[gr.partition];
          if (gr.offset >= index.size()) {
            ++src->wrong;
            continue;
          }
          const uint32_t i = index[gr.offset];
          (*read_us)[i] = t1;
          const Input& in = s.feed.inputs[i];
          if (in.source == Source::kWeather) continue;
          const Position p = tcmf::stream::RecordToPosition(gr.record);
          if (p.entity_id != in.pos.entity_id || p.t != in.pos.t) ++src->wrong;
          const uint64_t id = Tracer::Id(p.entity_id, p.t);
          if (ctx->tracer->Sampled(id)) {
            ctx->tracer->Add(span_name, kRecord, id, t0, t1);
          }
          out->push_back(p);
          ++forwarded;
        }
        if (forwarded > 0) return forwarded;
        continue;
      }
      if (!src->cursor->status().ok()) {
        src->error = src->cursor->status().ToString();
        return 0;
      }
      if (ctx->producer_done.load(std::memory_order_acquire)) {
        bool drained = true;
        for (const size_t part : src->cursor->assignment()) {
          if (src->cursor->committed(part) <
              s.topic->partition(part)->next_offset()) {
            drained = false;
          }
        }
        if (drained) return 0;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kTailPollUs));
    }
  };
}

/// keyed.cep: per-entity WayebEngine over the shard's critical points.
/// Records every critical point (its arrival here is its emission time)
/// and every forecast/detection, then forwards the point to the RDF
/// generator as a position record.
std::function<std::vector<stream::Record>(const CriticalPoint&)> CepStage(
    const Fig2Config& cfg, KeyedShard* shard, uint32_t shard_index) {
  struct EntityCep {
    WayebEngine engine;
    uint32_t cps = 0;
  };
  auto entities = std::make_shared<std::unordered_map<uint64_t, EntityCep>>();
  const WayebEngine* proto = cfg.cep_proto.get();
  return [entities, proto, shard,
          shard_index](const CriticalPoint& cp) -> std::vector<stream::Record> {
    const int64_t t0 = NowUs();
    auto it = entities->find(cp.pos.entity_id);
    if (it == entities->end()) {
      it = entities->emplace(cp.pos.entity_id, EntityCep{*proto, 0}).first;
    }
    EntityCep& e = it->second;
    const uint32_t ordinal = e.cps++;
    const WayebEngine::StepResult step =
        e.engine.Observe(tcmf::cep::CriticalPointSymbol(cp));
    const int64_t t1 = NowUs();
    shard->cps.push_back({shard_index, ordinal, cp, t0, t1});
    if (step.detected || step.forecast_emitted) {
      shard->ceps.push_back({shard_index, cp.pos.entity_id, ordinal, step, t1});
    }
    return {tcmf::stream::PositionToRecord(cp.pos)};
  };
}

void BuildKeyedShard(stream::Pipeline* p, const Fig2Config& cfg,
                     PassContext* ctx, KeyedShard* shard, uint32_t index,
                     std::vector<int64_t>* read_us) {
  auto source = stream::Flow<Position>::FromBatchGenerator(
      p, TailSource(ctx, &shard->src, read_us, "mlog.read.keyed"),
      {.name = "keyed.source"});
  auto cleaned =
      tcmf::insitu::CleaningStage(source, cfg.clean, {.name = "keyed.clean"});
  auto cps = tcmf::synopses::SynopsesStage(cleaned, cfg.synopses, 1,
                                           {.name = "keyed.synopses"});
  auto records = cps.FlatMap<stream::Record>(CepStage(cfg, shard, index),
                                             {.name = "keyed.cep"});
  auto triples = tcmf::rdf::TripleGeneratorStage(records, cfg.tmpl, cfg.vars,
                                                 {.name = "keyed.rdf"});
  tcmf::store::KgStoreSink(triples, shard->store.get(),
                           {.name = "keyed.kgsink"});
}

void BuildCrossJob(stream::Pipeline* p, const Fig2Config& cfg,
                   PassContext* ctx, CrossJob* job,
                   std::vector<int64_t>* read_us) {
  Tracer* tracer = ctx->tracer;
  auto source = stream::Flow<Position>::FromBatchGenerator(
      p, TailSource(ctx, &job->src, read_us, "mlog.read.cross"),
      {.name = "cross.source"});
  auto cleaned =
      tcmf::insitu::CleaningStage(source, cfg.clean, {.name = "cross.clean"});
  auto linker = std::make_shared<tcmf::linkdiscovery::SpatioTemporalLinker>(
      cfg.linker, cfg.areas);
  auto linked = cleaned.Map<Probe>(
      [linker, job, tracer](const Position& p) {
        const int64_t t0 = NowUs();
        Probe probe{p, job->consumed.size(), linker->Observe(p), {}};
        job->consumed.push_back(p);
        const uint64_t id = Tracer::Id(p.entity_id, p.t);
        if (tracer->Sampled(id)) {
          tracer->Add("linkdiscovery.stage", kRecord, id, t0, NowUs());
        }
        return probe;
      },
      {.name = "cross.link"});
  auto screen = std::make_shared<tcmf::prediction::CpaScreen>(cfg.cpa);
  const double min_speed = cfg.cpa_min_speed_mps;
  auto screened = linked.Map<Probe>(
      [screen, min_speed, tracer](const Probe& in) {
        const int64_t t0 = NowUs();
        Probe out = in;
        if (in.p.speed_mps >= min_speed) out.warnings = screen->Observe(in.p);
        const uint64_t id = Tracer::Id(in.p.entity_id, in.p.t);
        if (tracer->Sampled(id)) {
          tracer->Add("prediction.stage", kRecord, id, t0, NowUs());
        }
        return out;
      },
      {.name = "cross.cpa"});
  screened.Sink(
      [job, tracer](const Probe& probe) {
        const int64_t now = NowUs();
        job->verdict_us.push_back(now);
        for (const Link& l : probe.links) job->links.push_back({probe.k, l, now});
        for (const CollisionWarning& w : probe.warnings) {
          job->warnings.push_back({probe.k, w, now});
        }
        const uint64_t id = Tracer::Id(probe.p.entity_id, probe.p.t);
        if (tracer->Sampled(id)) {
          tracer->Add("cross.sink", kRecord, id, now, NowUs());
        }
      },
      {.name = "cross.sink"});
}

/// Runs the graph once. fig2_steady: the producer replays the schedule
/// for `records` inputs while both jobs tail the topic. fig2_replay: the
/// topic is already full and both jobs drain it.
Pass RunPass(const Fig2Setup& s, bool steady, size_t records,
             const std::string& group, Tracer* tracer, std::string* error) {
  Pass pass;
  PassContext ctx;
  ctx.s = &s;
  ctx.tracer = tracer;
  ctx.producer_done.store(!steady);
  pass.read_keyed_us.assign(s.n, 0);
  pass.read_cross_us.assign(s.n, 0);
  pass.cross = std::make_unique<CrossJob>();
  for (size_t i = 0; i < kShards; ++i) {
    auto shard = std::make_unique<KeyedShard>();
    shard->store = std::make_unique<tcmf::store::KnowledgeStore>(s.cfg.encoder);
    auto cursor = s.topic->JoinGroup(group + ".keyed", i, kShards);
    if (!cursor.ok()) {
      *error = cursor.status().ToString();
      return pass;
    }
    shard->src.cursor = std::move(cursor).value();
    pass.shards.push_back(std::move(shard));
  }
  {
    auto cursor = s.topic->JoinGroup(group + ".cross", 0, 1);
    if (!cursor.ok()) {
      *error = cursor.status().ToString();
      return pass;
    }
    pass.cross->src.cursor = std::move(cursor).value();
  }

  RssSampler rss;
  pass.start_us = NowUs();
  stream::ShardedPipeline keyed(kShards);
  stream::Pipeline cross;
  keyed.Build([&](stream::Pipeline* p, size_t i) {
    BuildKeyedShard(p, s.cfg, &ctx, pass.shards[i].get(),
                    static_cast<uint32_t>(i), &pass.read_keyed_us);
  });
  BuildCrossJob(&cross, s.cfg, &ctx, pass.cross.get(), &pass.read_cross_us);

  if (steady) {
    pass.late_us.resize(records);
    std::thread producer([&] {
      int64_t append_us = 0;
      for (size_t i = 0; i < records; ++i) {
        const int64_t deadline = pass.start_us + s.sched_us[i];
        int64_t now = NowUs();
        if (now < deadline) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::microseconds(deadline)));
          now = NowUs();
        }
        pass.late_us[i] = now - deadline;
        const Input& in = s.feed.inputs[i];
        const stream::Record rec = MakeRecord(s.feed, in);
        const int64_t a0 = NowUs();
        const bool ok = s.topic->AppendKeyed(in.key, rec).ok();
        const int64_t a1 = NowUs();
        append_us += a1 - a0;
        if (!ok) ++pass.append_errors;
        if (in.source != Source::kWeather) {
          const uint64_t id = Tracer::Id(in.pos.entity_id, in.pos.t);
          if (tracer->Sampled(id)) {
            tracer->Add("mlog.append", kRecord, id, a0, a1);
          }
        }
      }
      pass.producer_end_us = NowUs();
      uint64_t keyed_consumed = 0;
      for (const auto& shard : pass.shards) {
        keyed_consumed += shard->src.consumed.load(std::memory_order_relaxed);
      }
      const uint64_t cross_consumed =
          pass.cross->src.consumed.load(std::memory_order_relaxed);
      pass.end_backlog = (records - std::min<uint64_t>(records, keyed_consumed)) +
                         (records - std::min<uint64_t>(records, cross_consumed));
      pass.append_us = static_cast<double>(append_us) / records;
      ctx.producer_done.store(true, std::memory_order_release);
    });
    // Sample the thread count mid-run: producer, both jobs' stage threads
    // and this thread.
    std::this_thread::sleep_for(std::chrono::microseconds(
        s.sched_us[records / 2]));
    pass.threads = ThreadCount();
    producer.join();
  } else {
    pass.threads = ThreadCount();
  }
  keyed.Run();
  cross.Run();
  pass.end_us = NowUs();
  pass.rss_mb = rss.Stop();
  if (!steady) pass.producer_end_us = pass.start_us;

  // Only the core transport counters are read from the reports.
  for (const auto& rows : {keyed.AggregateReport(), cross.Report()}) {
    for (const stream::StageMetrics& m : rows) pass.report.push_back(m);
  }
  return pass;
}

// ---------------------------------------------------------------------
// Verification and latency attribution.

struct PassResult {
  double rate_rps = 0;  ///< inputs / (start .. both jobs finished)
  std::unique_ptr<WindowedLatency> latency;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0, max_ms = 0;
  uint64_t samples = 0;
  double verify_s = 0;
  CrossReference cross_ref;
  std::vector<Span> spans;
};

struct EntityKeyHash {
  size_t operator()(const std::pair<uint64_t, TimeMs>& k) const {
    return static_cast<size_t>(Tracer::Id(k.first, k.second));
  }
};

/// Verifies one pass against the references (counting into `acct`) and
/// turns every matched result into a latency sample: emission time minus
/// the arrival of the input that triggered it (scheduled arrival for
/// fig2_steady, start of the drain for fig2_replay).
PassResult VerifyPass(const Fig2Setup& s, bool steady, size_t records,
                      Pass& pass, const KeyedReference& kref, Tracer* tracer,
                      Accounting* acct) {
  const int64_t v0 = NowUs();
  PassResult r;
  r.rate_rps = static_cast<double>(records) /
               (static_cast<double>(pass.end_us - pass.start_us) / 1e6);

  // Delivery: every appended record reaches both jobs exactly once.
  acct->Attempt(records);
  acct->Fail("append errors", pass.append_errors);
  std::vector<JobSource*> sources{&pass.cross->src};
  for (auto& shard : pass.shards) sources.push_back(&shard->src);
  uint64_t keyed_records = 0;
  for (JobSource* src : sources) {
    acct->Fail("gaps", src->gaps);
    acct->Fail("duplicates", src->dups);
    acct->Fail("records not matching the appended input", src->wrong);
    if (!src->error.empty()) acct->Fail("source error: " + src->error);
    if (src != &pass.cross->src) keyed_records += src->records;
  }
  if (keyed_records < records) {
    acct->Fail("keyed job missed records", records - keyed_records);
  }
  if (pass.cross->src.records < records) {
    acct->Fail("cross job missed records", records - pass.cross->src.records);
  }

  // Latency base: the scheduled arrival (fig2_steady), or the start of
  // the drain (fig2_replay: the whole backlog arrives when the receiver
  // reconnects, so its latency is catch-up time). Trace roots start where
  // the record entered the graph: its arrival, or its read from the log.
  const auto base_us = [&](uint32_t i) -> int64_t {
    return steady ? pass.start_us + s.sched_us[i] : pass.start_us;
  };
  const auto root_us = [&](uint32_t i, bool cross) -> int64_t {
    if (steady) return base_us(i);
    return cross ? pass.read_cross_us[i] : pass.read_keyed_us[i];
  };
  const int64_t window_us = 500'000;
  const int64_t warmup_us = steady ? 1'000'000 : 0;
  const size_t windows = static_cast<size_t>(
      std::max<int64_t>(1, (pass.producer_end_us - pass.start_us -
                            warmup_us) / window_us));
  r.latency = std::make_unique<WindowedLatency>(pass.start_us + warmup_us,
                                                window_us, windows);
  std::unordered_map<uint64_t, int64_t> root_start;  // trace id -> base
  const auto sample = [&](uint32_t i, int64_t emit_us) {
    const int64_t base = base_us(i);
    if (base < pass.start_us + warmup_us) return;
    r.latency->Record(base, emit_us - base);
  };

  // Entity-keyed outputs, per (shard, entity), in emission order.
  std::map<EntityKey, std::pair<std::vector<const CpOut*>,
                                std::vector<const CepOut*>>>
      got;
  for (const auto& shard : pass.shards) {
    for (const CpOut& c : shard->cps) {
      got[{c.shard, c.cp.pos.entity_id}].first.push_back(&c);
    }
    for (const CepOut& c : shard->ceps) {
      got[{c.shard, c.entity}].second.push_back(&c);
    }
  }
  for (const auto& [key, outs] : got) {
    if (!kref.entities.count(key)) {
      acct->Fail("critical points for an unexpected entity",
                 outs.first.size() + outs.second.size());
    }
  }
  for (const auto& [key, want] : kref.entities) {
    const std::string where = "shard " + std::to_string(key.first) +
                              " entity " + std::to_string(key.second);
    auto it = got.find(key);
    static const std::pair<std::vector<const CpOut*>,
                           std::vector<const CepOut*>>
        kNone;
    const auto& have = it == got.end() ? kNone : it->second;
    std::vector<CriticalPoint> got_cps, want_cps;
    for (const CpOut* c : have.first) got_cps.push_back(c->cp);
    for (const RefCp& c : want.cps) want_cps.push_back(c.cp);
    CompareSequence("critical points of " + where, got_cps, want_cps, SameCp,
                    acct);
    std::vector<RefCep> got_cep;
    for (const CepOut* c : have.second) got_cep.push_back({c->cp_ordinal, c->step});
    CompareSequence("forecasts of " + where, got_cep, want.cep,
                    [](const RefCep& a, const RefCep& b) {
                      return a.cp_ordinal == b.cp_ordinal &&
                             SameStep(a.step, b.step);
                    },
                    acct);
    // Latency of matched results.
    const size_t ncp = std::min(have.first.size(), want.cps.size());
    for (size_t k = 0; k < ncp; ++k) {
      const uint32_t trig = want.cps[k].trigger;
      if (trig == kNoTrigger || !SameCp(have.first[k]->cp, want.cps[k].cp)) {
        continue;
      }
      sample(trig, have.first[k]->emit_us);
      const Position& tp = s.feed.inputs[trig].pos;
      const uint64_t id = Tracer::Id(tp.entity_id, tp.t);
      if (tracer->Sampled(id)) {
        tracer->Add("keyed.cep", kRecord, id, have.first[k]->emit_us,
                    have.first[k]->end_us);
        root_start[id] = root_us(trig, false);
      }
    }
    const size_t ncep = std::min(have.second.size(), want.cep.size());
    for (size_t k = 0; k < ncep; ++k) {
      const uint32_t ord = want.cep[k].cp_ordinal;
      if (have.second[k]->cp_ordinal != ord || ord >= want.cps.size()) continue;
      const uint32_t trig = want.cps[ord].trigger;
      if (trig != kNoTrigger) sample(trig, have.second[k]->emit_us);
    }
  }

  // Knowledge stores.
  for (size_t i = 0; i < kShards; ++i) {
    pass.shards[i]->store->Compile();
    CompareStores("store of shard " + std::to_string(i),
                  *pass.shards[i]->store, *kref.stores[i], acct);
  }

  // Cross-entity job: it consumed exactly the cleaned reports, in each
  // entity's order, and its links and warnings equal a replay of the
  // interleaving it consumed through fresh linker and CPA instances.
  CrossJob& cj = *pass.cross;
  {
    std::unordered_map<uint64_t, std::vector<TimeMs>> got_t, want_t;
    for (const Position& p : cj.consumed) got_t[p.entity_id].push_back(p.t);
    for (const auto& [key, e] : kref.entities) {
      auto& v = want_t[key.second];
      v.insert(v.end(), e.cleaned_t.begin(), e.cleaned_t.end());
    }
    for (auto& [entity, want] : want_t) {
      CompareSequence("cleaned reports of entity " + std::to_string(entity),
                      got_t[entity], want,
                      [](TimeMs a, TimeMs b) { return a == b; }, acct);
    }
    for (const auto& [entity, have] : got_t) {
      if (!want_t.count(entity)) {
        acct->Fail("cross job consumed an unexpected entity", have.size());
      }
    }
  }
  r.cross_ref = RunCrossReference(s.cfg, cj.consumed);
  {
    std::vector<std::vector<Link>> got_links(cj.consumed.size());
    std::vector<std::vector<CollisionWarning>> got_warn(cj.consumed.size());
    for (const LinkOut& l : cj.links) {
      if (l.k < got_links.size()) got_links[l.k].push_back(l.link);
    }
    for (const WarnOut& w : cj.warnings) {
      if (w.k < got_warn.size()) got_warn[w.k].push_back(w.warning);
    }
    for (size_t k = 0; k < cj.consumed.size(); ++k) {
      if (!r.cross_ref.links[k].empty() || !got_links[k].empty()) {
        CompareSequence("links of consumed report " + std::to_string(k),
                        got_links[k], r.cross_ref.links[k], SameLink, acct);
      }
      if (!r.cross_ref.warnings[k].empty() || !got_warn[k].empty()) {
        CompareSequence("warnings of consumed report " + std::to_string(k),
                        got_warn[k], r.cross_ref.warnings[k], SameWarning,
                        acct);
      }
    }
  }
  // Cross-entity result latency: consumed report -> input index.
  std::unordered_map<std::pair<uint64_t, TimeMs>, uint32_t, EntityKeyHash>
      input_of;
  input_of.reserve(s.feed.positions);
  for (size_t i = 0; i < records; ++i) {
    const Input& in = s.feed.inputs[i];
    if (in.source == Source::kWeather) continue;
    input_of.try_emplace({in.pos.entity_id, in.pos.t}, static_cast<uint32_t>(i));
  }
  const auto cross_sample = [&](uint64_t k, int64_t emit_us) {
    if (k >= cj.consumed.size()) return;
    const Position& p = cj.consumed[k];
    auto it = input_of.find({p.entity_id, p.t});
    if (it == input_of.end()) return;
    sample(it->second, emit_us);
    const uint64_t id = Tracer::Id(p.entity_id, p.t);
    if (tracer->Sampled(id)) root_start[id] = root_us(it->second, true);
  };
  if (cj.verdict_us.size() != cj.consumed.size()) {
    acct->Fail("screened reports missing from cross.sink",
               cj.consumed.size() - std::min(cj.consumed.size(),
                                             cj.verdict_us.size()));
  }
  if (steady) {
    for (const LinkOut& l : cj.links) cross_sample(l.k, l.emit_us);
    for (const WarnOut& w : cj.warnings) cross_sample(w.k, w.emit_us);
  } else {
    // Catching up, every screened report is a result: its link and CPA
    // verdict is out, with or without links and warnings.
    for (uint64_t k = 0; k < cj.verdict_us.size(); ++k) {
      cross_sample(k, cj.verdict_us[k]);
    }
  }

  // Percentiles: fig2_steady reports the median over 0.5 s windows of
  // each window's percentile; fig2_replay's single window is the pass.
  const auto& all = r.latency->all();
  r.samples = all.count();
  r.p50_ms = r.latency->MedianOfWindowsMs(0.50, steady ? 100 : 1);
  r.p99_ms = r.latency->MedianOfWindowsMs(0.99, steady ? 1000 : 1);
  r.p999_ms = static_cast<double>(all.ValueAtQuantileUs(0.999)) / 1000.0;
  r.max_ms = static_cast<double>(all.max_us()) / 1000.0;

  // Trace: one root span per sampled record that produced a result, from
  // its base time to the end of its last span.
  if (tracer->enabled()) {
    r.spans = tracer->Take();
    std::unordered_map<uint64_t, int64_t> root_end;
    for (const Span& sp : r.spans) {
      auto& e = root_end[sp.trace_id];
      e = std::max(e, sp.end_us);
    }
    std::vector<Span> kept;
    for (const Span& sp : r.spans) {
      if (root_start.count(sp.trace_id)) kept.push_back(sp);
    }
    for (const auto& [id, start] : root_start) {
      kept.push_back({kRecord, nullptr, id, std::min(start, root_end[id]),
                      root_end[id], 0});
    }
    r.spans = std::move(kept);
  }
  r.verify_s = static_cast<double>(NowUs() - v0) / 1e6;
  return r;
}

// ---------------------------------------------------------------------
// Metrics.

/// Sums the core transport counters of the stage rows whose name starts
/// with `prefix`.
struct Transport {
  uint64_t records_out = 0, batches_out = 0, hwm = 0;
  std::map<std::string, std::pair<double, double>> blocked;  // prod, cons s
};

Transport ReadTransport(const std::vector<stream::StageMetrics>& rows) {
  Transport t;
  for (const stream::StageMetrics& m : rows) {
    if (m.batches_out > 0) {
      t.records_out += m.records_out;
      t.batches_out += m.batches_out;
    }
    t.hwm = std::max(t.hwm, m.queue_high_watermark);
    t.blocked[m.stage] = {static_cast<double>(m.producer_blocked_ns) / 1e9,
                          static_cast<double>(m.consumer_blocked_ns) / 1e9};
  }
  return t;
}

double PerCallUs(double seconds, uint64_t calls) {
  return calls ? seconds * 1e6 / static_cast<double>(calls) : 0.0;
}

struct StarSample {
  double p50_us = 0, p99_us = 0, scanned_per_row = 0;
};

/// The store layer's per-query cost on a fig2 run: a seeded sample of
/// star queries (2-4 of the position template's predicates, every fourth
/// with a spatio-temporal box) over one shard's compiled store, under
/// StarPlan::kAdjacencyIndex, each answer checked against
/// StarPlan::kVerticalPartition.
StarSample SampleStarQueries(const tcmf::store::KnowledgeStore& store,
                             uint64_t seed, Accounting* acct) {
  namespace vocab = tcmf::rdf::vocab;
  using tcmf::store::StarPlan;
  const std::vector<const char*> predicates = {
      vocab::kOfMovingObject, vocab::kHasTimestamp, vocab::kHasSpeed,
      vocab::kHasHeading,     vocab::kHasAltitude,  vocab::kAsWKT};
  const auto sorted = [](const std::vector<tcmf::store::StarRow>& rows) {
    std::vector<std::pair<uint64_t, std::vector<uint64_t>>> v;
    for (const auto& r : rows) v.emplace_back(r.subject, r.objects);
    std::sort(v.begin(), v.end());
    return v;
  };
  tcmf::Rng rng(seed * 0x51ed + 5);
  std::vector<double> wall_us;
  uint64_t scanned = 0, rows = 0;
  for (int q = 0; q < 400; ++q) {
    std::vector<const char*> pick = predicates;
    for (size_t i = pick.size(); i > 1; --i) {
      std::swap(pick[i - 1], pick[rng.UniformInt(0, static_cast<int>(i) - 1)]);
    }
    pick.resize(2 + q % 3);
    tcmf::store::StarQuery query;
    for (const char* p : pick) {
      query.predicate_ids.push_back(
          store.dictionary().Lookup(tcmf::rdf::Iri(p)));
    }
    query.has_st_constraint = q % 4 == 3;
    if (query.has_st_constraint) {
      const double lon = rng.Uniform(-10.0, 5.0), lat = rng.Uniform(34.0, 42.0);
      query.st_box.bounds = {lon, lat, lon + 5.0, lat + 3.0};
      query.st_box.t_begin = 0;
      query.st_box.t_end = 2 * tcmf::kMillisPerHour;
    }
    tcmf::store::StarQueryMetrics m;
    const auto got = store.RunStar(query, StarPlan::kAdjacencyIndex, &m);
    wall_us.push_back(m.wall_ms * 1000.0);
    scanned += m.triples_scanned;
    rows += m.rows;
    acct->Attempt();
    if (sorted(got) !=
        sorted(store.RunStar(query, StarPlan::kVerticalPartition, nullptr))) {
      acct->Fail("adjacency and vertical plans disagree on a star query");
    }
  }
  return {Quantile(wall_us, 0.5), Quantile(wall_us, 0.99),
          rows ? static_cast<double>(scanned) / static_cast<double>(rows) : 0.0};
}

}  // namespace

// Stage names whose blocked time is reported, in every workload.
const std::vector<std::string>& ChannelStages() {
  static const std::vector<std::string> kStages = {
      "keyed.source", "keyed.clean", "keyed.synopses", "keyed.cep",
      "keyed.rdf",    "cross.source", "cross.clean",   "cross.link",
      "cross.cpa",    "kg.source",    "kg.rdf"};
  return kStages;
}

void AddModuleLayers(const ModuleTimes& keyed, const ModuleTimes& cross,
                     const KeyedReference& kref, const CrossReference& xref,
                     std::vector<Metric>* out) {
  out->push_back({"insitu.ref_us", PerCallUs(keyed.clean_s, keyed.clean_calls),
                  "us"});
  out->push_back({"insitu.kept_frac",
                  kref.positions ? static_cast<double>(kref.cleaned) /
                                       static_cast<double>(kref.positions)
                                 : 0.0,
                  "fraction"});
  out->push_back({"synopses.ref_us",
                  PerCallUs(keyed.synopses_s, keyed.synopses_calls), "us"});
  out->push_back({"synopses.cp_frac",
                  kref.cleaned ? static_cast<double>(kref.cps) /
                                     static_cast<double>(kref.cleaned)
                               : 0.0,
                  "fraction"});
  out->push_back({"linkdiscovery.ref_us",
                  PerCallUs(cross.link_s, cross.link_calls), "us"});
  const auto& ls = xref.linker_stats;
  out->push_back({"linkdiscovery.candidates_per_obs",
                  ls.points_processed
                      ? static_cast<double>(ls.pair_candidates) /
                            static_cast<double>(ls.points_processed)
                      : 0.0,
                  "ratio"});
  out->push_back({"linkdiscovery.links_per_candidate",
                  ls.pair_candidates
                      ? static_cast<double>(ls.links_near_entity) /
                            static_cast<double>(ls.pair_candidates)
                      : 0.0,
                  "ratio"});
  out->push_back({"prediction.cpa_ref_us",
                  PerCallUs(cross.cpa_s, cross.cpa_calls), "us"});
  out->push_back({"prediction.pairs_per_obs",
                  xref.cpa_observations
                      ? static_cast<double>(xref.cpa_pairs) /
                            static_cast<double>(xref.cpa_observations)
                      : 0.0,
                  "ratio"});
  out->push_back({"prediction.warnings_per_pair",
                  xref.cpa_pairs ? static_cast<double>(xref.warning_count) /
                                       static_cast<double>(xref.cpa_pairs)
                                 : 0.0,
                  "ratio"});
  out->push_back({"cep.ref_us", PerCallUs(keyed.cep_s, keyed.cep_calls), "us"});
  out->push_back({"cep.forecasts", static_cast<double>(kref.forecasts),
                  "count"});
}

RunResult RunFig2(const Options& opt, bool steady) {
  RunResult res;
  // --trace 1 splits the time between an untraced and a traced pass, so
  // a steady pass there schedules half the records.
  const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const size_t records =
      steady ? static_cast<size_t>(kSteadyRatePerS * pass_s) : kReplayRecords;
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  // Set-up, several times; the median is setup_s.
  std::vector<double> setup_s, fleet_s;
  std::unique_ptr<Fig2Setup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    std::string error;
    const int64_t t0 = NowUs();
    s = Setup(opt, steady, records, &error);
    if (!s) {
      res.acct.Attempt();
      res.acct.Fail("setup: " + error);
      return res;
    }
    setup_s.push_back(static_cast<double>(NowUs() - t0) / 1e6);
    std::printf("setup %d: %.3f s (fleet %.3f s)\n", rep, setup_s.back(),
                s->fleet_s);
    fleet_s.push_back(s->fleet_s);
  }
  res.acct.Attempt(steady ? 0 : s->n);
  res.acct.Fail("pre-fill append errors", s->prefill_errors);

  // The reference does not depend on the run: compute it once, outside
  // every timed region.
  const int64_t r0 = NowUs();
  KeyedReference kref =
      RunKeyedReference(s->cfg, s->feed, s->n, s->shard_of, kShards);
  const double keyed_ref_s = static_cast<double>(NowUs() - r0) / 1e6;

  // Measured passes. --trace 1 splits the time between an untraced and
  // a traced half, so the tracing overhead is measured too.
  struct Summary {
    double rate = 0, p50 = 0, p99 = 0, p999 = 0, max = 0, rss = 0;
    uint64_t samples = 0;
    size_t passes = 0;
  };
  Tracer off(false), on(true);
  std::vector<Span> spans;
  Pass last_pass;
  PassResult last;
  double verify_s = 0;
  int group = 0;
  const auto run_for = [&](double seconds, Tracer* tracer) {
    std::vector<double> rate, p50, p99, p999, mx, rss;
    auto pooled = std::make_unique<tcmf::scenario::LatencyHistogram>();
    Summary sum;
    // Drain rounds repeat until `seconds` of measured draining (set-up
    // and verification between rounds excluded).
    double measured_s = 0;
    do {
      std::string error;
      if (steady && group > 0) {
        // A second steady pass needs a fresh topic (offsets map inputs).
        if (Status st = OpenTopic(s.get()); !st.ok()) error = st.ToString();
      }
      const size_t n = s->n;
      Pass pass;
      if (error.empty()) {
        pass = RunPass(*s, steady, n, "g" + std::to_string(group++), tracer,
                       &error);
      }
      if (!error.empty()) {
        res.acct.Attempt();
        res.acct.Fail("pass: " + error);
        return sum;
      }
      PassResult pr = VerifyPass(*s, steady, n, pass, kref, tracer, &res.acct);
      verify_s += pr.verify_s;
      // fig2_replay's first drain round warms caches and thread stacks;
      // it is verified like every round but not measured.
      std::printf("pass %d%s: %.0f records/s, p50 %.3f ms, p99 %.3f ms\n",
                  group, !steady && group == 1 ? " (warm-up)" : "",
                  pr.rate_rps, pr.p50_ms, pr.p99_ms);
      if (!steady && group == 1) continue;
      measured_s += static_cast<double>(pass.end_us - pass.start_us) / 1e6;
      rate.push_back(pr.rate_rps);
      p50.push_back(pr.p50_ms);
      p99.push_back(pr.p99_ms);
      p999.push_back(pr.p999_ms);
      mx.push_back(pr.max_ms);
      rss.push_back(pass.rss_mb);
      sum.samples += pr.samples;
      if (!SupportsQuantile(pr.samples, 0.99)) {
        res.valid = false;
        res.invalid_reason = "fewer than 1000 latency samples in a pass";
      }
      if (tracer->enabled()) {
        spans.insert(spans.end(), pr.spans.begin(), pr.spans.end());
      }
      last_pass = std::move(pass);
      last = std::move(pr);
      pooled->Merge(last.latency->all());
    } while (!steady &&
             (measured_s < seconds || rate.size() < kMinReplayRounds));
    sum.passes = rate.size();
    sum.rss = Median(rss);
    if (steady) {
      sum.rate = rate.front();
      sum.p50 = p50.front();
      sum.p99 = p99.front();
      sum.p999 = p999.front();
      sum.max = mx.front();
      return sum;
    }
    // fig2_replay: all records over all drain time; the latency
    // percentiles are medians over rounds (a pooled p99 is set by the
    // few slowest rounds and moved twice as much between runs).
    sum.rate = static_cast<double>(rate.size() * s->n) / measured_s;
    sum.p50 = Median(p50);
    sum.p99 = Median(p99);
    sum.p999 = static_cast<double>(pooled->ValueAtQuantileUs(0.999)) / 1000.0;
    sum.max = static_cast<double>(pooled->max_us()) / 1000.0;
    return sum;
  };

  Summary main_sum = run_for(pass_s, &off);
  Summary traced_sum;
  if (opt.trace) traced_sum = run_for(pass_s, &on);
  if (res.acct.failed() > 0 && last.samples == 0) {
    // A pass failed outright; there is nothing to report.
    return res;
  }

  const double late_p99_ms =
      steady ? Quantile(std::vector<double>(last_pass.late_us.begin(),
                                            last_pass.late_us.end()),
                        0.99) /
                   1000.0
             : 0.0;
  res.e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"e2e_p50_ms", main_sum.p50, "ms"},
      {"e2e_p99_ms", main_sum.p99, "ms"},
      {"throughput_rps", main_sum.rate, "records/s"},
      {"peak_rss_mb", main_sum.rss, "MB"},
  };
  if (steady) {
    res.named = {{"e2e_p50_ms", main_sum.p50, "ms"},
                 {"e2e_p99_ms", main_sum.p99, "ms"},
                 {"e2e_p999_ms", main_sum.p999, "ms"},
                 {"e2e_max_ms", main_sum.max, "ms"},
                 {"delivered_rps", main_sum.rate, "records/s"}};
  } else {
    res.named = {{"drain_rps", main_sum.rate, "records/s"},
                 {"catchup_p50_ms", main_sum.p50, "ms"},
                 {"catchup_p99_ms", main_sum.p99, "ms"},
                 {"catchup_p999_ms", main_sum.p999, "ms"},
                 {"drain_rounds", static_cast<double>(main_sum.passes),
                  "count"}};
  }
  res.named.push_back({"latency_samples", static_cast<double>(main_sum.samples),
                       "count"});

  // Validity: the generator, not the program, must not set the numbers.
  const double budget_backlog = kSteadyRatePerS * kLatencyBudgetMs / 1000.0;
  if (steady && late_p99_ms > kMaxLateShare * main_sum.p99) {
    res.valid = false;
    res.invalid_reason =
        "producer lateness p99 exceeds a quarter of the e2e p99";
  }
  if (steady && static_cast<double>(last_pass.end_backlog) > budget_backlog) {
    res.valid = false;
    res.invalid_reason =
        "backlog at producer stop exceeds one latency budget of input";
  }

  // Environment record.
  res.env.push_back({"offered_rate_per_s",
                     JsonNumber(steady ? kSteadyRatePerS : 0.0)});
  res.env.push_back({"records", std::to_string(records)});
  res.env.push_back({"shards", std::to_string(kShards)});
  res.env.push_back({"pipeline_threads", std::to_string(last_pass.threads)});
  res.env.push_back({"tail_poll_us", std::to_string(kTailPollUs)});
  res.env.push_back({"topic_fs", JsonQuote(FilesystemType(opt.work_dir))});
  res.env.push_back({"latency_budget_ms", std::to_string(kLatencyBudgetMs)});
  res.env.push_back(
      {"e2e_p99_within_budget",
       main_sum.p99 <= kLatencyBudgetMs ? "true" : "false"});

  // Per-layer metrics (from the traced half when tracing).
  if (opt.trace) {
    const Summary& ts = traced_sum;
    const Transport tr = ReadTransport(last_pass.report);
    uint64_t polls = 0, hits = 0, recs = 0, read_us = 0;
    std::vector<JobSource*> sources{&last_pass.cross->src};
    for (auto& shard : last_pass.shards) sources.push_back(&shard->src);
    for (JobSource* src : sources) {
      polls += src->polls;
      hits += src->hits;
      recs += src->records;
      read_us += src->read_us;
    }
    const auto self = SelfTimesUs(spans);
    const auto span_p99 = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : Quantile(it->second, 0.99);
    };
    const std::vector<double> gaps = GapsUs(spans);
    auto& L = res.layers;
    L.push_back({"scenario.late_p99_ms", late_p99_ms, "ms"});
    L.push_back({"scenario.samples", static_cast<double>(ts.samples), "count"});
    L.push_back({"mlog.append_us",
                 steady ? last_pass.append_us : s->prefill_append_us, "us"});
    L.push_back({"mlog.read_us_per_rec",
                 recs ? static_cast<double>(read_us) / recs : 0.0, "us"});
    L.push_back({"mlog.records_per_read",
                 hits ? static_cast<double>(recs) / hits : 0.0, "records"});
    L.push_back({"mlog.poll_hit_frac",
                 polls ? static_cast<double>(hits) / polls : 0.0, "fraction"});
    L.push_back({"mlog.end_backlog", static_cast<double>(last_pass.end_backlog),
                 "records"});
    L.push_back({"stream.queue_wait_p50_us", Quantile(gaps, 0.5), "us"});
    L.push_back({"stream.queue_wait_p99_us", Quantile(gaps, 0.99), "us"});
    L.push_back({"stream.records_per_batch",
                 tr.batches_out ? static_cast<double>(tr.records_out) /
                                      tr.batches_out
                                : 0.0,
                 "records"});
    L.push_back({"stream.queue_hwm_max", static_cast<double>(tr.hwm), "count"});
    for (const std::string& stage : ChannelStages()) {
      auto it = tr.blocked.find(stage);
      const auto b = it == tr.blocked.end() ? std::pair<double, double>{0, 0}
                                            : it->second;
      L.push_back({"stream.blocked_producer_s." + stage, b.first, "s"});
      L.push_back({"stream.blocked_consumer_s." + stage, b.second, "s"});
    }
    AddModuleLayers(kref.times, last.cross_ref.times, kref, last.cross_ref, &L);
    L.push_back({"linkdiscovery.stage_p99_us", span_p99("linkdiscovery.stage"),
                 "us"});
    L.push_back({"prediction.stage_p99_us", span_p99("prediction.stage"), "us"});
    L.push_back({"rdf.ref_us",
                 PerCallUs(kref.times.rdf_s, kref.times.rdf_calls), "us"});
    L.push_back({"rdf.triples_per_rec",
                 kref.times.rdf_calls
                     ? static_cast<double>(kref.triples) / kref.times.rdf_calls
                     : 0.0,
                 "ratio"});
    L.push_back({"store.add_ref_us",
                 PerCallUs(kref.times.add_s, kref.times.add_calls), "us"});
    L.push_back({"store.compile_s", kref.times.compile_s, "s"});
    const StarSample star = SampleStarQueries(*last_pass.shards[0]->store,
                                              opt.seed, &res.acct);
    L.push_back({"store.star_p50_us", star.p50_us, "us"});
    L.push_back({"store.star_p99_us", star.p99_us, "us"});
    L.push_back({"store.scanned_per_row", star.scanned_per_row, "ratio"});
    L.push_back({"datagen.fleet_s", Median(fleet_s), "s"});
    const double ref_s = keyed_ref_s + last.cross_ref.times.link_s +
                         last.cross_ref.times.cpa_s;
    L.push_back({"reference.seq_rps", static_cast<double>(s->n) / ref_s,
                 "records/s"});
    L.push_back({"verify_s", verify_s, "s"});
    const double overhead =
        steady ? (main_sum.p50 > 0 ? ts.p50 / main_sum.p50 - 1.0 : 0.0)
               : (ts.rate > 0 ? main_sum.rate / ts.rate - 1.0 : 0.0);
    L.push_back({"trace.overhead_frac", overhead, "fraction"});

    const std::string path = opt.work_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    const int64_t t0 = spans.empty() ? 0 : std::min_element(
        spans.begin(), spans.end(), [](const Span& a, const Span& b) {
          return a.start_us < b.start_us;
        })->start_us;
    if (WriteChromeTrace(path, spans, t0)) {
      res.env.push_back({"trace_file", JsonQuote(path)});
    }
    std::printf("trace self time (us, median / p99 over sampled records):\n");
    for (const auto& [name, v] : self) {
      std::printf("  %-22s n=%-6zu %10.1f %10.1f\n", name.c_str(), v.size(),
                  Median(v), Quantile(v, 0.99));
    }
  }
  return res;
}

}  // namespace perfbench
