// The kg_ingest_query workload: the Section 4.2.3/4.2.5 path on its own.
//
// Ingest: every cleaned position of one default hour of the fleet goes
// through rdf::MakePositionTemplate -> rdf::TripleGeneratorStage ->
// store::KgStoreSink, then KnowledgeStore::AddPositionNode per position
// and Compile(). Each round builds a fresh store; ingest_rps is records
// over the time from graph start until Compile() returns.
//
// Query: a closed loop of kMaxClients threads issues a seeded mix of
// star queries, one in eight with a spatio-temporal box, under
// StarPlan::kAdjacencyIndex. Every answer is checked against the
// StarPlan::kVerticalPartition answer of the same store.
#include "kg.h"

#include <algorithm>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "fig2.h"
#include "insitu/lowlevel.h"
#include "json.h"
#include "rdf/stages.h"
#include "rdf/vocab.h"
#include "reference.h"
#include "store/stages.h"
#include "stream/pipeline.h"

namespace perfbench {

namespace stream = tcmf::stream;
using tcmf::store::KnowledgeStore;
using tcmf::store::StarPlan;
using tcmf::store::StarQuery;
using tcmf::store::StarRow;

namespace {

/// One hour of the default fleet mix.
constexpr size_t kKgRecords = 37000;
/// Large enough that the pool's cost mix barely moves from seed to seed.
constexpr size_t kQueryPool = 480;
constexpr size_t kBoxEvery = 8;
/// Query clients. Four clients on the 4-vCPU reference box made query
/// latency swing by half between runs (the unboxed queries each
/// materialize ~36k rows and contend for the allocator and memory); two
/// keep the loop concurrent and its figures repeatable.
constexpr size_t kMaxClients = 2;
/// Share of the measured time spent in ingest rounds (the rest queries).
constexpr double kIngestShare = 0.4;
constexpr size_t kMinIngestRounds = 3;

/// A query of the pool, by predicate IRI (ids exist only after ingest).
struct QuerySpec {
  std::vector<const char*> predicates;
  bool has_box = false;
  tcmf::geom::StCellEncoder::StBox box;
};

struct KgSetup {
  Feed feed;
  Fig2Config cfg;
  std::vector<Position> cleaned;
  std::vector<stream::Record> records;  ///< one per cleaned position
  std::vector<QuerySpec> pool;
  std::unique_ptr<KnowledgeStore> store;
  double fleet_s = 0;
};

std::string NodeIri(const Position& p) {
  return std::string(kNodePrefix) + "node/" +
         std::to_string(static_cast<long long>(p.entity_id)) + "/" +
         std::to_string(static_cast<long long>(p.t));
}

std::unique_ptr<KgSetup> Setup(const Options& opt) {
  auto s = std::make_unique<KgSetup>();
  const int64_t t0 = NowUs();
  s->feed = MakeFeed(opt.seed, kKgRecords);
  s->fleet_s = static_cast<double>(NowUs() - t0) / 1e6;
  s->cfg = MakeFig2Config(opt.seed);
  tcmf::insitu::StreamCleaner cleaner(s->cfg.clean);
  for (const Input& in : s->feed.inputs) {
    if (in.source == Source::kWeather) continue;
    if (cleaner.Observe(in.pos) != tcmf::insitu::CleanVerdict::kOk) continue;
    s->cleaned.push_back(in.pos);
    s->records.push_back(tcmf::stream::PositionToRecord(in.pos));
  }
  // Seeded query mix: 2, 3 or 4 (in turn) of the position template's
  // predicates, picked at random; one query in kBoxEvery is confined to a
  // box a quarter of the extent wide and high, placed at random, over 30%
  // of the hour. Boxed queries cost ~20x an unboxed one (the adjacency
  // plan checks the box per candidate subject), so with this share the
  // median sits among unboxed queries and the p99 well inside the boxed
  // ones, never on the edge between the two; the fixed box size keeps
  // the boxed queries' costs close together.
  namespace vocab = tcmf::rdf::vocab;
  const std::vector<const char*> predicates = {
      vocab::kOfMovingObject, vocab::kHasTimestamp, vocab::kHasSpeed,
      vocab::kHasHeading,     vocab::kHasAltitude,  vocab::kAsWKT};
  tcmf::Rng rng(opt.seed * 0x51ed + 3);
  for (size_t q = 0; q < kQueryPool; ++q) {
    QuerySpec spec;
    std::vector<const char*> pick = predicates;
    for (size_t i = pick.size(); i > 1; --i) {
      std::swap(pick[i - 1], pick[rng.UniformInt(0, static_cast<int>(i) - 1)]);
    }
    pick.resize(2 + (q / kBoxEvery) % 3);
    spec.predicates = pick;
    spec.has_box = q % kBoxEvery == kBoxEvery - 1;
    if (spec.has_box) {
      const double w = 0.25 * 20.0, h = 0.25 * 11.0;
      const double lon = rng.Uniform(-10.0, 10.0 - w);
      const double lat = rng.Uniform(34.0, 45.0 - h);
      spec.box.bounds = {lon, lat, lon + w, lat + h};
      const double span = 0.3 * tcmf::kMillisPerHour;
      const double begin = rng.Uniform(0.0, tcmf::kMillisPerHour - span);
      spec.box.t_begin = static_cast<TimeMs>(begin);
      spec.box.t_end = static_cast<TimeMs>(begin + span);
    }
    s->pool.push_back(std::move(spec));
  }
  s->store = std::make_unique<KnowledgeStore>(s->cfg.encoder);
  return s;
}

StarQuery Resolve(const QuerySpec& spec, const KnowledgeStore& store) {
  StarQuery q;
  for (const char* p : spec.predicates) {
    q.predicate_ids.push_back(
        store.dictionary().Lookup(tcmf::rdf::Iri(p)));
  }
  q.has_st_constraint = spec.has_box;
  q.st_box = spec.box;
  return q;
}

/// Order-independent digest of a row set.
uint64_t RowsDigest(const std::vector<StarRow>& rows) {
  uint64_t h = rows.size();
  for (const StarRow& r : rows) {
    uint64_t x = tcmf::Mix64(r.subject);
    for (const uint64_t o : r.objects) x = tcmf::Mix64(x ^ o);
    h += x;
  }
  return h;
}

std::vector<std::pair<uint64_t, std::vector<uint64_t>>> Sorted(
    const std::vector<StarRow>& rows) {
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> v;
  for (const StarRow& r : rows) v.emplace_back(r.subject, r.objects);
  std::sort(v.begin(), v.end());
  return v;
}

struct IngestRound {
  double rate_rps = 0;
  double rss_mb = 0;
  std::vector<stream::StageMetrics> report;
};

/// One ingest round into `*store` (fresh). Timed from graph start until
/// Compile() returns.
IngestRound Ingest(const KgSetup& s, KnowledgeStore* store, Tracer* tracer,
                   uint64_t round) {
  IngestRound out;
  std::vector<stream::Record> records = s.records;  // copied before timing
  RssSampler rss;
  const int64_t t0 = NowUs();
  {
    stream::Pipeline p;
    auto source = stream::Flow<stream::Record>::FromVector(
        &p, std::move(records), {.name = "kg.source"});
    auto triples = tcmf::rdf::TripleGeneratorStage(source, s.cfg.tmpl,
                                                   s.cfg.vars, {.name = "kg.rdf"});
    tcmf::store::KgStoreSink(triples, store, {.name = "kg.kgsink"});
    p.Run();
    out.report = p.Report();
  }
  const int64_t t1 = NowUs();
  for (const Position& pos : s.cleaned) {
    store->AddPositionNode(tcmf::rdf::Iri(NodeIri(pos)), pos.lon, pos.lat,
                           pos.t);
  }
  const int64_t t2 = NowUs();
  store->Compile();
  const int64_t t3 = NowUs();
  out.rss_mb = rss.Stop();
  out.rate_rps = static_cast<double>(s.records.size()) /
                 (static_cast<double>(t3 - t0) / 1e6);
  if (tracer->enabled()) {
    const uint64_t id = tcmf::Mix64(0x1a6e57 + round);
    tracer->Add("ingest", nullptr, id, t0, t3);
    tracer->Add("kg.pipeline", "ingest", id, t0, t1);
    tracer->Add("kg.position_nodes", "ingest", id, t1, t2);
    tracer->Add("kg.compile", "ingest", id, t2, t3);
  }
  return out;
}

struct QueryPhase {
  std::unique_ptr<tcmf::scenario::LatencyHistogram> latency;
  std::vector<double> star_us;
  uint64_t scanned = 0, rows = 0, queries = 0, wrong = 0;
  double rss_mb = 0;
};

/// The closed query loop over `store` for `seconds`.
QueryPhase RunQueries(const KnowledgeStore& store,
                      const std::vector<StarQuery>& queries,
                      const std::vector<uint64_t>& expected, double seconds,
                      uint64_t seed, Tracer* tracer) {
  QueryPhase out;
  const size_t clients = std::max<size_t>(
      1, std::min<size_t>(kMaxClients, std::thread::hardware_concurrency()));
  const int64_t start = NowUs();
  const int64_t until = start + static_cast<int64_t>(seconds * 1e6);
  // RecordUs is safe from every client thread.
  out.latency = std::make_unique<tcmf::scenario::LatencyHistogram>();
  RssSampler rss;
  struct Client {
    std::vector<double> star_us;
    uint64_t scanned = 0, rows = 0, wrong = 0, queries = 0;
  };
  std::vector<Client> per(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = per[c];
      tcmf::Rng rng(seed * 131 + c);
      for (uint64_t i = 0; NowUs() < until; ++i) {
        const size_t j = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(queries.size()) - 1));
        tcmf::store::StarQueryMetrics m;
        const int64_t t0 = NowUs();
        const std::vector<StarRow> rows =
            store.RunStar(queries[j], StarPlan::kAdjacencyIndex, &m);
        const int64_t t1 = NowUs();
        const bool ok = RowsDigest(rows) == expected[j];
        const int64_t t2 = NowUs();
        out.latency->RecordUs(t1 - t0);
        ++me.queries;
        me.star_us.push_back(m.wall_ms * 1000.0);
        me.scanned += m.triples_scanned;
        me.rows += m.rows;
        if (!ok) ++me.wrong;
        const uint64_t id = tcmf::Mix64((c << 40) ^ i);
        if (tracer->Sampled(id)) {
          tracer->Add("query", nullptr, id, t0, t2);
          tracer->Add("store.star", "query", id, t0, t1);
          tracer->Add("verify.digest", "query", id, t1, t2);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.rss_mb = rss.Stop();
  for (const Client& c : per) {
    out.star_us.insert(out.star_us.end(), c.star_us.begin(), c.star_us.end());
    out.scanned += c.scanned;
    out.rows += c.rows;
    out.wrong += c.wrong;
    out.queries += c.queries;
  }
  return out;
}

}  // namespace

RunResult RunKg(const Options& opt) {
  RunResult res;
  std::vector<double> setup_s, fleet_s;
  std::unique_ptr<KgSetup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const int64_t t0 = NowUs();
    s = Setup(opt);
    setup_s.push_back(static_cast<double>(NowUs() - t0) / 1e6);
    std::printf("setup %d: %.3f s (fleet %.3f s)\n", rep, setup_s.back(),
                s->fleet_s);
    fleet_s.push_back(s->fleet_s);
  }

  // Sequential reference store: the same template, Add, AddPositionNode
  // and Compile calls, timed per module.
  ModuleTimes kg_times;
  auto ref_store = std::make_unique<KnowledgeStore>(s->cfg.encoder);
  {
    const tcmf::rdf::TripleGenerator gen(s->cfg.tmpl, s->cfg.vars);
    std::vector<tcmf::rdf::Triple> triples;
    int64_t t0 = NowUs();
    for (const stream::Record& r : s->records) {
      for (auto& t : gen.GenerateOne(r)) triples.push_back(std::move(t));
    }
    kg_times.rdf_s = static_cast<double>(NowUs() - t0) / 1e6;
    kg_times.rdf_calls = s->records.size();
    t0 = NowUs();
    for (const auto& t : triples) ref_store->Add(t);
    kg_times.add_s = static_cast<double>(NowUs() - t0) / 1e6;
    kg_times.add_calls = triples.size();
    for (const Position& pos : s->cleaned) {
      ref_store->AddPositionNode(tcmf::rdf::Iri(NodeIri(pos)), pos.lon,
                                 pos.lat, pos.t);
    }
    t0 = NowUs();
    ref_store->Compile();
    kg_times.compile_s = static_cast<double>(NowUs() - t0) / 1e6;
  }

  struct Summary {
    double ingest = 0, p50 = 0, p99 = 0, p999 = 0, rss = 0;
    uint64_t queries = 0, samples = 0;
    QueryPhase phase;
    std::vector<stream::StageMetrics> report;
  };
  double verify_s = 0;
  uint64_t round = 0;
  Tracer off(false), on(true);
  const auto run_for = [&](double seconds, Tracer* tracer) {
    Summary sum;
    std::vector<double> rates, rss;
    // Ingest rounds repeat until their measured time (verification
    // excluded) covers kIngestShare of `seconds`.
    double measured_s = 0;
    std::unique_ptr<KnowledgeStore> store;
    do {
      // The first round ingests into the store created during set-up.
      store = s->store ? std::move(s->store)
                       : std::make_unique<KnowledgeStore>(s->cfg.encoder);
      IngestRound r = Ingest(*s, store.get(), tracer, round++);
      // The first round warms the allocator and caches: verified, not
      // measured.
      if (round > 1) {
        rates.push_back(r.rate_rps);
        rss.push_back(r.rss_mb);
        measured_s += static_cast<double>(s->records.size()) / r.rate_rps;
      }
      sum.report = std::move(r.report);
      const int64_t v0 = NowUs();
      CompareStores("ingested store", *store, *ref_store, &res.acct);
      verify_s += static_cast<double>(NowUs() - v0) / 1e6;
    } while (measured_s < seconds * kIngestShare ||
             rates.size() < kMinIngestRounds);
    // All measured records over all measured ingest time.
    sum.ingest = static_cast<double>(rates.size() * s->records.size()) /
                 measured_s;

    // Expected answers from the vertical-partition plan; the adjacency
    // plan's full row sets are compared once per pool query here, and by
    // digest on every query of the loop.
    const int64_t v0 = NowUs();
    std::vector<StarQuery> queries;
    std::vector<uint64_t> expected;
    for (const QuerySpec& spec : s->pool) {
      queries.push_back(Resolve(spec, *store));
      const auto want =
          store->RunStar(queries.back(), StarPlan::kVerticalPartition, nullptr);
      const auto got =
          store->RunStar(queries.back(), StarPlan::kAdjacencyIndex, nullptr);
      res.acct.Attempt();
      if (Sorted(got) != Sorted(want)) {
        res.acct.Fail("adjacency and vertical plans disagree on a query");
      }
      expected.push_back(RowsDigest(want));
    }
    verify_s += static_cast<double>(NowUs() - v0) / 1e6;
    sum.phase = RunQueries(*store, queries, expected,
                           seconds * (1.0 - kIngestShare), opt.seed, tracer);
    res.acct.Attempt(sum.phase.queries);
    res.acct.Fail("wrong query answers", sum.phase.wrong);
    const auto& h = *sum.phase.latency;
    sum.queries = sum.phase.queries;
    sum.samples = h.count();
    sum.p50 = static_cast<double>(h.ValueAtQuantileUs(0.50)) / 1000.0;
    sum.p99 = static_cast<double>(h.ValueAtQuantileUs(0.99)) / 1000.0;
    sum.p999 = static_cast<double>(h.ValueAtQuantileUs(0.999)) / 1000.0;
    // Resident set: the larger of the ingest rounds' median peak and the
    // query loop's peak.
    sum.rss = std::max(Median(rss), sum.phase.rss_mb);
    if (!SupportsQuantile(sum.samples, 0.99)) {
      res.valid = false;
      res.invalid_reason = "fewer than 1000 queries in the query loop";
    }
    return sum;
  };

  Summary main_sum = run_for(opt.trace ? opt.seconds / 2 : opt.seconds, &off);
  Summary traced;
  if (opt.trace) traced = run_for(opt.seconds / 2, &on);

  res.e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"e2e_p50_ms", main_sum.p50, "ms"},
      {"e2e_p99_ms", main_sum.p99, "ms"},
      {"throughput_rps", main_sum.ingest, "records/s"},
      {"peak_rss_mb", main_sum.rss, "MB"},
  };
  res.named = {{"ingest_rps", main_sum.ingest, "records/s"},
               {"query_p50_ms", main_sum.p50, "ms"},
               {"query_p99_ms", main_sum.p99, "ms"},
               {"query_p999_ms", main_sum.p999, "ms"},
               {"queries", static_cast<double>(main_sum.queries), "count"}};
  res.env.push_back({"records", std::to_string(s->records.size())});
  res.env.push_back({"query_clients",
                     std::to_string(std::min<size_t>(
                         kMaxClients, std::thread::hardware_concurrency()))});
  res.env.push_back({"triples", std::to_string(ref_store->size())});

  if (opt.trace) {
    // The fig2 modules run over this workload's feed only as the
    // single-threaded reference, so their per-call costs are comparable
    // across workloads; their pipelined layers are idle here.
    std::vector<uint32_t> shard_of(s->feed.inputs.size(), 0);
    KeyedReference kref = RunKeyedReference(s->cfg, s->feed,
                                            s->feed.inputs.size(), shard_of, 1);
    CrossReference xref = RunCrossReference(s->cfg, s->cleaned);
    auto& L = res.layers;
    L.push_back({"scenario.late_p99_ms", 0.0, "ms"});
    L.push_back({"scenario.samples", static_cast<double>(traced.samples),
                 "count"});
    for (const char* m : {"mlog.append_us", "mlog.read_us_per_rec",
                          "mlog.records_per_read", "mlog.poll_hit_frac",
                          "mlog.end_backlog"}) {
      L.push_back({m, 0.0,
                   std::string(m).find("_us") != std::string::npos ? "us"
                   : std::string(m).find("frac") != std::string::npos
                       ? "fraction"
                       : "records"});
    }
    const std::vector<Span> spans = on.Take();
    const std::vector<double> gaps = GapsUs(spans);
    L.push_back({"stream.queue_wait_p50_us", Quantile(gaps, 0.5), "us"});
    L.push_back({"stream.queue_wait_p99_us", Quantile(gaps, 0.99), "us"});
    uint64_t rec = 0, bat = 0, hwm = 0;
    for (const auto& m : traced.report) {
      if (m.batches_out > 0) {
        rec += m.records_out;
        bat += m.batches_out;
      }
      hwm = std::max(hwm, m.queue_high_watermark);
    }
    L.push_back({"stream.records_per_batch",
                 bat ? static_cast<double>(rec) / bat : 0.0, "records"});
    L.push_back({"stream.queue_hwm_max", static_cast<double>(hwm), "count"});
    for (const std::string& stage : ChannelStages()) {
      double prod = 0, cons = 0;
      for (const auto& m : traced.report) {
        if (m.stage != stage) continue;
        prod = static_cast<double>(m.producer_blocked_ns) / 1e9;
        cons = static_cast<double>(m.consumer_blocked_ns) / 1e9;
      }
      L.push_back({"stream.blocked_producer_s." + stage, prod, "s"});
      L.push_back({"stream.blocked_consumer_s." + stage, cons, "s"});
    }
    AddModuleLayers(kref.times, xref.times, kref, xref, &L);
    L.push_back({"linkdiscovery.stage_p99_us", 0.0, "us"});
    L.push_back({"prediction.stage_p99_us", 0.0, "us"});
    L.push_back({"rdf.ref_us",
                 static_cast<double>(kg_times.rdf_s) * 1e6 /
                     static_cast<double>(kg_times.rdf_calls),
                 "us"});
    L.push_back({"rdf.triples_per_rec",
                 static_cast<double>(kg_times.add_calls) /
                     static_cast<double>(kg_times.rdf_calls),
                 "ratio"});
    L.push_back({"store.add_ref_us",
                 static_cast<double>(kg_times.add_s) * 1e6 /
                     static_cast<double>(kg_times.add_calls),
                 "us"});
    L.push_back({"store.compile_s", kg_times.compile_s, "s"});
    L.push_back({"store.star_p50_us", Quantile(traced.phase.star_us, 0.5),
                 "us"});
    L.push_back({"store.star_p99_us", Quantile(traced.phase.star_us, 0.99),
                 "us"});
    L.push_back({"store.scanned_per_row",
                 traced.phase.rows ? static_cast<double>(traced.phase.scanned) /
                                         traced.phase.rows
                                   : 0.0,
                 "ratio"});
    L.push_back({"datagen.fleet_s", Median(fleet_s), "s"});
    const double ref_s = kref.times.clean_s + kref.times.synopses_s +
                         kref.times.cep_s + kref.times.rdf_s + kref.times.add_s +
                         kref.times.compile_s + xref.times.link_s +
                         xref.times.cpa_s;
    L.push_back({"reference.seq_rps",
                 static_cast<double>(s->feed.inputs.size()) / ref_s,
                 "records/s"});
    L.push_back({"verify_s", verify_s, "s"});
    L.push_back({"trace.overhead_frac",
                 main_sum.p50 > 0 ? traced.p50 / main_sum.p50 - 1.0 : 0.0,
                 "fraction"});
    const std::string path = opt.work_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    int64_t t0 = spans.empty() ? 0 : spans.front().start_us;
    for (const Span& sp : spans) t0 = std::min(t0, sp.start_us);
    if (WriteChromeTrace(path, spans, t0)) {
      res.env.push_back({"trace_file", JsonQuote(path)});
    }
    std::printf("trace self time (us, median / p99 over sampled spans):\n");
    for (const auto& [name, v] : SelfTimesUs(spans)) {
      std::printf("  %-22s n=%-6zu %10.1f %10.1f\n", name.c_str(), v.size(),
                  Median(v), Quantile(v, 0.99));
    }
  }
  return res;
}

}  // namespace perfbench
