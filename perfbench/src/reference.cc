#include "reference.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "cep/automaton.h"
#include "cep/pmc.h"
#include "datagen/areas.h"
#include "rdf/dictionary.h"
#include "scenario/fleet.h"

namespace perfbench {

using tcmf::cep::WayebEngine;
using tcmf::linkdiscovery::Link;
using tcmf::prediction::CollisionWarning;
using tcmf::synopses::CriticalPoint;

namespace {

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SamePosition(const Position& a, const Position& b) {
  return a.entity_id == b.entity_id && a.t == b.t && SameDouble(a.lon, b.lon) &&
         SameDouble(a.lat, b.lat) && SameDouble(a.alt_m, b.alt_m) &&
         SameDouble(a.speed_mps, b.speed_mps) &&
         SameDouble(a.heading_deg, b.heading_deg) &&
         SameDouble(a.vrate_mps, b.vrate_mps);
}

double Seconds(int64_t start_us) {
  return static_cast<double>(NowUs() - start_us) / 1e6;
}

}  // namespace

Fig2Config MakeFig2Config(uint64_t seed) {
  Fig2Config cfg;
  const tcmf::geom::BBox extent{-10.0, 34.0, 10.0, 45.0};
  cfg.linker.extent = extent;
  cfg.linker.near_distance_m = 3000.0;
  cfg.linker.temporal_window_ms = 2 * tcmf::kMillisPerMinute;
  cfg.linker.link_moving_pairs = true;
  cfg.cpa.dcpa_m = 500.0;
  cfg.cpa.tcpa_s = 10 * 60.0;
  cfg.cpa.max_range_m = 10000.0;

  // Area catalogs near ports, as in the maritime monitoring example.
  tcmf::Rng rng(seed * 7919 + 21);
  const auto ports = tcmf::datagen::MakePorts(rng, {-6.0, 35.0, 10.0, 44.0}, 10);
  const auto anchors = tcmf::datagen::AreaCentroids(ports);
  cfg.areas = tcmf::datagen::MakeRegionsNear(rng, anchors, 12, "protected",
                                             6000, 18000, 4000, 30000);
  auto fishing = tcmf::datagen::MakeRegionsNear(rng, anchors, 8, "fishing",
                                                10000, 25000, 8000, 25000);
  cfg.areas.insert(cfg.areas.end(), fishing.begin(), fishing.end());

  // CEP input model: fitted on the critical points of a separate
  // training feed, never on the measured one.
  tcmf::scenario::FleetMix training;
  training.seed = seed * 1000003ull + 0x7ea1;
  std::map<uint64_t, tcmf::synopses::SynopsesGenerator> gens;
  std::vector<int> symbols;
  tcmf::insitu::StreamCleaner cleaner(cfg.clean);
  for (const auto& ev : tcmf::scenario::MakeFleet(training)) {
    if (ev.record.GetString("source").value_or("") == "weather") continue;
    const Position p = tcmf::stream::RecordToPosition(ev.record);
    if (cleaner.Observe(p) != tcmf::insitu::CleanVerdict::kOk) continue;
    auto it = gens.try_emplace(p.entity_id, cfg.synopses).first;
    for (const CriticalPoint& cp : it->second.Observe(p)) {
      symbols.push_back(tcmf::cep::CriticalPointSymbol(cp));
    }
  }
  const tcmf::cep::Dfa dfa = tcmf::cep::CompileStreamingDfa(
      tcmf::cep::NorthToSouthReversalPattern(), tcmf::cep::kHeadingSymbolCount);
  tcmf::cep::MarkovInputModel input(tcmf::cep::kHeadingSymbolCount, 1);
  input.Fit(symbols);
  cfg.cep_proto =
      std::make_shared<const WayebEngine>(dfa, input, WayebEngine::Options{});

  tcmf::rdf::MakePositionTemplate(kNodePrefix, &cfg.tmpl, &cfg.vars);
  return cfg;
}

KeyedReference RunKeyedReference(const Fig2Config& cfg, const Feed& feed,
                                 size_t n,
                                 const std::vector<uint32_t>& shard_of,
                                 size_t shards) {
  KeyedReference ref;
  ModuleTimes& tm = ref.times;
  const tcmf::rdf::TripleGenerator generator(cfg.tmpl, cfg.vars);
  for (size_t s = 0; s < shards; ++s) {
    // Pass 1: cleaning, in the shard's (= the partition's) order.
    std::vector<uint32_t> cleaned;
    {
      tcmf::insitu::StreamCleaner cleaner(cfg.clean);
      uint64_t calls = 0;
      const int64_t t0 = NowUs();
      for (size_t i = 0; i < n; ++i) {
        const Input& in = feed.inputs[i];
        if (shard_of[i] != s || in.source == Source::kWeather) continue;
        ++calls;
        if (cleaner.Observe(in.pos) == tcmf::insitu::CleanVerdict::kOk) {
          cleaned.push_back(static_cast<uint32_t>(i));
        }
      }
      tm.clean_s += Seconds(t0);
      tm.clean_calls += calls;
      ref.positions += calls;
      ref.cleaned += cleaned.size();
    }
    // Pass 2: synopses, one generator per entity; the end-of-stream
    // flush emits the trailing critical points.
    std::map<uint64_t, tcmf::synopses::SynopsesGenerator> gens;
    {
      const int64_t t0 = NowUs();
      for (const uint32_t i : cleaned) {
        const Position& p = feed.inputs[i].pos;
        auto it = gens.try_emplace(p.entity_id, cfg.synopses).first;
        EntityRef& e = ref.entities[{static_cast<uint32_t>(s), p.entity_id}];
        e.cleaned_t.push_back(p.t);
        for (CriticalPoint& cp : it->second.Observe(p)) {
          e.cps.push_back({std::move(cp), i});
        }
      }
      for (auto& [entity, gen] : gens) {
        EntityRef& e = ref.entities[{static_cast<uint32_t>(s), entity}];
        for (CriticalPoint& cp : gen.Flush()) {
          e.cps.push_back({std::move(cp), kNoTrigger});
        }
      }
      tm.synopses_s += Seconds(t0);
      tm.synopses_calls += cleaned.size();
    }
  }
  // Pass 3: CEP, one forecaster per entity over its critical points.
  {
    const int64_t t0 = NowUs();
    for (auto& [key, e] : ref.entities) {
      if (e.cps.empty()) continue;
      WayebEngine engine = *cfg.cep_proto;
      for (uint32_t k = 0; k < e.cps.size(); ++k) {
        const WayebEngine::StepResult step =
            engine.Observe(tcmf::cep::CriticalPointSymbol(e.cps[k].cp));
        if (step.detected || step.forecast_emitted) e.cep.push_back({k, step});
      }
      tm.cep_calls += e.cps.size();
      ref.cps += e.cps.size();
      ref.cep_outputs += e.cep.size();
      for (const RefCep& c : e.cep) ref.forecasts += c.step.forecast_emitted;
    }
    tm.cep_s += Seconds(t0);
  }
  // Pass 4: RDF generation of every critical point, then pass 5: the
  // per-shard stores.
  std::vector<std::vector<tcmf::rdf::Triple>> triples(shards);
  {
    const int64_t t0 = NowUs();
    for (const auto& [key, e] : ref.entities) {
      for (const RefCp& c : e.cps) {
        for (auto& t :
             generator.GenerateOne(tcmf::stream::PositionToRecord(c.cp.pos))) {
          triples[key.first].push_back(std::move(t));
        }
      }
      tm.rdf_calls += e.cps.size();
    }
    tm.rdf_s += Seconds(t0);
  }
  for (size_t s = 0; s < shards; ++s) {
    auto store = std::make_unique<tcmf::store::KnowledgeStore>(cfg.encoder);
    const int64_t t0 = NowUs();
    for (const auto& t : triples[s]) store->Add(t);
    tm.add_s += Seconds(t0);
    tm.add_calls += triples[s].size();
    ref.triples += triples[s].size();
    const int64_t t1 = NowUs();
    store->Compile();
    tm.compile_s += Seconds(t1);
    ref.stores.push_back(std::move(store));
  }
  return ref;
}

CrossReference RunCrossReference(const Fig2Config& cfg,
                                 const std::vector<Position>& consumed) {
  CrossReference ref;
  ref.links.resize(consumed.size());
  ref.warnings.resize(consumed.size());
  {
    tcmf::linkdiscovery::SpatioTemporalLinker linker(cfg.linker, cfg.areas);
    const int64_t t0 = NowUs();
    for (size_t k = 0; k < consumed.size(); ++k) {
      ref.links[k] = linker.Observe(consumed[k]);
    }
    ref.times.link_s = Seconds(t0);
    ref.times.link_calls = consumed.size();
    ref.linker_stats = linker.stats();
  }
  {
    tcmf::prediction::CpaScreen screen(cfg.cpa);
    const int64_t t0 = NowUs();
    for (size_t k = 0; k < consumed.size(); ++k) {
      if (consumed[k].speed_mps < cfg.cpa_min_speed_mps) continue;
      ++ref.cpa_observations;
      ref.warnings[k] = screen.Observe(consumed[k]);
    }
    ref.times.cpa_s = Seconds(t0);
    ref.times.cpa_calls = ref.cpa_observations;
    ref.cpa_pairs = screen.pairs_evaluated();
  }
  for (size_t k = 0; k < consumed.size(); ++k) {
    ref.link_count += ref.links[k].size();
    ref.warning_count += ref.warnings[k].size();
  }
  return ref;
}

bool SameCp(const CriticalPoint& a, const CriticalPoint& b) {
  return a.type == b.type && SamePosition(a.pos, b.pos);
}

bool SameStep(const WayebEngine::StepResult& a,
              const WayebEngine::StepResult& b) {
  if (a.detected != b.detected || a.forecast_emitted != b.forecast_emitted) {
    return false;
  }
  if (!a.forecast_emitted) return true;
  return a.forecast.at == b.forecast.at && a.forecast.start == b.forecast.start &&
         a.forecast.end == b.forecast.end &&
         SameDouble(a.forecast.prob, b.forecast.prob);
}

bool SameLink(const Link& a, const Link& b) {
  return a.relation == b.relation && a.subject_entity == b.subject_entity &&
         a.subject_t == b.subject_t && a.object_id == b.object_id &&
         a.object_is_entity == b.object_is_entity;
}

bool SameWarning(const CollisionWarning& a, const CollisionWarning& b) {
  return a.entity_a == b.entity_a && a.entity_b == b.entity_b &&
         a.at == b.at && SameDouble(a.cpa.tcpa_s, b.cpa.tcpa_s) &&
         SameDouble(a.cpa.dcpa_m, b.cpa.dcpa_m) &&
         SameDouble(a.cpa.distance_now_m, b.cpa.distance_now_m);
}

void CompareStores(const std::string& what,
                   const tcmf::store::KnowledgeStore& got,
                   const tcmf::store::KnowledgeStore& want, Accounting* acct) {
  acct->Attempt(want.size());
  // Map every id of `got` to the id of the same term in `want`.
  const tcmf::rdf::Dictionary& gd = got.dictionary();
  const tcmf::rdf::Dictionary& wd = want.dictionary();
  std::vector<uint64_t> to_want(gd.size() + 1, tcmf::rdf::Dictionary::kNoId);
  for (uint64_t id = 1; id <= gd.size(); ++id) {
    if (auto term = gd.Decode(id)) to_want[id] = wd.Lookup(*term);
  }
  using Triple3 = std::array<uint64_t, 3>;
  std::vector<Triple3> mapped, expected;
  mapped.reserve(got.size());
  expected.reserve(want.size());
  for (const uint64_t p : got.adjacency().predicates()) {
    const auto [b, e] = got.adjacency().Subjects(p);
    for (auto it = b; it != e; ++it) {
      mapped.push_back({to_want[it->key], to_want[p], to_want[it->value]});
    }
  }
  for (const uint64_t p : want.adjacency().predicates()) {
    const auto [b, e] = want.adjacency().Subjects(p);
    for (auto it = b; it != e; ++it) {
      expected.push_back({it->key, p, it->value});
    }
  }
  std::sort(mapped.begin(), mapped.end());
  std::sort(expected.begin(), expected.end());
  // Multiset difference in both directions.
  uint64_t missing = 0, extra = 0;
  size_t i = 0, j = 0;
  while (i < mapped.size() || j < expected.size()) {
    if (j == expected.size() || (i < mapped.size() && mapped[i] < expected[j])) {
      ++extra;
      ++i;
    } else if (i == mapped.size() || expected[j] < mapped[i]) {
      ++missing;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  if (missing) {
    acct->Fail(what + ": " + std::to_string(missing) + " triples missing",
               missing);
  }
  if (extra) {
    acct->Fail(what + ": " + std::to_string(extra) + " unexpected triples",
               extra);
  }
}

}  // namespace perfbench
