// The single-threaded reference: the same module calls the pipelined
// graph makes, in the same per-entity order, one pass per module so each
// pass's wall time divided by its call count is that module's per-call
// service time. Also the oracle every pipelined output is checked
// against.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cep/forecast.h"
#include "geom/stcell.h"
#include "insitu/lowlevel.h"
#include "linkdiscovery/linker.h"
#include "prediction/cpa.h"
#include "rdf/rdfgen.h"
#include "store/kgstore.h"
#include "synopses/critical_points.h"

namespace perfbench {

/// Module configuration shared by the pipelined graph and the reference.
/// Library knobs stay at their defaults; the domain settings (link
/// distance, CPA thresholds, area catalogs) follow
/// examples/maritime_monitoring.cpp.
struct Fig2Config {
  tcmf::insitu::StreamCleaner::Options clean;
  tcmf::synopses::SynopsesConfig synopses;
  tcmf::linkdiscovery::LinkerConfig linker;
  std::vector<tcmf::geom::Area> areas;
  tcmf::prediction::CpaScreenOptions cpa;
  /// Moored traffic is not a collision risk (as in the example).
  double cpa_min_speed_mps = 0.5;
  /// Per-entity forecaster prototype (NorthToSouth reversal pattern with
  /// an input model fitted on a separate training feed); copied per
  /// entity, since building one solves the pattern Markov chain.
  std::shared_ptr<const tcmf::cep::WayebEngine> cep_proto;
  tcmf::rdf::GraphTemplate tmpl;
  tcmf::rdf::VariableVector vars;
  tcmf::geom::StCellEncoder encoder{{-10.0, 34.0, 10.0, 45.0}, 10, 0,
                                    15 * tcmf::kMillisPerMinute};
};

/// Builds the configuration for `seed` (area catalogs and the CEP
/// training feed derive from it).
Fig2Config MakeFig2Config(uint64_t seed);

/// IRI prefix the position template mints node IRIs under.
inline constexpr const char* kNodePrefix = "http://tcmf/";

/// Marks a critical point emitted by the end-of-stream flush, which no
/// input record triggers.
inline constexpr uint32_t kNoTrigger = UINT32_MAX;

struct RefCp {
  tcmf::synopses::CriticalPoint cp;
  uint32_t trigger = kNoTrigger;  ///< input index whose Observe emitted it
};

struct RefCep {
  uint32_t cp_ordinal = 0;
  tcmf::cep::WayebEngine::StepResult step;
};

/// Expected outputs of one entity of the entity-keyed job.
struct EntityRef {
  std::vector<TimeMs> cleaned_t;  ///< accepted report times, in order
  std::vector<RefCp> cps;
  std::vector<RefCep> cep;
};

/// (shard, entity id): the entity-keyed job keeps state per shard.
using EntityKey = std::pair<uint32_t, uint64_t>;

/// Per-module pass times of the reference (seconds) and call counts.
struct ModuleTimes {
  double clean_s = 0, synopses_s = 0, cep_s = 0, rdf_s = 0, add_s = 0,
         compile_s = 0, link_s = 0, cpa_s = 0;
  uint64_t clean_calls = 0, synopses_calls = 0, cep_calls = 0,
           rdf_calls = 0, add_calls = 0, link_calls = 0, cpa_calls = 0;
};

/// Reference of the entity-keyed job over `feed.inputs[0, n)`, sharded by
/// `shard_of[i]` exactly as the topic partitions the feed.
struct KeyedReference {
  std::map<EntityKey, EntityRef> entities;
  /// Per-shard knowledge stores holding the critical points' triples,
  /// compiled.
  std::vector<std::unique_ptr<tcmf::store::KnowledgeStore>> stores;
  uint64_t positions = 0, cleaned = 0, cps = 0, cep_outputs = 0,
           forecasts = 0, triples = 0;
  ModuleTimes times;
};

KeyedReference RunKeyedReference(const Fig2Config& cfg, const Feed& feed,
                                 size_t n, const std::vector<uint32_t>& shard_of,
                                 size_t shards);

/// Replay of the cross-entity job over the positions it consumed, in the
/// order it consumed them: links and warnings per consumed ordinal.
struct CrossReference {
  std::vector<std::vector<tcmf::linkdiscovery::Link>> links;
  std::vector<std::vector<tcmf::prediction::CollisionWarning>> warnings;
  tcmf::linkdiscovery::LinkerStats linker_stats;
  uint64_t cpa_observations = 0, cpa_pairs = 0, link_count = 0,
           warning_count = 0;
  ModuleTimes times;
};

CrossReference RunCrossReference(const Fig2Config& cfg,
                                 const std::vector<Position>& consumed);

// ---------------------------------------------------------------------
// Output comparison.

bool SameCp(const tcmf::synopses::CriticalPoint& a,
            const tcmf::synopses::CriticalPoint& b);
bool SameStep(const tcmf::cep::WayebEngine::StepResult& a,
              const tcmf::cep::WayebEngine::StepResult& b);
bool SameLink(const tcmf::linkdiscovery::Link& a,
              const tcmf::linkdiscovery::Link& b);
bool SameWarning(const tcmf::prediction::CollisionWarning& a,
                 const tcmf::prediction::CollisionWarning& b);

/// Compares a produced sequence against the expected one element by
/// element: every expected element is one attempted operation, every
/// mismatch, missing or extra element one failure.
template <typename T, typename Eq>
void CompareSequence(const std::string& what, const std::vector<T>& got,
                     const std::vector<T>& want, Eq eq, Accounting* acct) {
  acct->Attempt(want.size());
  const size_t common = std::min(got.size(), want.size());
  for (size_t i = 0; i < common; ++i) {
    if (!eq(got[i], want[i])) {
      acct->Fail(what + ": element " + std::to_string(i) + " differs");
    }
  }
  if (got.size() < want.size()) {
    acct->Fail(what + ": " + std::to_string(want.size() - got.size()) +
                   " missing",
               want.size() - got.size());
  } else if (got.size() > want.size()) {
    acct->Fail(what + ": " + std::to_string(got.size() - want.size()) +
                   " extra",
               got.size() - want.size());
  }
}

/// Checks that `got` holds exactly the triple multiset of `want` (both
/// compiled; dictionary ids may differ, terms must not). Counts one
/// attempted operation per expected triple.
void CompareStores(const std::string& what,
                   const tcmf::store::KnowledgeStore& got,
                   const tcmf::store::KnowledgeStore& want, Accounting* acct);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
