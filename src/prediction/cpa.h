#ifndef TCMF_PREDICTION_CPA_H_
#define TCMF_PREDICTION_CPA_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/position.h"
#include "geom/spatial_index.h"

namespace tcmf::prediction {

/// Closest-point-of-approach analysis between two moving entities — the
/// collision-risk assessment of the paper's Section 2 maritime scenario
/// ("predict which other vessels will cross the areas where the fishing
/// vessels are fishing, sending a warning ... the potential risk
/// assessment should be as accurate as possible").
struct CpaResult {
  /// Time from `now` until the closest approach, seconds (0 when the
  /// entities are already diverging).
  double tcpa_s = 0.0;
  /// Distance at closest approach, meters.
  double dcpa_m = 0.0;
  /// Current distance, meters.
  double distance_now_m = 0.0;
};

/// Computes CPA/TCPA from the two entities' current states (position,
/// speed, heading), assuming constant velocity — the standard COLREG-style
/// risk screen. Positions may have different timestamps; the later one is
/// taken as "now" and the earlier state is advanced to it.
CpaResult ComputeCpa(const Position& a, const Position& b);

/// A collision warning produced by the screen.
struct CollisionWarning {
  uint64_t entity_a = 0;
  uint64_t entity_b = 0;
  TimeMs at = 0;
  CpaResult cpa;
};

/// Screening thresholds: warn when DCPA < `dcpa_m` and 0 <= TCPA <
/// `tcpa_s`.
struct CpaScreenOptions {
  double dcpa_m = 1000.0;
  double tcpa_s = 15 * 60.0;
  /// Pairs further apart than this right now are not evaluated.
  double max_range_m = 20000.0;
  /// Index pruning the per-report range query. Every backend evaluates
  /// exactly the entities within max_range_m, so warnings and
  /// pairs_evaluated() are backend-independent. The index holds one point
  /// per entity and takes one probe, one Remove of the entity's previous
  /// point and one Insert per report; on that small, churning set the
  /// equi-grid costs a fraction of the rtree's forced-reinsert inserts
  /// (docs/ARCHITECTURE.md §6), hence the default.
  geom::SpatialBackend index = geom::SpatialBackend::kGrid;
  geom::SpatialIndexConfig index_config;
};

/// Streaming pairwise CPA screen over position reports: tracks the latest
/// state per entity and evaluates new reports against the entities within
/// range, found through a SpatialIndex over each entity's latest
/// position.
class CpaScreen {
 public:
  explicit CpaScreen(const CpaScreenOptions& options)
      : options_(options),
        index_(geom::MakeSpatialIndex(options.index, options.index_config)) {}

  /// Processes one report; returns warnings it triggered (deduplicated:
  /// a pair re-warns only after leaving the warning condition).
  std::vector<CollisionWarning> Observe(const Position& p);

  size_t pairs_evaluated() const { return pairs_evaluated_; }

 private:
  CpaScreenOptions options_;
  /// Latest position per entity, mirrored into index_ (one point per id:
  /// Observe removes the previous point, read from here, before it
  /// inserts the new one).
  std::unique_ptr<geom::SpatialIndex> index_;
  std::unordered_map<uint64_t, Position> latest_;
  /// Pairs currently in the warning state (key = min_id << 32 | max_id).
  std::unordered_set<uint64_t> active_;
  size_t pairs_evaluated_ = 0;
};

}  // namespace tcmf::prediction

#endif  // TCMF_PREDICTION_CPA_H_
