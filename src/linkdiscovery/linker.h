#ifndef TCMF_LINKDISCOVERY_LINKER_H_
#define TCMF_LINKDISCOVERY_LINKER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/position.h"
#include "geom/geometry.h"
#include "geom/grid.h"
#include "geom/spatial_index.h"

namespace tcmf::linkdiscovery {

/// A discovered spatio-temporal relation (Section 4.2.4): dul:within or
/// geosparql:nearTo between a streamed point and a stationary area, or
/// between two streamed points (proximity in space and time).
struct Link {
  enum class Relation { kWithin, kNearTo };
  Relation relation = Relation::kWithin;
  uint64_t subject_entity = 0;
  TimeMs subject_t = 0;
  /// Area id for point-area links; other entity id for point-point links.
  uint64_t object_id = 0;
  bool object_is_entity = false;
};

/// Configuration of the streaming linker.
struct LinkerConfig {
  geom::BBox extent{-6.0, 35.0, 10.0, 44.0};
  uint32_t grid_cols = 64;
  uint32_t grid_rows = 64;
  /// nearTo distance threshold, meters.
  double near_distance_m = 5000.0;
  /// Temporal window for point-point proximity; points further apart in
  /// time than this can never satisfy the relation, and are evicted by the
  /// book-keeping pass.
  TimeMs temporal_window_ms = 5 * kMillisPerMinute;
  /// Cell masks on/off (the paper's optimization; the ~5x lever).
  bool use_masks = true;
  /// Sub-raster resolution per cell for the mask (k x k subcells).
  int mask_resolution = 8;
  /// Evaluate point-point proximity links.
  bool link_moving_pairs = false;
  /// Index backing point-point candidate generation. All backends
  /// produce identical links and stats (the SpatialIndex contract). The
  /// stream keeps only the points of the last temporal window, with one
  /// insert, one probe and amortised eviction per report; there insert
  /// and eviction dominate and the equi-grid wins (docs/ARCHITECTURE.md
  /// §6). kRtree wins static hub queries over large point sets.
  geom::SpatialBackend pair_index = geom::SpatialBackend::kGrid;
};

/// Counters for throughput/pruning analysis.
struct LinkerStats {
  size_t points_processed = 0;
  size_t polygon_tests = 0;     ///< refinement point-in-polygon calls
  size_t distance_tests = 0;    ///< refinement distance computations
  size_t mask_skips = 0;        ///< points short-circuited by the mask
  size_t pair_candidates = 0;   ///< point-point candidate pairs examined
  size_t links_within = 0;
  size_t links_near_area = 0;
  size_t links_near_entity = 0;
};

/// Streaming spatio-temporal link discovery with equi-grid blocking and
/// cell masks. The mask of a cell is the sub-raster of the cell not
/// covered (nor near-covered) by any candidate region: a point landing in
/// the mask needs no refinement at all.
class SpatioTemporalLinker {
 public:
  SpatioTemporalLinker(const LinkerConfig& config,
                       std::vector<geom::Area> regions);

  /// Processes one streamed point; returns the links it produced.
  std::vector<Link> Observe(const Position& p);

  const LinkerStats& stats() const { return stats_; }
  const std::vector<geom::Area>& regions() const { return regions_; }

  /// Fraction of cells fully free of any region (entirely in the mask).
  double FullyFreeCellFraction() const;

 private:
  LinkerConfig config_;
  std::vector<geom::Area> regions_;
  geom::EquiGrid grid_;
  /// cell -> candidate region indexes (bbox-dilated by near distance).
  std::vector<std::vector<uint32_t>> cell_regions_;
  /// cell -> bitmask of mask_resolution^2 subcells; bit set = region-free.
  std::vector<std::vector<bool>> cell_mask_;
  /// Recent moving-entity points (for point-point proximity), behind the
  /// configured SpatialIndex backend. Correctness of link outputs rests
  /// on the query-side temporal filter; eviction is amortized
  /// book-keeping that only bounds memory.
  std::unique_ptr<geom::SpatialIndex> pair_points_;
  int observes_since_evict_ = 0;
  LinkerStats stats_;
};

/// Baseline without blocking: every point refined against every region.
/// Used by the benchmarks to report the blocking + mask speedups.
class NaiveLinker {
 public:
  NaiveLinker(double near_distance_m, std::vector<geom::Area> regions);

  std::vector<Link> Observe(const Position& p);

  const LinkerStats& stats() const { return stats_; }

 private:
  double near_distance_m_;
  std::vector<geom::Area> regions_;
  LinkerStats stats_;
};

}  // namespace tcmf::linkdiscovery

#endif  // TCMF_LINKDISCOVERY_LINKER_H_
