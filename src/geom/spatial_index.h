#ifndef TCMF_GEOM_SPATIAL_INDEX_H_
#define TCMF_GEOM_SPATIAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/position.h"
#include "geom/geometry.h"
#include "geom/rtree.h"

namespace tcmf::geom {

/// Which structure backs a SpatialIndex. kScan is the O(n) reference
/// implementation kept for differential testing; kGrid is the equi-grid
/// blocking index; kRtree is the STR/R*-tree.
enum class SpatialBackend { kScan, kGrid, kRtree };

const char* ToString(SpatialBackend backend);

/// One indexed point observation.
struct IndexPoint {
  uint64_t id = 0;
  TimeMs t = 0;
  double lon = 0.0;
  double lat = 0.0;

  bool operator==(const IndexPoint&) const = default;
};

struct SpatialIndexConfig {
  /// Used only by the grid backend (cell tiling); points outside clamp
  /// to edge cells, exactly as EquiGrid does.
  BBox extent{-6.0, 35.0, 10.0, 44.0};
  uint32_t grid_cols = 64;
  uint32_t grid_rows = 64;
  /// Used only by the rtree backend.
  RStarTree::Options rtree;
};

/// Dynamic point index with one query kernel shared by link discovery
/// and CPA pair pruning. The filtering contract is EXACT and identical
/// across backends: VisitWithinRadius visits precisely the stored points
/// with HaversineM(query, point) <= radius_m (inclusive) and t >= min_t,
/// in unspecified order. Candidate generation inside a backend may
/// over-approximate, but every backend refines with the same haversine,
/// so swapping backends never changes consumer outputs *or* their
/// candidate/test counters.
///
/// Not thread-safe for mutation; concurrent VisitWithinRadius calls on a
/// quiescent index are safe on every backend.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual void Insert(const IndexPoint& p) = 0;
  /// Removes one stored point equal to `p` (same id, time and exact
  /// coordinates); returns false when none is stored. Consumers that keep
  /// one point per entity pass the previous point they inserted: the
  /// grid then searches one cell, the rtree only the nodes whose box
  /// contains the point.
  virtual bool Remove(const IndexPoint& p) = 0;
  /// Removes every stored point with t < cutoff; returns how many.
  virtual size_t EvictBefore(TimeMs cutoff) = 0;

  /// Visits exactly the points within radius_m great-circle meters
  /// (inclusive) of (lon, lat) with t >= min_t.
  virtual void VisitWithinRadius(
      double lon, double lat, double radius_m, TimeMs min_t,
      const std::function<void(const IndexPoint&)>& fn) const = 0;

  virtual size_t size() const = 0;
  virtual const char* name() const = 0;
};

/// Factory. `bulk` seeds the index with an initial point set — the rtree
/// backend STR-bulk-loads it, the others insert point by point.
std::unique_ptr<SpatialIndex> MakeSpatialIndex(
    SpatialBackend backend, const SpatialIndexConfig& config = {},
    std::vector<IndexPoint> bulk = {});

}  // namespace tcmf::geom

#endif  // TCMF_GEOM_SPATIAL_INDEX_H_
