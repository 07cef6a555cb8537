#include "geom/spatial_index.h"

#include <algorithm>
#include <cmath>

#include "geom/geo.h"
#include "geom/grid.h"

namespace tcmf::geom {

const char* ToString(SpatialBackend backend) {
  switch (backend) {
    case SpatialBackend::kScan:
      return "scan";
    case SpatialBackend::kGrid:
      return "grid";
    case SpatialBackend::kRtree:
      return "rtree";
  }
  return "unknown";
}

namespace {

/// Bounding box guaranteed to contain every point within radius_m of
/// (lon, lat) — the grid backend's candidate dilation (rigorous
/// tangent-meridian bound, degenerating to the full longitude span near
/// the poles).
BBox DilatedBox(double lon, double lat, double radius_m) {
  double dlat = 0.0, dlon = 0.0;
  RadiusBoundsDeg(lat, radius_m, &dlat, &dlon);
  return BBox{lon - dlon, lat - dlat, lon + dlon, lat + dlat};
}

/// Removes one element equal to `p` from `points` (order is not kept:
/// visiting order is unspecified anyway); false when none matches.
bool RemoveOne(std::vector<IndexPoint>& points, const IndexPoint& p) {
  auto it = std::find(points.begin(), points.end(), p);
  if (it == points.end()) return false;
  *it = points.back();
  points.pop_back();
  return true;
}

class ScanIndex final : public SpatialIndex {
 public:
  void Insert(const IndexPoint& p) override { points_.push_back(p); }

  bool Remove(const IndexPoint& p) override {
    return RemoveOne(points_, p);
  }

  size_t EvictBefore(TimeMs cutoff) override {
    size_t before = points_.size();
    std::erase_if(points_,
                  [cutoff](const IndexPoint& p) { return p.t < cutoff; });
    return before - points_.size();
  }

  void VisitWithinRadius(
      double lon, double lat, double radius_m, TimeMs min_t,
      const std::function<void(const IndexPoint&)>& fn) const override {
    for (const IndexPoint& p : points_) {
      if (p.t < min_t) continue;
      if (HaversineM(lon, lat, p.lon, p.lat) <= radius_m) fn(p);
    }
  }

  size_t size() const override { return points_.size(); }
  const char* name() const override { return "scan"; }

 private:
  std::vector<IndexPoint> points_;
};

class GridIndex final : public SpatialIndex {
 public:
  explicit GridIndex(const SpatialIndexConfig& config)
      : grid_(config.extent, config.grid_cols, config.grid_rows),
        cells_(grid_.cell_count()) {}

  void Insert(const IndexPoint& p) override {
    cells_[grid_.CellOf(p.lon, p.lat)].push_back(p);
    ++size_;
  }

  bool Remove(const IndexPoint& p) override {
    if (!RemoveOne(cells_[grid_.CellOf(p.lon, p.lat)], p)) return false;
    --size_;
    return true;
  }

  size_t EvictBefore(TimeMs cutoff) override {
    size_t removed = 0;
    for (auto& cell : cells_) {
      size_t before = cell.size();
      std::erase_if(cell,
                    [cutoff](const IndexPoint& p) { return p.t < cutoff; });
      removed += before - cell.size();
    }
    size_ -= removed;
    return removed;
  }

  void VisitWithinRadius(
      double lon, double lat, double radius_m, TimeMs min_t,
      const std::function<void(const IndexPoint&)>& fn) const override {
    // CellOf clamps monotonically, so every stored point inside the
    // dilated box (even out-of-extent ones clamped to edge cells) lives
    // in a cell this sweep visits — the exact-filter contract holds.
    // The clamped col/row range is walked in place: a probe allocates
    // nothing.
    BBox box = DilatedBox(lon, lat, radius_m);
    uint32_t c0, r0, c1, r1;
    grid_.ColRowOf(box.min_lon, box.min_lat, &c0, &r0);
    grid_.ColRowOf(box.max_lon, box.max_lat, &c1, &r1);
    for (uint32_t r = r0; r <= r1; ++r) {
      for (uint32_t c = c0; c <= c1; ++c) {
        for (const IndexPoint& p : cells_[grid_.CellIndex(c, r)]) {
          if (p.t < min_t) continue;
          if (HaversineM(lon, lat, p.lon, p.lat) <= radius_m) fn(p);
        }
      }
    }
  }

  size_t size() const override { return size_; }
  const char* name() const override { return "grid"; }

 private:
  EquiGrid grid_;
  std::vector<std::vector<IndexPoint>> cells_;
  size_t size_ = 0;
};

class RtreeIndex final : public SpatialIndex {
 public:
  RtreeIndex(const SpatialIndexConfig& config, std::vector<IndexPoint> bulk)
      : tree_(config.rtree) {
    if (bulk.empty()) return;
    std::vector<RtreeItem> items;
    items.reserve(bulk.size());
    for (const IndexPoint& p : bulk) items.push_back(Item(p));
    tree_ = RStarTree::BulkLoad(std::move(items), config.rtree);
  }

  void Insert(const IndexPoint& p) override { tree_.Insert(Item(p)); }

  bool Remove(const IndexPoint& p) override { return tree_.Remove(Item(p)); }

  size_t EvictBefore(TimeMs cutoff) override {
    if (cutoff == kTimeMin) return 0;
    // Stored boxes are points (min_t == max_t), so a full-extent range
    // query with max_t = cutoff-1 enumerates exactly the stale entries;
    // time pruning skips whole subtrees of fresh points.
    StBox stale_window = StBox::Spatial(BBox{-180.0, -90.0, 180.0, 90.0});
    stale_window.max_t = cutoff - 1;
    std::vector<RtreeItem> stale;
    tree_.Range(stale_window,
                [&](const RtreeItem& it) { stale.push_back(it); });
    for (const RtreeItem& it : stale) tree_.Remove(it);
    return stale.size();
  }

  void VisitWithinRadius(
      double lon, double lat, double radius_m, TimeMs min_t,
      const std::function<void(const IndexPoint&)>& fn) const override {
    tree_.WithinRadius(lon, lat, radius_m, min_t, kTimeMax,
                       [&](const RtreeItem& it) {
                         fn(IndexPoint{it.id, it.box.min_t,
                                       it.box.CenterLon(),
                                       it.box.CenterLat()});
                       });
  }

  size_t size() const override { return tree_.size(); }
  const char* name() const override { return "rtree"; }

 private:
  static RtreeItem Item(const IndexPoint& p) {
    return {StBox::Point(p.lon, p.lat, p.t), p.id};
  }

  RStarTree tree_;
};

}  // namespace

std::unique_ptr<SpatialIndex> MakeSpatialIndex(SpatialBackend backend,
                                               const SpatialIndexConfig& config,
                                               std::vector<IndexPoint> bulk) {
  std::unique_ptr<SpatialIndex> index;
  switch (backend) {
    case SpatialBackend::kScan:
      index = std::make_unique<ScanIndex>();
      break;
    case SpatialBackend::kGrid:
      index = std::make_unique<GridIndex>(config);
      break;
    case SpatialBackend::kRtree:
      return std::make_unique<RtreeIndex>(config, std::move(bulk));
  }
  for (const IndexPoint& p : bulk) index->Insert(p);
  return index;
}

}  // namespace tcmf::geom
