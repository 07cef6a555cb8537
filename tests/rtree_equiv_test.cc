// Oracle-differential harness for the STR/R*-tree (geom/rtree.h) and the
// SpatialIndex backends (geom/spatial_index.h): every query kernel is
// checked as a set against an O(n²) brute-force oracle over seeded
// uniform / clustered / grid-aligned point populations, including
// antimeridian-straddling and near-pole edge cases, k-NN ties, and
// incremental insert/delete against bulk load.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/geo.h"
#include "geom/rtree.h"
#include "geom/spatial_index.h"

namespace tcmf::geom {
namespace {

// ---------------------------------------------------------------------
// Point-set generators. Every point is a degenerate StBox with the
// timestamp in [0, 100) so time-window filtering has teeth.

std::vector<RtreeItem> UniformPoints(size_t n, Rng& rng, double min_lon,
                                     double min_lat, double max_lon,
                                     double max_lat) {
  std::vector<RtreeItem> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({StBox::Point(rng.Uniform(min_lon, max_lon),
                                rng.Uniform(min_lat, max_lat),
                                rng.UniformInt(0, 99)),
                   i});
  }
  return out;
}

/// Port-like traffic: a few Gaussian hotspots holding most points.
std::vector<RtreeItem> ClusteredPoints(size_t n, Rng& rng) {
  struct Hotspot {
    double lon, lat;
  };
  std::vector<Hotspot> hubs;
  for (int i = 0; i < 5; ++i) {
    hubs.push_back({rng.Uniform(-5.0, 9.0), rng.Uniform(36.0, 43.0)});
  }
  std::vector<RtreeItem> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Hotspot& h = hubs[static_cast<size_t>(rng.UniformInt(0, 4))];
    out.push_back({StBox::Point(h.lon + rng.Gaussian(0.0, 0.05),
                                h.lat + rng.Gaussian(0.0, 0.05),
                                rng.UniformInt(0, 99)),
                   i});
  }
  return out;
}

/// Exact-duplicate-heavy lattice: stresses ties and shared boundaries.
std::vector<RtreeItem> GridAlignedPoints(size_t n, Rng& rng) {
  std::vector<RtreeItem> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({StBox::Point(static_cast<double>(rng.UniformInt(0, 15)) / 2,
                                35.0 + static_cast<double>(rng.UniformInt(0, 15)) / 2,
                                rng.UniformInt(0, 99)),
                   i});
  }
  return out;
}

// ---------------------------------------------------------------------
// Brute-force oracles. Range handles wrapped query boxes the same way
// the tree documents them (min_lon > max_lon = through the antimeridian).

bool OracleBoxMatch(const StBox& q, const StBox& b) {
  bool lon_ok;
  if (q.min_lon <= q.max_lon) {
    lon_ok = !(b.min_lon > q.max_lon || b.max_lon < q.min_lon);
  } else {
    lon_ok = b.max_lon >= q.min_lon || b.min_lon <= q.max_lon;
  }
  return lon_ok && !(b.min_lat > q.max_lat || b.max_lat < q.min_lat ||
                     b.min_t > q.max_t || b.max_t < q.min_t);
}

std::set<uint64_t> OracleRange(const std::vector<RtreeItem>& items,
                               const StBox& q) {
  std::set<uint64_t> out;
  for (const RtreeItem& it : items) {
    if (OracleBoxMatch(q, it.box)) out.insert(it.id);
  }
  return out;
}

std::set<uint64_t> OracleRadius(const std::vector<RtreeItem>& items,
                                double lon, double lat, double radius_m,
                                TimeMs min_t, TimeMs max_t) {
  std::set<uint64_t> out;
  for (const RtreeItem& it : items) {
    if (!it.box.TimeOverlaps(min_t, max_t)) continue;
    if (HaversineM(lon, lat, it.box.CenterLon(), it.box.CenterLat()) <=
        radius_m) {
      out.insert(it.id);
    }
  }
  return out;
}

/// k-NN oracle with the tree's documented tie rule: sort by (distance,
/// id), take the first k. Distances are the same HaversineM over the
/// same doubles on both sides, so comparison is exact.
std::vector<std::pair<double, uint64_t>> OracleKnn(
    const std::vector<RtreeItem>& items, double lon, double lat, size_t k,
    TimeMs min_t, TimeMs max_t) {
  std::vector<std::pair<double, uint64_t>> all;
  for (const RtreeItem& it : items) {
    if (!it.box.TimeOverlaps(min_t, max_t)) continue;
    all.emplace_back(
        HaversineM(lon, lat, it.box.CenterLon(), it.box.CenterLat()), it.id);
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

std::set<uint64_t> TreeRange(const RStarTree& tree, const StBox& q) {
  std::set<uint64_t> out;
  tree.Range(q, [&](const RtreeItem& it) {
    EXPECT_TRUE(out.insert(it.id).second) << "duplicate visit id=" << it.id;
  });
  return out;
}

std::set<uint64_t> TreeRadius(const RStarTree& tree, double lon, double lat,
                              double radius_m, TimeMs min_t, TimeMs max_t) {
  std::set<uint64_t> out;
  tree.WithinRadius(lon, lat, radius_m, min_t, max_t,
                    [&](const RtreeItem& it) { out.insert(it.id); });
  return out;
}

// ---------------------------------------------------------------------

TEST(RtreeOracleTest, DifferentialSweepMatchesBruteForce) {
  int combos = 0;
  for (int dist = 0; dist < 3; ++dist) {
    for (uint64_t seed : {7u, 21u, 101u, 733u}) {
      Rng rng(seed + dist * 1000);
      std::vector<RtreeItem> items;
      switch (dist) {
        case 0:
          items = UniformPoints(400, rng, -6.0, 35.0, 10.0, 44.0);
          break;
        case 1:
          items = ClusteredPoints(400, rng);
          break;
        default:
          items = GridAlignedPoints(400, rng);
          break;
      }
      // Odd seeds exercise the incremental insert path, even seeds STR.
      RStarTree tree;
      if (seed % 2 == 0) {
        tree = RStarTree::BulkLoad(items);
      } else {
        for (const RtreeItem& it : items) tree.Insert(it);
      }
      ASSERT_EQ(tree.size(), items.size());

      for (int q = 0; q < 6; ++q) {
        double qlon = rng.Uniform(-7.0, 11.0);
        double qlat = rng.Uniform(34.0, 45.0);
        TimeMs min_t = rng.UniformInt(0, 50);
        TimeMs max_t = min_t + rng.UniformInt(0, 60);

        StBox box{qlon, qlat, qlon + rng.Uniform(0.0, 3.0),
                  qlat + rng.Uniform(0.0, 3.0), min_t, max_t};
        EXPECT_EQ(TreeRange(tree, box), OracleRange(items, box));
        ++combos;

        double radius = rng.Uniform(100.0, 200000.0);
        EXPECT_EQ(TreeRadius(tree, qlon, qlat, radius, min_t, max_t),
                  OracleRadius(items, qlon, qlat, radius, min_t, max_t));
        ++combos;

        size_t k = static_cast<size_t>(rng.UniformInt(1, 30));
        auto got = tree.NearestK(qlon, qlat, k, min_t, max_t);
        auto want = OracleKnn(items, qlon, qlat, k, min_t, max_t);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].second) << "rank " << i;
          EXPECT_EQ(HaversineM(qlon, qlat, got[i].box.CenterLon(),
                               got[i].box.CenterLat()),
                    want[i].first);
        }
        ++combos;
      }
    }
  }
  // The acceptance bar: >= 50 seeded point-set × query combos.
  EXPECT_GE(combos, 50);
}

TEST(RtreeOracleTest, BulkLoadAndIncrementalAgree) {
  Rng rng(99);
  std::vector<RtreeItem> items = ClusteredPoints(600, rng);
  RStarTree bulk = RStarTree::BulkLoad(items);
  RStarTree incr;
  for (const RtreeItem& it : items) incr.Insert(it);
  EXPECT_EQ(bulk.size(), incr.size());
  EXPECT_GT(incr.stats().forced_reinserts, 0u);
  for (int q = 0; q < 12; ++q) {
    double lon = rng.Uniform(-6.0, 10.0), lat = rng.Uniform(35.0, 44.0);
    double r = rng.Uniform(1000.0, 100000.0);
    EXPECT_EQ(TreeRadius(bulk, lon, lat, r, kTimeMin, kTimeMax),
              TreeRadius(incr, lon, lat, r, kTimeMin, kTimeMax));
    auto a = bulk.NearestK(lon, lat, 15);
    auto b = incr.NearestK(lon, lat, 15);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(RtreeOracleTest, KnnTieAtEqualDistanceIsDeterministicById) {
  // Points mirrored north/south of the query latitude are at *exactly*
  // equal haversine distance. All ties must resolve by ascending id.
  RStarTree tree;
  for (uint64_t i = 0; i < 8; ++i) {
    double dlat = 0.1 * static_cast<double>(i / 2 + 1);
    double lat = (i % 2 == 0) ? 40.0 + dlat : 40.0 - dlat;
    tree.Insert({StBox::Point(5.0, lat, 0), 100 - i});  // ids descending
  }
  auto got = tree.NearestK(5.0, 40.0, 8);
  ASSERT_EQ(got.size(), 8u);
  for (size_t i = 0; i + 1 < got.size(); i += 2) {
    double d0 = HaversineM(5.0, 40.0, got[i].box.CenterLon(),
                           got[i].box.CenterLat());
    double d1 = HaversineM(5.0, 40.0, got[i + 1].box.CenterLon(),
                           got[i + 1].box.CenterLat());
    EXPECT_EQ(d0, d1) << "pair " << i << " not an exact tie";
    EXPECT_LT(got[i].id, got[i + 1].id) << "tie not ordered by id";
  }
}

TEST(RtreeOracleTest, AntimeridianStraddlingRangeBox) {
  Rng rng(4242);
  std::vector<RtreeItem> items;
  for (uint64_t i = 0; i < 300; ++i) {
    double lon = rng.Uniform(-180.0, 180.0);
    items.push_back({StBox::Point(lon, rng.Uniform(-50.0, 50.0),
                                  rng.UniformInt(0, 99)),
                     i});
  }
  RStarTree tree = RStarTree::BulkLoad(items);
  // Wrapped query: min_lon > max_lon covers [170, 180] ∪ [-180, -165].
  StBox wrapped{170.0, -30.0, -165.0, 30.0, kTimeMin, kTimeMax};
  std::set<uint64_t> got = TreeRange(tree, wrapped);
  EXPECT_EQ(got, OracleRange(items, wrapped));
  // Sanity: the wrapped result is the union of the two unwrapped halves.
  StBox east{170.0, -30.0, 180.0, 30.0, kTimeMin, kTimeMax};
  StBox west{-180.0, -30.0, -165.0, 30.0, kTimeMin, kTimeMax};
  std::set<uint64_t> unioned = TreeRange(tree, east);
  std::set<uint64_t> w = TreeRange(tree, west);
  unioned.insert(w.begin(), w.end());
  EXPECT_EQ(got, unioned);
}

TEST(RtreeOracleTest, AntimeridianRadiusWraps) {
  // A query just west of the antimeridian must reach points just east
  // of it: 179.8°E to -179.8°W is ~34 km at lat 0, not half the globe.
  RStarTree tree;
  tree.Insert({StBox::Point(-179.8, 0.0, 0), 1});
  tree.Insert({StBox::Point(179.0, 0.0, 0), 2});
  tree.Insert({StBox::Point(0.0, 0.0, 0), 3});
  std::set<uint64_t> got =
      TreeRadius(tree, 179.8, 0.0, 120000.0, kTimeMin, kTimeMax);
  EXPECT_EQ(got, (std::set<uint64_t>{1, 2}));
  auto knn = tree.NearestK(179.8, 0.0, 2);
  ASSERT_EQ(knn.size(), 2u);
  EXPECT_EQ(knn[0].id, 1u);  // 0.4° across the seam beats 0.8° within
  EXPECT_EQ(knn[1].id, 2u);
}

TEST(RtreeOracleTest, NearPoleQueryBox) {
  Rng rng(1313);
  std::vector<RtreeItem> items;
  for (uint64_t i = 0; i < 200; ++i) {
    items.push_back({StBox::Point(rng.Uniform(-180.0, 180.0),
                                  rng.Uniform(80.0, 90.0), 0),
                     i});
  }
  RStarTree tree = RStarTree::BulkLoad(items);
  StBox cap{-180.0, 88.0, 180.0, 90.0, kTimeMin, kTimeMax};
  EXPECT_EQ(TreeRange(tree, cap), OracleRange(items, cap));
  // Radius queries centred on the pole: longitude is meaningless there,
  // distance is purely meridional, and the MinDistM bound must not
  // prune valid subtrees.
  for (double radius : {50000.0, 300000.0, 1200000.0}) {
    EXPECT_EQ(TreeRadius(tree, 0.0, 90.0, radius, kTimeMin, kTimeMax),
              OracleRadius(items, 0.0, 90.0, radius, kTimeMin, kTimeMax));
  }
  auto knn = tree.NearestK(45.0, 89.5, 25);
  auto want = OracleKnn(items, 45.0, 89.5, 25, kTimeMin, kTimeMax);
  ASSERT_EQ(knn.size(), want.size());
  for (size_t i = 0; i < knn.size(); ++i) EXPECT_EQ(knn[i].id, want[i].second);
}

TEST(RtreeOracleTest, TimeWindowRangeFiltering) {
  RStarTree tree;
  for (uint64_t i = 0; i < 50; ++i) {
    tree.Insert({StBox::Point(5.0, 40.0, static_cast<TimeMs>(i)), i});
  }
  StBox q{4.0, 39.0, 6.0, 41.0, 10, 19};
  std::set<uint64_t> got = TreeRange(tree, q);
  EXPECT_EQ(got.size(), 10u);
  for (uint64_t id : got) {
    EXPECT_GE(id, 10u);
    EXPECT_LE(id, 19u);
  }
  // Inclusive window ends.
  EXPECT_EQ(TreeRadius(tree, 5.0, 40.0, 1.0, 19, 19),
            (std::set<uint64_t>{19}));
}

TEST(RtreeOracleTest, DegenerateQueries) {
  RStarTree empty;
  EXPECT_TRUE(empty.NearestK(0.0, 0.0, 5).empty());
  EXPECT_EQ(TreeRadius(empty, 0.0, 0.0, 1e7, kTimeMin, kTimeMax).size(), 0u);
  EXPECT_EQ(empty.height(), 0);

  RStarTree one;
  one.Insert({StBox::Point(1.0, 1.0, 0), 7});
  EXPECT_EQ(one.height(), 1);
  // k = 0, k > n, radius 0 on an exact hit.
  EXPECT_TRUE(one.NearestK(1.0, 1.0, 0).empty());
  EXPECT_EQ(one.NearestK(1.0, 1.0, 10).size(), 1u);
  EXPECT_EQ(TreeRadius(one, 1.0, 1.0, 0.0, kTimeMin, kTimeMax),
            (std::set<uint64_t>{7}));
}

// ---------------------------------------------------------------------

TEST(RtreeUpdateTest, DeleteHalfThenQueriesMatchOracle) {
  Rng rng(555);
  std::vector<RtreeItem> items = UniformPoints(500, rng, -6.0, 35.0, 10.0, 44.0);
  RStarTree tree = RStarTree::BulkLoad(items);
  std::vector<RtreeItem> kept;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(tree.Remove(items[i])) << "item " << i;
    } else {
      kept.push_back(items[i]);
    }
  }
  EXPECT_EQ(tree.size(), kept.size());
  EXPECT_GT(tree.stats().condensed_nodes, 0u);
  for (int q = 0; q < 10; ++q) {
    double lon = rng.Uniform(-6.0, 10.0), lat = rng.Uniform(35.0, 44.0);
    double r = rng.Uniform(5000.0, 150000.0);
    EXPECT_EQ(TreeRadius(tree, lon, lat, r, kTimeMin, kTimeMax),
              OracleRadius(kept, lon, lat, r, kTimeMin, kTimeMax));
    StBox box{lon, lat, lon + 2.0, lat + 2.0, kTimeMin, kTimeMax};
    EXPECT_EQ(TreeRange(tree, box), OracleRange(kept, box));
  }
  // Removing everything leaves a clean, reusable tree.
  for (const RtreeItem& it : kept) EXPECT_TRUE(tree.Remove(it));
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
  tree.Insert({StBox::Point(0.0, 0.0, 0), 1});
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RtreeUpdateTest, ForcedReinsertKeepsAllItems) {
  // Tiny nodes force constant overflow; every item must survive the
  // reinsertion churn and stay queryable.
  RStarTree::Options tiny{4, 2, 1};
  RStarTree tree(tiny);
  Rng rng(31);
  std::vector<RtreeItem> items = ClusteredPoints(300, rng);
  for (const RtreeItem& it : items) tree.Insert(it);
  EXPECT_EQ(tree.size(), items.size());
  EXPECT_GT(tree.stats().forced_reinserts, 0u);
  EXPECT_GT(tree.stats().splits, 0u);
  std::set<uint64_t> all = TreeRadius(tree, 2.0, 39.5, 2e7, kTimeMin, kTimeMax);
  EXPECT_EQ(all.size(), items.size());
}

TEST(RtreeUpdateTest, RemoveMissingReturnsFalse) {
  RStarTree tree;
  EXPECT_FALSE(tree.Remove({StBox::Point(0.0, 0.0, 0), 1}));
  tree.Insert({StBox::Point(0.0, 0.0, 0), 1});
  EXPECT_FALSE(tree.Remove({StBox::Point(0.0, 0.0, 0), 2}));  // wrong id
  EXPECT_FALSE(tree.Remove({StBox::Point(0.0, 0.0, 7), 1}));  // wrong time
  EXPECT_TRUE(tree.Remove({StBox::Point(0.0, 0.0, 0), 1}));
  EXPECT_FALSE(tree.Remove({StBox::Point(0.0, 0.0, 0), 1}));  // already gone
  EXPECT_EQ(tree.size(), 0u);
}

// ---------------------------------------------------------------------

std::multiset<std::pair<uint64_t, TimeMs>> IndexVisit(
    const SpatialIndex& index, double lon, double lat, double radius_m,
    TimeMs min_t) {
  std::multiset<std::pair<uint64_t, TimeMs>> out;
  index.VisitWithinRadius(lon, lat, radius_m, min_t,
                          [&](const IndexPoint& p) {
                            out.insert({p.id, p.t});
                          });
  return out;
}

TEST(SpatialIndexTest, BackendsAgreeOnDynamicWorkload) {
  SpatialIndexConfig config;
  auto scan = MakeSpatialIndex(SpatialBackend::kScan, config);
  auto grid = MakeSpatialIndex(SpatialBackend::kGrid, config);
  auto rtree = MakeSpatialIndex(SpatialBackend::kRtree, config);
  SpatialIndex* indexes[] = {scan.get(), grid.get(), rtree.get()};

  // The points every index must hold: several per id (50 ids), exact
  // duplicates included, so Remove has to take exactly one equal copy.
  std::vector<IndexPoint> live;
  auto live_set = [&] {
    std::multiset<std::pair<uint64_t, TimeMs>> out;
    for (const IndexPoint& p : live) out.insert({p.id, p.t});
    return out;
  };

  Rng rng(808);
  Rng qrng(809);
  for (int step = 0; step < 1500; ++step) {
    int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < 6) {
      IndexPoint p{static_cast<uint64_t>(rng.UniformInt(0, 49)),
                   static_cast<TimeMs>(step), rng.Uniform(-8.0, 12.0),
                   rng.Uniform(33.0, 46.0)};  // some points out of extent
      // One insert in five stores an exact copy of a live point.
      if (!live.empty() && rng.UniformInt(0, 4) == 0) {
        p = live[rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1)];
      }
      for (SpatialIndex* ix : indexes) ix->Insert(p);
      live.push_back(p);
    } else if (op == 6) {
      if (live.empty()) continue;
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      IndexPoint p = live[at];
      // A point that differs from a stored one in a single field is not
      // stored, so no backend may remove anything for it.
      IndexPoint other_t = p, other_id = p, other_lat = p;
      other_t.t += 100000;
      other_id.id += 1000;
      other_lat.lat = std::nextafter(p.lat, 90.0);
      for (SpatialIndex* ix : indexes) {
        EXPECT_FALSE(ix->Remove(other_t)) << ix->name() << " step " << step;
        EXPECT_FALSE(ix->Remove(other_id)) << ix->name() << " step " << step;
        EXPECT_FALSE(ix->Remove(other_lat)) << ix->name() << " step " << step;
        EXPECT_TRUE(ix->Remove(p)) << ix->name() << " step " << step;
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (op == 7) {
      TimeMs cutoff = static_cast<TimeMs>(step - 200);
      size_t n = scan->EvictBefore(cutoff);
      EXPECT_EQ(grid->EvictBefore(cutoff), n);
      EXPECT_EQ(rtree->EvictBefore(cutoff), n);
      size_t before = live.size();
      std::erase_if(live, [cutoff](const IndexPoint& p) { return p.t < cutoff; });
      EXPECT_EQ(n, before - live.size());
    } else {
      double lon = qrng.Uniform(-8.0, 12.0), lat = qrng.Uniform(33.0, 46.0);
      double r = qrng.Uniform(1000.0, 300000.0);
      TimeMs min_t = static_cast<TimeMs>(step - qrng.UniformInt(0, 400));
      auto want = IndexVisit(*scan, lon, lat, r, min_t);
      EXPECT_EQ(IndexVisit(*grid, lon, lat, r, min_t), want) << "step " << step;
      EXPECT_EQ(IndexVisit(*rtree, lon, lat, r, min_t), want)
          << "step " << step;
    }
    // After every operation each backend holds exactly the live points:
    // a radius past half the Earth's circumference visits everything.
    auto want = live_set();
    for (SpatialIndex* ix : indexes) {
      EXPECT_EQ(ix->size(), live.size()) << ix->name() << " step " << step;
      EXPECT_EQ(IndexVisit(*ix, 0.0, 40.0, 2.1e7, kTimeMin), want)
          << ix->name() << " step " << step;
    }
    if (HasFailure()) break;
  }
}

TEST(SpatialIndexTest, BulkConstructionMatchesIncremental) {
  Rng rng(17);
  std::vector<IndexPoint> points;
  for (uint64_t i = 0; i < 400; ++i) {
    points.push_back({i, static_cast<TimeMs>(i), rng.Uniform(-6.0, 10.0),
                      rng.Uniform(35.0, 44.0)});
  }
  SpatialIndexConfig config;
  auto bulk = MakeSpatialIndex(SpatialBackend::kRtree, config, points);
  auto incr = MakeSpatialIndex(SpatialBackend::kRtree, config);
  for (const IndexPoint& p : points) incr->Insert(p);
  EXPECT_EQ(bulk->size(), incr->size());
  for (int q = 0; q < 10; ++q) {
    double lon = rng.Uniform(-6.0, 10.0), lat = rng.Uniform(35.0, 44.0);
    double r = rng.Uniform(5000.0, 200000.0);
    EXPECT_EQ(IndexVisit(*bulk, lon, lat, r, 100),
              IndexVisit(*incr, lon, lat, r, 100));
  }
  // Grid and scan factories honour bulk seeding too.
  auto gbulk = MakeSpatialIndex(SpatialBackend::kGrid, config, points);
  EXPECT_EQ(gbulk->size(), points.size());
}

// ---------------------------------------------------------------------

TEST(RtreeConcurrencyTest, ParallelReadersOnBulkLoadedTree) {
  Rng rng(2025);
  std::vector<RtreeItem> items = ClusteredPoints(2000, rng);
  RStarTree tree = RStarTree::BulkLoad(items);

  struct Query {
    double lon, lat, radius;
    std::set<uint64_t> want;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 32; ++i) {
    Query q{rng.Uniform(-6.0, 10.0), rng.Uniform(35.0, 44.0),
            rng.Uniform(5000.0, 100000.0), {}};
    q.want = OracleRadius(items, q.lon, q.lat, q.radius, kTimeMin, kTimeMax);
    queries.push_back(std::move(q));
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        const Query& q = queries[(t * 7 + rep) % queries.size()];
        std::set<uint64_t> got;
        tree.WithinRadius(q.lon, q.lat, q.radius,
                          [&](const RtreeItem& it) { got.insert(it.id); });
        if (got != q.want) mismatches.fetch_add(1);
        auto knn = tree.NearestK(q.lon, q.lat, 10);
        if (knn.size() != std::min<size_t>(10, items.size())) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace tcmf::geom
