#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "geom/geo.h"
#include "geom/grid.h"
#include "prediction/clustering.h"
#include "prediction/cpa.h"
#include "scenario/fleet.h"
#include "stream/record.h"
#include "prediction/erp.h"
#include "prediction/hmm.h"
#include "prediction/linalg.h"
#include "prediction/rmf.h"
#include "prediction/trajpred.h"

namespace tcmf::prediction {
namespace {

// ---------------------------------------------------------------- Linalg

TEST(LinalgTest, SolvesSimpleSystem) {
  std::vector<std::vector<double>> a = {{2, 1}, {1, 3}};
  std::vector<double> b = {5, 10};
  ASSERT_TRUE(SolveLinearSystem(a, b));
  EXPECT_NEAR(b[0], 1.0, 1e-9);
  EXPECT_NEAR(b[1], 3.0, 1e-9);
}

TEST(LinalgTest, DetectsSingularSystem) {
  std::vector<std::vector<double>> a = {{1, 2}, {2, 4}};
  std::vector<double> b = {3, 6};
  EXPECT_FALSE(SolveLinearSystem(a, b));
}

TEST(LinalgTest, PivotingHandlesZeroDiagonal) {
  std::vector<std::vector<double>> a = {{0, 1}, {1, 0}};
  std::vector<double> b = {2, 3};
  ASSERT_TRUE(SolveLinearSystem(a, b));
  EXPECT_NEAR(b[0], 3.0, 1e-9);
  EXPECT_NEAR(b[1], 2.0, 1e-9);
}

TEST(LinalgTest, LeastSquaresExactFit) {
  // y = 2 + 3x fitted from exact samples.
  std::vector<std::vector<double>> m;
  std::vector<double> y;
  for (double x : {0.0, 1.0, 2.0, 3.0}) {
    m.push_back({1.0, x});
    y.push_back(2.0 + 3.0 * x);
  }
  auto c = LeastSquares(m, y);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0], 2.0, 1e-6);
  EXPECT_NEAR(c[1], 3.0, 1e-6);
}

TEST(LinalgTest, LeastSquaresOverdeterminedNoisy) {
  Rng rng(1);
  std::vector<std::vector<double>> m;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double x = i * 0.1;
    m.push_back({1.0, x});
    y.push_back(5.0 - 2.0 * x + rng.Gaussian(0, 0.1));
  }
  auto c = LeastSquares(m, y);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0], 5.0, 0.1);
  EXPECT_NEAR(c[1], -2.0, 0.05);
}

TEST(LinalgTest, LeastSquaresUnderdeterminedFails) {
  EXPECT_TRUE(LeastSquares({{1.0, 2.0}}, {1.0}).empty());
}

// ---------------------------------------------------------- Trajectories

/// Straight flight at constant velocity.
std::vector<Position> StraightTrack(int count, TimeMs dt_ms,
                                    double speed = 200.0,
                                    double heading = 90.0) {
  std::vector<Position> out;
  geom::LonLat pos{0.0, 40.0};
  for (int i = 0; i < count; ++i) {
    Position p;
    p.entity_id = 1;
    p.t = i * dt_ms;
    p.lon = pos.lon;
    p.lat = pos.lat;
    p.speed_mps = speed;
    p.heading_deg = heading;
    out.push_back(p);
    pos = geom::Destination(pos, heading,
                            speed * static_cast<double>(dt_ms) / 1000.0);
  }
  return out;
}

/// Constant-rate turn (deg/s).
std::vector<Position> TurningTrack(int count, TimeMs dt_ms, double speed,
                                   double turn_rate_deg_s) {
  std::vector<Position> out;
  geom::LonLat pos{0.0, 40.0};
  double heading = 0.0;
  for (int i = 0; i < count; ++i) {
    Position p;
    p.entity_id = 1;
    p.t = i * dt_ms;
    p.lon = pos.lon;
    p.lat = pos.lat;
    p.speed_mps = speed;
    p.heading_deg = heading;
    out.push_back(p);
    double dt = static_cast<double>(dt_ms) / 1000.0;
    heading = geom::NormalizeDeg(heading + turn_rate_deg_s * dt);
    pos = geom::Destination(pos, heading, speed * dt);
  }
  return out;
}

double PredictError(const std::vector<PredictedPoint>& predicted,
                    const std::vector<Position>& truth, size_t start) {
  double sum = 0;
  size_t n = 0;
  for (size_t i = 0; i < predicted.size() && start + i < truth.size(); ++i) {
    sum += geom::HaversineM(predicted[i].loc.lon, predicted[i].loc.lat,
                            truth[start + i].lon, truth[start + i].lat);
    ++n;
  }
  return n ? sum / n : 1e18;
}

// ------------------------------------------------------------------- RMF

TEST(RmfTest, PredictsStraightMotionAccurately) {
  auto track = StraightTrack(40, 8000);
  RmfPredictor rmf(3, 12);
  for (size_t i = 0; i < 30; ++i) rmf.Observe(track[i]);
  ASSERT_TRUE(rmf.ready());
  auto predicted = rmf.Predict(8);
  ASSERT_EQ(predicted.size(), 8u);
  EXPECT_LT(PredictError(predicted, track, 30), 100.0);
}

TEST(RmfTest, NotReadyWithFewPoints) {
  RmfPredictor rmf(3, 12);
  auto track = StraightTrack(2, 8000);
  rmf.Observe(track[0]);
  rmf.Observe(track[1]);
  EXPECT_FALSE(rmf.ready());
}

TEST(RmfTest, PredictionTimesAdvanceByInterval) {
  auto track = StraightTrack(30, 8000);
  RmfPredictor rmf;
  for (const auto& p : track) rmf.Observe(p);
  auto predicted = rmf.Predict(3);
  ASSERT_EQ(predicted.size(), 3u);
  EXPECT_EQ(predicted[0].t, track.back().t + 8000);
  EXPECT_EQ(predicted[2].t, track.back().t + 24000);
}

TEST(RmfTest, IgnoresNonMonotoneInput) {
  auto track = StraightTrack(20, 8000);
  RmfPredictor rmf;
  for (const auto& p : track) rmf.Observe(p);
  rmf.Observe(track[5]);  // stale: ignored
  auto predicted = rmf.Predict(2);
  EXPECT_EQ(predicted[0].t, track.back().t + 8000);
}

TEST(RmfStarTest, LinearModeOnStraightTrack) {
  auto track = StraightTrack(30, 8000);
  RmfStarPredictor star;
  for (const auto& p : track) star.Observe(p);
  EXPECT_EQ(star.mode(), MotionMode::kLinear);
  auto predicted = star.Predict(8);
  EXPECT_LT(PredictError(predicted, StraightTrack(60, 8000), 30), 100.0);
}

TEST(RmfStarTest, PatternModeDuringTurn) {
  auto track = TurningTrack(40, 8000, 200.0, 1.0);
  RmfStarPredictor star;
  for (const auto& p : track) star.Observe(p);
  EXPECT_EQ(star.mode(), MotionMode::kPattern);
}

TEST(RmfStarTest, CircularPrimitiveBeatsBaselineOnTurn) {
  auto track = TurningTrack(60, 8000, 200.0, 1.0);
  RmfStarPredictor star;
  RmfPredictor rmf(3, 12);
  for (size_t i = 0; i < 40; ++i) {
    star.Observe(track[i]);
    rmf.Observe(track[i]);
  }
  double star_err = PredictError(star.Predict(8), track, 40);
  double rmf_err = PredictError(rmf.Predict(8), track, 40);
  // RMF* should track the turn clearly better than the raw recurrence.
  EXPECT_LT(star_err, rmf_err);
  EXPECT_LT(star_err, 2000.0);
}

TEST(RmfStarTest, HintForcesPatternMode) {
  auto track = StraightTrack(20, 8000);
  RmfStarPredictor star;
  for (const auto& p : track) star.Observe(p);
  EXPECT_EQ(star.mode(), MotionMode::kLinear);
  star.HintNonLinear();
  Position next = track.back();
  next.t += 8000;
  star.Observe(next);
  EXPECT_EQ(star.mode(), MotionMode::kPattern);
}

TEST(RmfStarTest, AltitudePredictionFollowsVrate) {
  std::vector<Position> climb = StraightTrack(30, 8000);
  for (size_t i = 0; i < climb.size(); ++i) {
    climb[i].alt_m = 1000.0 + i * 80.0;  // 10 m/s climb at 8 s interval
    climb[i].vrate_mps = 10.0;
  }
  RmfStarPredictor star;
  for (const auto& p : climb) star.Observe(p);
  auto predicted = star.Predict(4);
  EXPECT_NEAR(predicted[3].alt_m, climb.back().alt_m + 4 * 80.0, 40.0);
}

// ------------------------------------------------------------------- ERP

EnrichedPoint EP(double lon, double lat, std::vector<double> f = {}) {
  EnrichedPoint p;
  p.loc = {lon, lat};
  p.features = std::move(f);
  return p;
}

TEST(ErpTest, IdenticalSequencesAtZero) {
  EnrichedSequence a = {EP(0, 40), EP(1, 40), EP(2, 40)};
  ErpOptions options;
  EXPECT_NEAR(ErpDistance(a, a, options), 0.0, 1e-12);
}

TEST(ErpTest, SymmetricDistance) {
  EnrichedSequence a = {EP(0, 40), EP(1, 40)};
  EnrichedSequence b = {EP(0, 40.5), EP(1, 40.5), EP(2, 41)};
  ErpOptions options;
  EXPECT_DOUBLE_EQ(ErpDistance(a, b, options), ErpDistance(b, a, options));
}

TEST(ErpTest, EmptySequenceCostsGapPenalty) {
  EnrichedSequence a = {EP(0, 40), EP(1, 40)};
  ErpOptions options;
  options.gap_penalty = 2.0;
  EXPECT_DOUBLE_EQ(ErpDistance(a, {}, options), 4.0);
  EXPECT_DOUBLE_EQ(ErpDistance({}, {}, options), 0.0);
}

TEST(ErpTest, TriangleInequalityOnSamples) {
  // ERP is a metric; verify the triangle inequality over random triples.
  Rng rng(4);
  ErpOptions options;
  for (int trial = 0; trial < 50; ++trial) {
    auto make_seq = [&] {
      EnrichedSequence s;
      int n = static_cast<int>(rng.UniformInt(1, 6));
      for (int i = 0; i < n; ++i) {
        s.push_back(EP(rng.Uniform(0, 2), rng.Uniform(39, 41),
                       {rng.Uniform(0, 1)}));
      }
      return s;
    };
    EnrichedSequence a = make_seq(), b = make_seq(), c = make_seq();
    double ab = ErpDistance(a, b, options);
    double bc = ErpDistance(b, c, options);
    double ac = ErpDistance(a, c, options);
    EXPECT_LE(ac, ab + bc + 1e-9);
  }
}

TEST(ErpTest, FeatureDifferencesContribute) {
  EnrichedSequence a = {EP(0, 40, {0.0})};
  EnrichedSequence same_space = {EP(0, 40, {1.0})};
  ErpOptions options;
  EXPECT_GT(ErpDistance(a, same_space, options), 0.5);
}

TEST(ErpTest, MissingFeaturesPenalized) {
  ErpOptions options;
  EnrichedPoint with = EP(0, 40, {0.3, 0.4});
  EnrichedPoint without = EP(0, 40, {});
  EXPECT_GT(EnrichedPointDistance(with, without, options), 1.0);
}

// ------------------------------------------------------------ Clustering

TEST(OpticsTest, SeparatesTwoBlobs) {
  // 1-D points: blob at 0 and blob at 100.
  std::vector<double> points;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) points.push_back(rng.Gaussian(0, 1));
  for (int i = 0; i < 20; ++i) points.push_back(rng.Gaussian(100, 1));
  DistanceFn dist = [&](size_t i, size_t j) {
    return std::fabs(points[i] - points[j]);
  };
  OpticsOptions options;
  options.min_pts = 4;
  auto result = RunOptics(points.size(), dist, options);
  auto labels = ExtractClusters(result, 5.0, 3);
  EXPECT_EQ(ClusterCount(labels), 2);
  // All of blob 1 shares a label; all of blob 2 shares another.
  for (int i = 1; i < 20; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (int i = 21; i < 40; ++i) EXPECT_EQ(labels[i], labels[20]);
  EXPECT_NE(labels[0], labels[20]);
}

TEST(OpticsTest, NoiseGetsMinusOne) {
  std::vector<double> points;
  Rng rng(6);
  for (int i = 0; i < 20; ++i) points.push_back(rng.Gaussian(0, 1));
  points.push_back(1000.0);  // isolated outlier
  DistanceFn dist = [&](size_t i, size_t j) {
    return std::fabs(points[i] - points[j]);
  };
  auto result = RunOptics(points.size(), dist, {.eps = 50.0, .min_pts = 4});
  auto labels = ExtractClusters(result, 5.0, 3);
  EXPECT_EQ(labels.back(), -1);
}

TEST(OpticsTest, OrderingVisitsAllItems) {
  DistanceFn dist = [](size_t i, size_t j) {
    return std::fabs(static_cast<double>(i) - static_cast<double>(j));
  };
  auto result = RunOptics(10, dist, {.eps = 100.0, .min_pts = 2});
  EXPECT_EQ(result.ordering.size(), 10u);
  std::vector<bool> seen(10, false);
  for (size_t i : result.ordering) seen[i] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(OpticsTest, EmptyInput) {
  DistanceFn dist = [](size_t, size_t) { return 0.0; };
  auto result = RunOptics(0, dist, {});
  EXPECT_TRUE(result.ordering.empty());
  EXPECT_TRUE(ExtractClusters(result, 1.0).empty());
}

TEST(OpticsTest, MedoidMinimizesSummedDistance) {
  std::vector<double> points = {0.0, 1.0, 2.0, 10.0};
  std::vector<int> labels = {0, 0, 0, -1};
  DistanceFn dist = [&](size_t i, size_t j) {
    return std::fabs(points[i] - points[j]);
  };
  EXPECT_EQ(ClusterMedoid(labels, 0, dist), 1u);
  EXPECT_EQ(ClusterMedoid(labels, 5, dist),
            std::numeric_limits<size_t>::max());
}

// ------------------------------------------------------------------- HMM

TEST(HmmTest, ForwardLikelihoodNormalized) {
  // For a 1-state HMM, the sequence likelihood is the product of emission
  // probabilities.
  Hmm hmm(1, 2);
  double ll = hmm.LogLikelihood({0, 1, 0});
  EXPECT_NEAR(ll, 3 * std::log(0.5), 1e-9);
}

TEST(HmmTest, TrainingRecoversBiasedCoin) {
  // Observations: mostly symbol 0 -> emission prob of 0 should grow.
  Rng rng(7);
  Hmm hmm(1, 2);
  hmm.InitRandom(rng);
  std::vector<std::vector<int>> seqs;
  for (int s = 0; s < 10; ++s) {
    std::vector<int> seq;
    for (int i = 0; i < 50; ++i) seq.push_back(rng.Bernoulli(0.8) ? 0 : 1);
    seqs.push_back(seq);
  }
  hmm.Train(seqs, 20);
  EXPECT_NEAR(hmm.emissions()[0][0], 0.8, 0.05);
}

TEST(HmmTest, TrainingImprovesLikelihood) {
  Rng rng(8);
  // Two alternating regimes: symbol runs of 0s then 1s.
  std::vector<std::vector<int>> seqs;
  for (int s = 0; s < 5; ++s) {
    std::vector<int> seq;
    for (int block = 0; block < 6; ++block) {
      int sym = block % 2;
      for (int i = 0; i < 8; ++i) seq.push_back(sym);
    }
    seqs.push_back(seq);
  }
  Hmm hmm(2, 2);
  hmm.InitRandom(rng);
  double before = 0;
  for (const auto& s : seqs) before += hmm.LogLikelihood(s);
  hmm.Train(seqs, 30);
  double after = 0;
  for (const auto& s : seqs) after += hmm.LogLikelihood(s);
  EXPECT_GT(after, before);
}

TEST(HmmTest, ViterbiTracksRegimes) {
  // Deterministic-ish two-state chain with distinct emissions.
  Rng rng(9);
  std::vector<std::vector<int>> seqs;
  for (int s = 0; s < 8; ++s) {
    std::vector<int> seq;
    for (int block = 0; block < 4; ++block) {
      for (int i = 0; i < 10; ++i) seq.push_back(block % 2);
    }
    seqs.push_back(seq);
  }
  Hmm hmm(2, 2);
  hmm.InitRandom(rng);
  hmm.Train(seqs, 40);
  auto path = hmm.Viterbi(seqs[0]);
  ASSERT_EQ(path.size(), seqs[0].size());
  // Within each block the state should be constant.
  for (int block = 0; block < 4; ++block) {
    for (int i = 1; i < 10; ++i) {
      EXPECT_EQ(path[block * 10 + i], path[block * 10]);
    }
  }
  // And adjacent blocks should differ.
  EXPECT_NE(path[0], path[10]);
}

TEST(HmmTest, PredictObservationSumsToOne) {
  Rng rng(10);
  Hmm hmm(3, 4);
  hmm.InitRandom(rng);
  for (int ahead = 1; ahead <= 5; ++ahead) {
    auto dist = hmm.PredictObservation({0, 1, 2}, ahead);
    double sum = std::accumulate(dist.begin(), dist.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(HmmTest, PredictExpectedValueUsesSymbolValues) {
  Hmm hmm(1, 2);  // uniform emissions
  double expect = hmm.PredictExpectedValue({}, 1, {0.0, 10.0});
  EXPECT_NEAR(expect, 5.0, 1e-9);
}

TEST(HmmTest, ImpossiblePrefixGivesNegInfLikelihood) {
  Rng rng(11);
  std::vector<std::vector<int>> seqs = {{0, 0, 0, 0, 0, 0, 0, 0}};
  Hmm hmm(1, 2);
  hmm.InitRandom(rng);
  hmm.Train(seqs, 50);
  // Symbol 1 never seen: probability ~0 but smoothed, so finite.
  EXPECT_LT(hmm.LogLikelihood({1, 1, 1}), hmm.LogLikelihood({0, 0, 0}));
}

TEST(QuantizeTest, RoundTripCenters) {
  for (int b = 0; b < 10; ++b) {
    double center = BucketCenter(b, -100, 100, 10);
    EXPECT_EQ(Quantize(center, -100, 100, 10), b);
  }
}

TEST(QuantizeTest, Clamping) {
  EXPECT_EQ(Quantize(-1e9, -100, 100, 10), 0);
  EXPECT_EQ(Quantize(1e9, -100, 100, 10), 9);
}

// ------------------------------------------------------ WaypointDeviations

TEST(WaypointDeviationsTest, OnPlanFlightHasSmallDeviations) {
  // Actual exactly follows the plan waypoints.
  std::vector<geom::LonLat> wps = {{0, 40}, {0.5, 40}, {1.0, 40}, {1.5, 40}};
  std::vector<TimeMs> etas = {0, 100000, 200000, 300000};
  Trajectory actual;
  actual.entity_id = 1;
  for (int i = 0; i < 31; ++i) {
    Position p;
    p.t = i * 10000;
    p.lon = 1.5 * i / 30.0;
    p.lat = 40.0;
    actual.points.push_back(p);
  }
  auto devs = WaypointDeviations(wps, etas, actual);
  ASSERT_EQ(devs.size(), 4u);
  for (double d : devs) EXPECT_LT(std::fabs(d), 300.0);
}

TEST(WaypointDeviationsTest, LateralOffsetHasCorrectSignAndMagnitude) {
  // Eastbound plan; actual flies ~1.1 km south (right of course).
  std::vector<geom::LonLat> wps = {{0, 40}, {0.5, 40}, {1.0, 40}};
  std::vector<TimeMs> etas = {0, 100000, 200000};
  Trajectory actual;
  for (int i = 0; i <= 20; ++i) {
    Position p;
    p.t = i * 10000;
    p.lon = i / 20.0;
    p.lat = 40.0 - 0.01;  // south of track
    actual.points.push_back(p);
  }
  auto devs = WaypointDeviations(wps, etas, actual);
  ASSERT_EQ(devs.size(), 3u);
  EXPECT_NEAR(devs[1], 1112.0, 60.0);  // 0.01 deg lat
  EXPECT_GT(devs[1], 0.0);             // right of eastbound course = south
}

// -------------------------------------------------------------- HybridTp

/// Synthesizes TP examples in `clusters` groups. Cluster k flies along
/// latitude 40+k with deviation dynamics characteristic of the cluster
/// (a distinct mean deviation pattern learnable by its HMM).
std::vector<TpExample> MakeExamples(int clusters, int per_cluster,
                                    int waypoints, Rng& rng) {
  std::vector<TpExample> out;
  for (int c = 0; c < clusters; ++c) {
    for (int e = 0; e < per_cluster; ++e) {
      TpExample ex;
      for (int w = 0; w < waypoints; ++w) {
        EnrichedPoint p;
        p.loc = {w * 0.5, 40.0 + c * 2.0};
        p.t = w * 100000;
        p.features = {static_cast<double>(c) / clusters};
        ex.reference.push_back(p);
        // Cluster-specific deviation signature + noise.
        double base = (c % 2 == 0 ? 1.0 : -1.0) * (500.0 + 250.0 * (w % 3));
        ex.deviations_m.push_back(base + rng.Gaussian(0, 100.0));
      }
      out.push_back(std::move(ex));
    }
  }
  return out;
}

TEST(HybridTpTest, RecoversPlantedClusters) {
  Rng rng(12);
  auto examples = MakeExamples(3, 8, 6, rng);
  HybridTpOptions options;
  options.reachability_threshold = 5.0;
  HybridTpModel model = HybridTpModel::Train(examples, options);
  EXPECT_EQ(model.cluster_count(), 3);
  // Same-group examples share labels.
  const auto& labels = model.training_labels();
  for (int c = 0; c < 3; ++c) {
    for (int e = 1; e < 8; ++e) {
      EXPECT_EQ(labels[c * 8 + e], labels[c * 8]);
    }
  }
}

TEST(HybridTpTest, AssignsNewFlightToRightCluster) {
  Rng rng(13);
  auto examples = MakeExamples(3, 8, 6, rng);
  HybridTpOptions options;
  options.reachability_threshold = 5.0;
  HybridTpModel model = HybridTpModel::Train(examples, options);
  // A new flight shaped like cluster 1.
  auto probe = MakeExamples(3, 1, 6, rng)[1];
  int assigned = model.AssignCluster(probe.reference);
  EXPECT_EQ(assigned, model.training_labels()[1 * 8]);
}

TEST(HybridTpTest, PredictsDeviationSignature) {
  Rng rng(14);
  auto examples = MakeExamples(2, 12, 6, rng);
  HybridTpOptions options;
  options.reachability_threshold = 5.0;
  HybridTpModel model = HybridTpModel::Train(examples, options);
  auto probe = MakeExamples(2, 1, 6, rng)[0];  // cluster 0 signature
  auto predicted = model.PredictDeviations(probe.reference, {});
  ASSERT_EQ(predicted.size(), 6u);
  double rmse = 0;
  for (size_t i = 0; i < 6; ++i) {
    double err = predicted[i] - probe.deviations_m[i];
    rmse += err * err;
  }
  rmse = std::sqrt(rmse / 6);
  // Deviations are ~500-1000 m; prediction should land within a few
  // hundred meters RMSE.
  EXPECT_LT(rmse, 450.0);
}

TEST(HybridTpTest, ObservedPrefixPassedThrough) {
  Rng rng(15);
  auto examples = MakeExamples(1, 10, 5, rng);
  HybridTpModel model = HybridTpModel::Train(examples, HybridTpOptions{});
  auto probe = examples[0];
  std::vector<double> prefix = {111.0, 222.0};
  auto predicted = model.PredictDeviations(probe.reference, prefix);
  EXPECT_DOUBLE_EQ(predicted[0], 111.0);
  EXPECT_DOUBLE_EQ(predicted[1], 222.0);
}

TEST(HybridTpTest, EmptyTrainingSetSafe) {
  HybridTpModel model = HybridTpModel::Train({}, HybridTpOptions{});
  EXPECT_EQ(model.cluster_count(), 0);
  EXPECT_EQ(model.AssignCluster({}), -1);
}

TEST(HybridTpTest, ParameterCountScalesWithClusters) {
  Rng rng(16);
  auto examples = MakeExamples(3, 8, 6, rng);
  HybridTpOptions options;
  options.reachability_threshold = 5.0;
  HybridTpModel model = HybridTpModel::Train(examples, options);
  size_t per_cluster = options.hmm_states * options.hmm_states +
                       options.hmm_states * options.deviation_buckets +
                       options.hmm_states;
  EXPECT_EQ(model.TotalParameters(),
            per_cluster * static_cast<size_t>(model.cluster_count()));
}

// -------------------------------------------------------------- BlindHmm

TEST(BlindHmmTest, TrainsAndPredictsWithinExtent) {
  Rng rng(17);
  std::vector<Trajectory> trajs;
  for (int i = 0; i < 6; ++i) {
    Trajectory t;
    t.entity_id = i;
    auto track = StraightTrack(40, 8000);
    t.points = track;
    trajs.push_back(t);
  }
  BlindHmmTp::Options options;
  options.extent = {-1.0, 39.0, 4.0, 42.0};
  options.grid_side = 12;
  options.hmm_states = 4;
  options.hmm_iterations = 4;
  BlindHmmTp model = BlindHmmTp::Train(trajs, options);
  EXPECT_GT(model.training_observations(), 200u);

  Trajectory prefix;
  prefix.points.assign(trajs[0].points.begin(), trajs[0].points.begin() + 20);
  geom::LonLat predicted = model.PredictPosition(prefix, 4);
  EXPECT_GE(predicted.lon, options.extent.min_lon);
  EXPECT_LE(predicted.lon, options.extent.max_lon);
}

TEST(BlindHmmTest, ParameterCountOrdersOfMagnitudeLarger) {
  // The resource comparison of Section 5: a blind HMM over grid cells has
  // vastly more parameters than a hybrid cluster model.
  BlindHmmTp::Options options;
  options.extent = {-1.0, 39.0, 4.0, 42.0};
  options.grid_side = 24;
  options.hmm_states = 8;
  options.hmm_iterations = 1;
  Trajectory t;
  t.points = StraightTrack(30, 8000);
  BlindHmmTp blind = BlindHmmTp::Train({t}, options);

  HybridTpOptions hybrid_options;
  size_t hybrid_params = hybrid_options.hmm_states * hybrid_options.hmm_states +
                         hybrid_options.hmm_states * hybrid_options.deviation_buckets +
                         hybrid_options.hmm_states;
  EXPECT_GT(blind.TotalParameters(), 50 * hybrid_params);
}

TEST(BlindHmmTest, CellRoundTrip) {
  BlindHmmTp::Options options;
  options.extent = {0.0, 0.0, 10.0, 10.0};
  options.grid_side = 10;
  options.hmm_iterations = 0;
  Trajectory t;
  t.points = StraightTrack(5, 8000);
  BlindHmmTp model = BlindHmmTp::Train({t}, options);
  int cell = model.CellOf(5.5, 7.5);
  geom::LonLat center = model.CellCenter(cell);
  EXPECT_NEAR(center.lon, 5.5, 0.51);
  EXPECT_NEAR(center.lat, 7.5, 0.51);
}

// --------------------------------------------------------- CPA backends

// Scan, grid and rtree backends must produce identical warning streams
// and identical pairs_evaluated counts on a realistic seeded fleet —
// the SpatialIndex exact-filter contract applied to CPA pair pruning.
TEST(CpaBackendEquivTest, IdenticalWarningsOnSeededFleet) {
  scenario::FleetMix mix;
  mix.vessel_count = 50;
  mix.flight_count = 0;
  mix.weather_cols = 0;
  mix.duration_ms = 20 * kMillisPerMinute;
  mix.seed = 11;
  std::vector<scenario::FleetEvent> fleet = scenario::MakeFleet(mix);
  ASSERT_GT(fleet.size(), 500u);

  CpaScreenOptions options;
  options.max_range_m = 50000.0;
  options.dcpa_m = 15000.0;
  options.tcpa_s = 3600.0;

  options.index = geom::SpatialBackend::kScan;
  CpaScreen scan(options);
  options.index = geom::SpatialBackend::kGrid;
  CpaScreen grid(options);
  options.index = geom::SpatialBackend::kRtree;
  CpaScreen rtree(options);

  auto normalize = [](const std::vector<CollisionWarning>& warnings) {
    std::multiset<std::pair<uint64_t, uint64_t>> out;
    for (const CollisionWarning& w : warnings) {
      out.insert({std::min(w.entity_a, w.entity_b),
                  std::max(w.entity_a, w.entity_b)});
    }
    return out;
  };

  size_t total_warnings = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    Position p = stream::RecordToPosition(fleet[i].record);
    auto want = normalize(scan.Observe(p));
    EXPECT_EQ(normalize(grid.Observe(p)), want) << "obs " << i;
    EXPECT_EQ(normalize(rtree.Observe(p)), want) << "obs " << i;
    total_warnings += want.size();
    if (HasFailure()) break;
  }
  EXPECT_GT(total_warnings, 0u);
  EXPECT_GT(scan.pairs_evaluated(), 0u);
  EXPECT_EQ(grid.pairs_evaluated(), scan.pairs_evaluated());
  EXPECT_EQ(rtree.pairs_evaluated(), scan.pairs_evaluated());
}

// Entities that report again and again, moving across grid cells
// between reports: the screen must see exactly each entity's latest
// position. The oracle pairs every report with every other entity's
// latest report by brute force; a previous point left in the index
// (e.g. removed from the wrong cell) shows up as an extra pair.
TEST(CpaBackendEquivTest, RepeatReportsAcrossCellsMatchBruteForce) {
  CpaScreenOptions options;
  options.max_range_m = 4000.0;
  options.dcpa_m = 1500.0;
  options.tcpa_s = 900.0;
  options.index_config.extent = {0.0, 0.0, 1.0, 1.0};
  options.index_config.grid_cols = 64;  // cells ~1.7 km wide
  options.index_config.grid_rows = 64;
  const geom::EquiGrid cells(options.index_config.extent,
                             options.index_config.grid_cols,
                             options.index_config.grid_rows);

  struct Oracle {
    CpaScreenOptions options;
    std::map<uint64_t, Position> latest;
    std::set<uint64_t> active;
    size_t pairs = 0;

    std::vector<CollisionWarning> Observe(const Position& p) {
      std::vector<CollisionWarning> out;
      for (const auto& [id, other] : latest) {
        if (id == p.entity_id ||
            geom::HaversineM(p.lon, p.lat, other.lon, other.lat) >
                options.max_range_m) {
          continue;
        }
        ++pairs;
        CpaResult cpa = ComputeCpa(p, other);
        uint64_t key = (std::min(p.entity_id, id) << 32) |
                       (std::max(p.entity_id, id) & 0xFFFFFFFF);
        if (cpa.dcpa_m < options.dcpa_m && cpa.tcpa_s >= 0 &&
            cpa.tcpa_s < options.tcpa_s) {
          if (active.insert(key).second) {
            out.push_back({p.entity_id, id, p.t, cpa});
          }
        } else {
          active.erase(key);
        }
      }
      latest[p.entity_id] = p;
      return out;
    }
  };
  auto sorted = [](std::vector<CollisionWarning> w) {
    std::sort(w.begin(), w.end(),
              [](const CollisionWarning& a, const CollisionWarning& b) {
                return a.entity_b < b.entity_b;
              });
    return w;
  };
  auto same = [](const CollisionWarning& a, const CollisionWarning& b) {
    return a.entity_a == b.entity_a && a.entity_b == b.entity_b &&
           a.at == b.at && a.cpa.tcpa_s == b.cpa.tcpa_s &&
           a.cpa.dcpa_m == b.cpa.dcpa_m &&
           a.cpa.distance_now_m == b.cpa.distance_now_m;
  };

  for (geom::SpatialBackend backend :
       {geom::SpatialBackend::kScan, geom::SpatialBackend::kGrid,
        geom::SpatialBackend::kRtree}) {
    SCOPED_TRACE(geom::ToString(backend));
    options.index = backend;
    CpaScreen screen(options);
    Oracle oracle{options, {}, {}, 0};

    // 24 entities in a ~33 km square; each report moves its entity
    // 0.5-3 km, so most reports land in a different cell.
    Rng rng(4242);
    std::vector<Position> at(24);
    for (size_t i = 0; i < at.size(); ++i) {
      at[i].entity_id = i + 1;
      at[i].lon = rng.Uniform(0.35, 0.65);
      at[i].lat = rng.Uniform(0.35, 0.65);
    }
    size_t crossings = 0, warnings = 0;
    for (int step = 0; step < 3000; ++step) {
      Position& p = at[rng.UniformInt(0, static_cast<int64_t>(at.size()) - 1)];
      uint32_t cell_before = cells.CellOf(p.lon, p.lat);
      p.t = static_cast<TimeMs>(step) * 1000;
      p.lon = std::clamp(p.lon + rng.Uniform(-0.03, 0.03), 0.35, 0.65);
      p.lat = std::clamp(p.lat + rng.Uniform(-0.03, 0.03), 0.35, 0.65);
      p.speed_mps = rng.Uniform(0.0, 12.0);
      p.heading_deg = rng.Uniform(0.0, 360.0);
      if (step >= static_cast<int>(at.size()) &&
          cells.CellOf(p.lon, p.lat) != cell_before) {
        ++crossings;
      }

      std::vector<CollisionWarning> want = sorted(oracle.Observe(p));
      std::vector<CollisionWarning> got = sorted(screen.Observe(p));
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(same(got[i], want[i])) << "step " << step;
      }
      ASSERT_EQ(screen.pairs_evaluated(), oracle.pairs) << "step " << step;
      warnings += want.size();
    }
    EXPECT_GT(crossings, 1500u);
    EXPECT_GT(oracle.pairs, 1000u);
    EXPECT_GT(warnings, 20u);
  }
}

}  // namespace
}  // namespace tcmf::prediction
