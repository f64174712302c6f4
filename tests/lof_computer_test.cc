#include "lof/lof_computer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/linear_scan_index.h"

namespace lofkit {
namespace {

// Fixture around the hand-computable 1-d dataset {0, 1, 2, 10}, MinPts = 2.
//
// k-distances: [2, 1, 2, 9]
// lrd:         [2/3, 1/2, 2/3, 2/17]
// LOF:         [7/8, 4/3, 7/8, 119/24]
class HandComputedLofTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = Dataset::FromRowMajor(1, {0, 1, 2, 10});
    ASSERT_TRUE(ds.ok());
    data_ = std::move(ds).value();
    ASSERT_TRUE(index_.Build(*data_, Euclidean()).ok());
    auto m = NeighborhoodMaterializer::Materialize(*data_, index_, 2);
    ASSERT_TRUE(m.ok());
    m_.emplace(std::move(m).value());
  }

  std::optional<Dataset> data_;
  LinearScanIndex index_;
  std::optional<NeighborhoodMaterializer> m_;
};

TEST_F(HandComputedLofTest, LrdMatchesDefinition6) {
  auto scores = LofComputer::Compute(*m_, 2);
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR(scores->lrd[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(scores->lrd[1], 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(scores->lrd[2], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(scores->lrd[3], 2.0 / 17.0, 1e-12);
  EXPECT_FALSE(scores->has_infinite_lrd);
}

TEST_F(HandComputedLofTest, LofMatchesDefinition7) {
  auto scores = LofComputer::Compute(*m_, 2);
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR(scores->lof[0], 7.0 / 8.0, 1e-12);
  EXPECT_NEAR(scores->lof[1], 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(scores->lof[2], 7.0 / 8.0, 1e-12);
  EXPECT_NEAR(scores->lof[3], 119.0 / 24.0, 1e-12);
}

TEST_F(HandComputedLofTest, TheIsolatedPointIsTheTopOutlier) {
  auto scores = LofComputer::Compute(*m_, 2);
  ASSERT_TRUE(scores.ok());
  auto ranked = RankDescending(scores->lof, 1);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].index, 3u);
}

TEST_F(HandComputedLofTest, RejectsOutOfRangeMinPts) {
  EXPECT_EQ(LofComputer::Compute(*m_, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(LofComputer::Compute(*m_, 3).status().code(),
            StatusCode::kOutOfRange);
}

TEST(LofComputerTest, UniformGridHasLofNearOne) {
  // Section 6.2: in a uniform distribution no object should be labeled
  // outlying (for MinPts >= ~10).
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  Rng rng(3);
  for (int x = 0; x < 20; ++x) {
    for (int y = 0; y < 20; ++y) {
      const double p[2] = {x + rng.Uniform(-0.05, 0.05),
                           y + rng.Uniform(-0.05, 0.05)};
      ASSERT_TRUE(ds->Append(p).ok());
    }
  }
  auto scores = LofComputer::ComputeFromScratch(*ds, Euclidean(), 10);
  ASSERT_TRUE(scores.ok());
  double max_lof = 0.0;
  double sum = 0.0;
  for (double lof : scores->lof) {
    max_lof = std::max(max_lof, lof);
    sum += lof;
  }
  EXPECT_NEAR(sum / scores->lof.size(), 1.0, 0.05);
  EXPECT_LT(max_lof, 1.5);
}

TEST(LofComputerTest, PlantedOutlierScoresHighest) {
  Rng rng(4);
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  const double center[2] = {0, 0};
  ASSERT_TRUE(
      generators::AppendGaussianCluster(*ds, rng, center, 1.0, 300).ok());
  const double far_away[2] = {8.0, 8.0};
  ASSERT_TRUE(ds->Append(far_away, "planted").ok());
  auto scores = LofComputer::ComputeFromScratch(*ds, Euclidean(), 15);
  ASSERT_TRUE(scores.ok());
  auto ranked = RankDescending(scores->lof, 1);
  EXPECT_EQ(ranked[0].index, 300u);
  EXPECT_GT(ranked[0].score, 2.0);
}

TEST(LofComputerTest, DuplicateDegeneracyFollowsDocumentedConvention) {
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  const double p[2] = {1.0, 1.0};
  ASSERT_TRUE(generators::AppendDuplicates(*ds, p, 5).ok());
  const double q[2] = {2.0, 2.0};
  ASSERT_TRUE(ds->Append(q).ok());
  auto scores = LofComputer::ComputeFromScratch(*ds, Euclidean(), 3);
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(scores->has_infinite_lrd);
  // Duplicates: infinite lrd, neighbors also infinite -> LOF 1.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(std::isinf(scores->lrd[i]));
    EXPECT_DOUBLE_EQ(scores->lof[i], 1.0);
  }
  // The distinct point q has finite lrd but infinitely dense neighbors.
  EXPECT_TRUE(std::isfinite(scores->lrd[5]));
  EXPECT_TRUE(std::isinf(scores->lof[5]));
}

TEST(LofComputerTest, DistinctModeAvoidsDegeneracy) {
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  const double p[2] = {1.0, 1.0};
  ASSERT_TRUE(generators::AppendDuplicates(*ds, p, 5).ok());
  const double q[2] = {2.0, 2.0};
  const double r[2] = {2.5, 2.5};
  ASSERT_TRUE(ds->Append(q).ok());
  ASSERT_TRUE(ds->Append(r).ok());
  auto scores = LofComputer::ComputeFromScratch(
      *ds, Euclidean(), 2, IndexKind::kLinearScan, /*distinct=*/true);
  ASSERT_TRUE(scores.ok());
  EXPECT_FALSE(scores->has_infinite_lrd);
  for (double lof : scores->lof) {
    EXPECT_TRUE(std::isfinite(lof));
  }
}

TEST(LofComputerTest, AllIndexesProduceIdenticalScores) {
  Rng rng(5);
  auto ds = generators::MakePerformanceWorkload(rng, 3, 300, 4);
  ASSERT_TRUE(ds.ok());
  auto reference =
      LofComputer::ComputeFromScratch(*ds, Euclidean(), 10,
                                      IndexKind::kLinearScan);
  ASSERT_TRUE(reference.ok());
  for (IndexKind kind : AllIndexKinds()) {
    auto scores = LofComputer::ComputeFromScratch(*ds, Euclidean(), 10, kind);
    ASSERT_TRUE(scores.ok()) << IndexKindName(kind);
    for (size_t i = 0; i < scores->lof.size(); ++i) {
      ASSERT_NEAR(scores->lof[i], reference->lof[i], 1e-12)
          << IndexKindName(kind) << " point " << i;
    }
  }
}

TEST(LofComputerTest, SimplifiedVariantFluctuatesMore) {
  // Definition 5's rationale: reach-dist smoothing reduces LOF variance in
  // homogeneous regions.
  Rng rng(6);
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  const double lo[2] = {0, 0};
  const double hi[2] = {50, 50};
  ASSERT_TRUE(generators::AppendUniformBox(*ds, rng, lo, hi, 800).ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(*ds, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(*ds, index, 10);
  ASSERT_TRUE(m.ok());
  auto smoothed = LofComputer::Compute(*m, 10, {.use_reachability = true});
  auto raw = LofComputer::Compute(*m, 10, {.use_reachability = false});
  ASSERT_TRUE(smoothed.ok() && raw.ok());
  auto stddev = [](const std::vector<double>& values) {
    double sum = 0, sum_sq = 0;
    for (double v : values) {
      sum += v;
      sum_sq += v * v;
    }
    const double mean = sum / values.size();
    return std::sqrt(std::max(0.0, sum_sq / values.size() - mean * mean));
  };
  EXPECT_LT(stddev(smoothed->lof), stddev(raw->lof));
}

TEST(LofComputerTest, ScoresFromSavedMaterializationMatch) {
  Rng rng(7);
  auto ds = generators::MakePerformanceWorkload(rng, 2, 200, 3);
  ASSERT_TRUE(ds.ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(*ds, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(*ds, index, 12);
  ASSERT_TRUE(m.ok());
  const std::string path = ::testing::TempDir() + "/lofkit_scores_m.bin";
  ASSERT_TRUE(m->SaveToFile(path).ok());
  auto loaded = NeighborhoodMaterializer::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  auto direct = LofComputer::Compute(*m, 10);
  auto from_file = LofComputer::Compute(*loaded, 10);
  ASSERT_TRUE(direct.ok() && from_file.ok());
  for (size_t i = 0; i < direct->lof.size(); ++i) {
    ASSERT_DOUBLE_EQ(direct->lof[i], from_file->lof[i]);
  }
  std::remove(path.c_str());
}

TEST(LofComputerTest, RankDescendingBreaksTiesByIndex) {
  const std::vector<double> scores = {1.0, 3.0, 3.0, 0.5};
  auto ranked = RankDescending(scores);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].index, 1u);
  EXPECT_EQ(ranked[1].index, 2u);
  EXPECT_EQ(ranked[2].index, 0u);
  EXPECT_EQ(ranked[3].index, 3u);
  auto top2 = RankDescending(scores, 2);
  EXPECT_EQ(top2.size(), 2u);
}

TEST(LofComputerTest, RankDescendingOrdersNaNScoresLastDeterministically) {
  // Regression: the old comparator used `a.score != b.score` then `>`,
  // which is not a strict weak ordering once NaNs are present (undefined
  // behavior in std::sort). NaNs must sort after every real score,
  // including -infinity, tie-broken by ascending index.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> scores = {nan, 2.0, nan, -inf, inf, 0.5};
  auto ranked = RankDescending(scores);
  ASSERT_EQ(ranked.size(), 6u);
  EXPECT_EQ(ranked[0].index, 4u);  // +inf
  EXPECT_EQ(ranked[1].index, 1u);  // 2.0
  EXPECT_EQ(ranked[2].index, 5u);  // 0.5
  EXPECT_EQ(ranked[3].index, 3u);  // -inf
  EXPECT_EQ(ranked[4].index, 0u);  // first NaN, by index
  EXPECT_EQ(ranked[5].index, 2u);  // second NaN
  EXPECT_TRUE(std::isnan(ranked[4].score));
  EXPECT_TRUE(std::isnan(ranked[5].score));

  // A large alternating NaN/value vector exercises enough comparisons for
  // libstdc++'s debug-free std::sort to go off the rails under the old
  // comparator; with the fix it must sort every NaN after every number.
  std::vector<double> many(501);
  for (size_t i = 0; i < many.size(); ++i) {
    many[i] = (i % 3 == 0) ? nan : static_cast<double>(i % 17);
  }
  auto many_ranked = RankDescending(many);
  ASSERT_EQ(many_ranked.size(), many.size());
  bool seen_nan = false;
  uint32_t previous_nan_index = 0;
  for (const RankedOutlier& r : many_ranked) {
    if (std::isnan(r.score)) {
      if (seen_nan) {
        EXPECT_GT(r.index, previous_nan_index);
      }
      seen_nan = true;
      previous_nan_index = r.index;
    } else {
      EXPECT_FALSE(seen_nan) << "real score after a NaN";
    }
  }
  EXPECT_TRUE(seen_nan);
}

// RankDescending partial-sorts when 0 < top_n < n. Its comparator is a
// total order, so the result must equal the full sort's prefix exactly:
// checked against a plain std::sort with NaNs, +/-inf and heavy ties.
TEST(LofComputerTest, RankDescendingTopNMatchesFullSortPrefix) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(61);
  std::vector<double> scores(257);
  for (size_t i = 0; i < scores.size(); ++i) {
    switch (i % 7) {
      case 0: scores[i] = nan; break;
      case 1: scores[i] = 1.0; break;  // One big tie.
      case 2: scores[i] = i % 2 == 0 ? inf : -inf; break;
      default: scores[i] = std::round(rng.Uniform(0.0, 8.0)) / 4.0;
    }
  }
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const bool a_nan = std::isnan(scores[a]);
    const bool b_nan = std::isnan(scores[b]);
    if (a_nan != b_nan) return b_nan;
    if (!a_nan && scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  const size_t n = scores.size();
  for (const size_t top_n : {size_t{0}, size_t{1}, size_t{10}, n - 1, n,
                             n + 1}) {
    SCOPED_TRACE(top_n);
    const auto ranked = RankDescending(scores, top_n);
    const size_t expected = top_n == 0 ? n : std::min(top_n, n);
    ASSERT_EQ(ranked.size(), expected);
    for (size_t r = 0; r < expected; ++r) {
      ASSERT_EQ(ranked[r].index, order[r]) << "rank " << r;
      ASSERT_EQ(std::bit_cast<uint64_t>(ranked[r].score),
                std::bit_cast<uint64_t>(scores[order[r]]));
    }
  }
}

TEST(LofComputerTest, ComputeFromScratchForwardsOptions) {
  // Regression: ComputeFromScratch used to drop LofComputeOptions and
  // always compute with defaults, making the use_reachability ablation
  // unreachable from this entry point.
  Rng rng(8);
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  const double lo[2] = {0, 0};
  const double hi[2] = {30, 30};
  ASSERT_TRUE(generators::AppendUniformBox(*ds, rng, lo, hi, 300).ok());
  auto smoothed = LofComputer::ComputeFromScratch(
      *ds, Euclidean(), 10, IndexKind::kLinearScan, false,
      {.use_reachability = true});
  auto raw = LofComputer::ComputeFromScratch(
      *ds, Euclidean(), 10, IndexKind::kLinearScan, false,
      {.use_reachability = false});
  ASSERT_TRUE(smoothed.ok() && raw.ok());
  bool any_difference = false;
  for (size_t i = 0; i < smoothed->lof.size(); ++i) {
    if (smoothed->lof[i] != raw->lof[i]) any_difference = true;
  }
  EXPECT_TRUE(any_difference)
      << "the simplified variant must be reachable from ComputeFromScratch";
}

TEST(LofComputerTest, ComputeFromScratchRecordsPhaseTimes) {
  Rng rng(9);
  auto ds = generators::MakePerformanceWorkload(rng, 2, 300, 3);
  ASSERT_TRUE(ds.ok());
  auto scores = LofComputer::ComputeFromScratch(*ds, Euclidean(), 10);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->phase_times.materialize_seconds, 0.0);
  EXPECT_GT(scores->phase_times.lrd_seconds, 0.0);
  EXPECT_GT(scores->phase_times.lof_seconds, 0.0);
}

TEST(LofComputerTest, MinPtsOneIsDegenerateButDefined) {
  // MinPts = 1 reduces reach-dist to nearest-neighbor distances; LOF is
  // still well defined per the definitions.
  auto ds = Dataset::FromRowMajor(1, {0, 1, 3, 7});
  ASSERT_TRUE(ds.ok());
  auto scores = LofComputer::ComputeFromScratch(*ds, Euclidean(), 1);
  ASSERT_TRUE(scores.ok());
  for (double lof : scores->lof) {
    EXPECT_TRUE(std::isfinite(lof));
    EXPECT_GT(lof, 0.0);
  }
}

}  // namespace
}  // namespace lofkit
