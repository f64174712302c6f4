#include "dataset/metric.h"

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lof/lof_computer.h"

namespace lofkit {
namespace {

TEST(MetricTest, EuclideanMatchesHandComputation) {
  const double a[2] = {0, 0};
  const double b[2] = {3, 4};
  EXPECT_DOUBLE_EQ(Euclidean().Distance(a, b), 5.0);
}

TEST(MetricTest, ManhattanMatchesHandComputation) {
  const double a[2] = {1, 1};
  const double b[2] = {4, -2};
  EXPECT_DOUBLE_EQ(Manhattan().Distance(a, b), 6.0);
}

TEST(MetricTest, ChebyshevMatchesHandComputation) {
  const double a[2] = {1, 1};
  const double b[2] = {4, -2};
  EXPECT_DOUBLE_EQ(Chebyshev().Distance(a, b), 3.0);
}

TEST(MetricTest, MinkowskiGeneralizesL1AndL2) {
  auto m1 = MinkowskiMetric::Create(1.0);
  auto m2 = MinkowskiMetric::Create(2.0);
  ASSERT_TRUE(m1.ok() && m2.ok());
  const double a[3] = {1, 2, 3};
  const double b[3] = {4, 0, 3};
  EXPECT_NEAR(m1->Distance(a, b), Manhattan().Distance(a, b), 1e-12);
  EXPECT_NEAR(m2->Distance(a, b), Euclidean().Distance(a, b), 1e-12);
}

TEST(MetricTest, MinkowskiRejectsPBelowOne) {
  EXPECT_FALSE(MinkowskiMetric::Create(0.5).ok());
  EXPECT_FALSE(MinkowskiMetric::Create(-1).ok());
  EXPECT_FALSE(MinkowskiMetric::Create(std::nan("")).ok());
}

TEST(MetricTest, WeightedEuclideanScalesDimensions) {
  auto m = WeightedEuclideanMetric::Create({4.0, 1.0});
  ASSERT_TRUE(m.ok());
  const double a[2] = {0, 0};
  const double b[2] = {1, 0};
  const double c[2] = {0, 1};
  EXPECT_DOUBLE_EQ(m->Distance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(m->Distance(a, c), 1.0);
}

TEST(MetricTest, WeightedEuclideanRejectsBadWeights) {
  EXPECT_FALSE(WeightedEuclideanMetric::Create({}).ok());
  EXPECT_FALSE(WeightedEuclideanMetric::Create({1.0, 0.0}).ok());
  EXPECT_FALSE(WeightedEuclideanMetric::Create({-1.0}).ok());
}

TEST(MetricTest, MetricByName) {
  ASSERT_TRUE(MetricByName("euclidean").ok());
  ASSERT_TRUE(MetricByName("manhattan").ok());
  ASSERT_TRUE(MetricByName("chebyshev").ok());
  EXPECT_EQ((*MetricByName("euclidean"))->name(), "euclidean");
  EXPECT_FALSE(MetricByName("hamming").ok());
}

TEST(MetricTest, AngularMatchesHandComputation) {
  const double x[2] = {1, 0};
  const double y[2] = {0, 1};
  const double diag[2] = {1, 1};
  const double scaled[2] = {5, 0};
  EXPECT_NEAR(Angular().Distance(x, y), std::acos(0.0), 1e-12);  // 90 deg
  EXPECT_NEAR(Angular().Distance(x, diag), std::acos(1 / std::sqrt(2.0)),
              1e-12);  // 45 deg
  // Scale invariance: direction is all that matters.
  EXPECT_NEAR(Angular().Distance(x, scaled), 0.0, 1e-12);
}

TEST(MetricTest, AngularSatisfiesMetricAxioms) {
  Rng rng(123);
  std::vector<double> a(4), b(4), c(4);
  for (int trial = 0; trial < 200; ++trial) {
    for (size_t d = 0; d < 4; ++d) {
      a[d] = rng.Uniform(0.01, 1.0);  // positive orthant (histograms)
      b[d] = rng.Uniform(0.01, 1.0);
      c[d] = rng.Uniform(0.01, 1.0);
    }
    const double ab = Angular().Distance(a, b);
    EXPECT_GE(ab, 0.0);
    EXPECT_DOUBLE_EQ(ab, Angular().Distance(b, a));
    EXPECT_LE(ab,
              Angular().Distance(a, c) + Angular().Distance(c, b) + 1e-9);
  }
}

TEST(MetricTest, AngularBoxBoundsAreTriviallyValid) {
  const double q[2] = {1, 0};
  const double lo[2] = {0, 0};
  const double hi[2] = {1, 1};
  EXPECT_DOUBLE_EQ(Angular().MinDistanceToBox(q, lo, hi), 0.0);
}

TEST(MetricTest, AngularAvailableByName) {
  auto metric = MetricByName("angular");
  ASSERT_TRUE(metric.ok());
  EXPECT_EQ((*metric)->name(), "angular");
}

TEST(MetricTest, LinearScanLofWorksUnderAngularMetric) {
  // End-to-end sanity: LOF under the angular metric flags a direction
  // outlier that Euclidean LOF on normalized data would also see.
  auto ds = Dataset::Create(3);
  ASSERT_TRUE(ds.ok());
  Rng rng(321);
  std::vector<double> p(3);
  for (int i = 0; i < 200; ++i) {
    p = {rng.Uniform(0.8, 1.0), rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 0.2)};
    ASSERT_TRUE(ds->Append(p).ok());
  }
  p = {0.0, 1.0, 0.0};  // orthogonal direction
  ASSERT_TRUE(ds->Append(p).ok());
  auto scores = LofComputer::ComputeFromScratch(*ds, Angular(), 10);
  ASSERT_TRUE(scores.ok());
  auto ranked = RankDescending(scores->lof, 1);
  EXPECT_EQ(ranked[0].index, 200u);
}

// ---------------------------------------------------------------------------
// Property sweep: metric axioms and box-bound correctness, for each metric.
// ---------------------------------------------------------------------------

// A metric with the name its ctest entries carry. gtest prints the
// parameter into each test's listed name; printing the name rather than the
// pointer keeps those names the same on every build.
struct MetricCase {
  const char* name;
  const Metric* metric;

  friend void PrintTo(const MetricCase& c, std::ostream* os) { *os << c.name; }
};

class MetricPropertyTest : public ::testing::TestWithParam<MetricCase> {};

TEST_P(MetricPropertyTest, AxiomsHoldOnRandomPoints) {
  const Metric& metric = *GetParam().metric;
  Rng rng(42);
  const size_t dim = 3;  // the weighted metric instance is 3-dimensional
  std::vector<double> a(dim), b(dim), c(dim);
  for (int trial = 0; trial < 200; ++trial) {
    for (size_t d = 0; d < dim; ++d) {
      a[d] = rng.Uniform(-10, 10);
      b[d] = rng.Uniform(-10, 10);
      c[d] = rng.Uniform(-10, 10);
    }
    const double ab = metric.Distance(a, b);
    const double ba = metric.Distance(b, a);
    const double ac = metric.Distance(a, c);
    const double cb = metric.Distance(c, b);
    EXPECT_GE(ab, 0.0);
    EXPECT_DOUBLE_EQ(metric.Distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(ab, ba);                  // symmetry
    EXPECT_LE(ab, ac + cb + 1e-9);             // triangle inequality
  }
}

TEST_P(MetricPropertyTest, BoxBoundsEncloseSampledDistances) {
  const Metric& metric = *GetParam().metric;
  Rng rng(77);
  const size_t dim = 3;
  std::vector<double> q(dim), lo(dim), hi(dim), p(dim);
  for (int trial = 0; trial < 100; ++trial) {
    for (size_t d = 0; d < dim; ++d) {
      q[d] = rng.Uniform(-10, 10);
      const double x = rng.Uniform(-10, 10);
      const double y = rng.Uniform(-10, 10);
      lo[d] = std::min(x, y);
      hi[d] = std::max(x, y);
    }
    const double min_bound = metric.MinDistanceToBox(q, lo, hi);
    for (int sample = 0; sample < 50; ++sample) {
      for (size_t d = 0; d < dim; ++d) p[d] = rng.Uniform(lo[d], hi[d]);
      const double dist = metric.Distance(q, p);
      EXPECT_GE(dist, min_bound - 1e-9);
    }
  }
}

const Metric* MakeWeighted() {
  static auto* metric = new WeightedEuclideanMetric(
      *WeightedEuclideanMetric::Create({0.25, 2.0, 1.5}));
  return metric;
}

const Metric* MakeMinkowski3() {
  static auto* metric = new MinkowskiMetric(*MinkowskiMetric::Create(3.0));
  return metric;
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, MetricPropertyTest,
    ::testing::Values(MetricCase{"euclidean", &Euclidean()},
                      MetricCase{"manhattan", &Manhattan()},
                      MetricCase{"chebyshev", &Chebyshev()},
                      MetricCase{"weighted_euclidean", MakeWeighted()},
                      MetricCase{"minkowski3", MakeMinkowski3()}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace lofkit
