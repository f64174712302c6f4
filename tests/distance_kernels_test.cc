#include "dataset/distance_kernels.h"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataset/dataset.h"
#include "dataset/metric.h"
#include "dataset/point_block.h"
#include "index/kd_tree_index.h"
#include "index/linear_scan_index.h"

namespace lofkit {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The dimensions exercise the interesting boundaries of the blocked and
// strided loops: scalar (1), tiny (2), one early-exit stride (8), and the
// 64-d neighborhood of the paper's histogram experiments, straddling a
// vector-width multiple (63/64/65).
const size_t kDims[] = {1, 2, 8, 63, 64, 65};

enum class MetricKind {
  kEuclidean,
  kManhattan,
  kChebyshev,
  kMinkowski,
  kWeightedEuclidean,
};

struct KernelCase {
  MetricKind kind;
  size_t dim;
};

std::string CaseName(const testing::TestParamInfo<KernelCase>& info) {
  const char* metric = nullptr;
  switch (info.param.kind) {
    case MetricKind::kEuclidean: metric = "euclidean"; break;
    case MetricKind::kManhattan: metric = "manhattan"; break;
    case MetricKind::kChebyshev: metric = "chebyshev"; break;
    case MetricKind::kMinkowski: metric = "minkowski"; break;
    case MetricKind::kWeightedEuclidean: metric = "weighted"; break;
  }
  return std::string(metric) + "_d" + std::to_string(info.param.dim);
}

std::vector<KernelCase> AllCases() {
  std::vector<KernelCase> cases;
  for (MetricKind kind :
       {MetricKind::kEuclidean, MetricKind::kManhattan,
        MetricKind::kChebyshev, MetricKind::kMinkowski,
        MetricKind::kWeightedEuclidean}) {
    for (size_t dim : kDims) cases.push_back(KernelCase{kind, dim});
  }
  return cases;
}

class DistanceKernelsTest : public testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    const size_t dim = GetParam().dim;
    switch (GetParam().kind) {
      case MetricKind::kEuclidean:
        metric_ = &Euclidean();
        break;
      case MetricKind::kManhattan:
        metric_ = &Manhattan();
        break;
      case MetricKind::kChebyshev:
        metric_ = &Chebyshev();
        break;
      case MetricKind::kMinkowski: {
        auto m = MinkowskiMetric::Create(2.5);
        ASSERT_TRUE(m.ok());
        minkowski_ = std::make_unique<MinkowskiMetric>(*std::move(m));
        metric_ = minkowski_.get();
        break;
      }
      case MetricKind::kWeightedEuclidean: {
        std::vector<double> weights(dim);
        for (size_t i = 0; i < dim; ++i) {
          weights[i] = 0.25 + static_cast<double>(i % 7) * 0.5;
        }
        auto m = WeightedEuclideanMetric::Create(std::move(weights));
        ASSERT_TRUE(m.ok());
        weighted_ = std::make_unique<WeightedEuclideanMetric>(*std::move(m));
        metric_ = weighted_.get();
        break;
      }
    }

    // NaN/infinity-free randomized inputs: 2 full blocks plus a partial
    // one so the padding lanes are exercised too.
    Rng rng(0x10f5eed + 17 * GetParam().dim);
    const size_t n = 2 * PointBlockView::kLanes + 3;
    auto data = Dataset::Create(dim);
    ASSERT_TRUE(data.ok());
    data_.emplace(*std::move(data));
    std::vector<double> point(dim);
    for (size_t i = 0; i < n; ++i) {
      for (size_t d = 0; d < dim; ++d) point[d] = rng.Uniform(-10.0, 10.0);
      ASSERT_TRUE(data_->Append(point).ok());
    }
    query_.resize(dim);
    for (size_t d = 0; d < dim; ++d) query_[d] = rng.Uniform(-10.0, 10.0);
  }

  const Metric& metric() const { return *metric_; }
  const Dataset& data() const { return *data_; }

  const Metric* metric_ = nullptr;
  std::unique_ptr<MinkowskiMetric> minkowski_;
  std::unique_ptr<WeightedEuclideanMetric> weighted_;
  std::optional<Dataset> data_;
  std::vector<double> query_;
};

TEST_P(DistanceKernelsTest, BatchDistanceIsBitIdenticalToDistance) {
  const auto view = data().blocks();
  std::vector<double> out(PointBlockView::kLanes);
  for (size_t b = 0; b < view->num_blocks(); ++b) {
    metric().BatchDistance(query_, *view, b, out);
    for (size_t j = 0; j < PointBlockView::kLanes; ++j) {
      const uint32_t id = view->id(b * PointBlockView::kLanes + j);
      if (id == PointBlockView::kPaddingId) continue;
      EXPECT_EQ(out[j], metric().Distance(query_, data().point(id)))
          << "block " << b << " lane " << j;
    }
  }
}

TEST_P(DistanceKernelsTest, RankOneMatchesRankDistanceAndDistance) {
  const DistanceKernels kern = metric().kernels();
  EXPECT_EQ(kern.squared, metric().squared_rank());
  for (size_t i = 0; i < data().size(); ++i) {
    const auto p = data().point(i);
    const double rank =
        kern.rank_one(kern.ctx, query_.data(), p.data(), p.size());
    EXPECT_EQ(rank, metric().RankDistance(query_, p)) << "point " << i;
    EXPECT_EQ(DistanceFromRank(kern.squared, rank),
              metric().Distance(query_, p))
        << "point " << i;
  }
}

TEST_P(DistanceKernelsTest, RankBoundedIsExactAtTheBound) {
  const DistanceKernels kern = metric().kernels();
  for (size_t i = 0; i < data().size(); ++i) {
    const auto p = data().point(i);
    const double exact =
        kern.rank_one(kern.ctx, query_.data(), p.data(), p.size());
    // Exact tie at the bound (the kth-distance case): a candidate whose
    // rank equals the pruning bound must come back exact, never +inf —
    // dropping it would lose the tie.
    EXPECT_EQ(kern.rank_bounded(kern.ctx, query_.data(), p.data(), p.size(),
                                exact),
              exact)
        << "point " << i;
    EXPECT_EQ(kern.rank_bounded(kern.ctx, query_.data(), p.data(), p.size(),
                                kInf),
              exact)
        << "point " << i;
    // Below the bound the kernel may abandon, but only to +inf; a caller
    // rejecting rank > bound sees the same outcome either way.
    const double tight = kern.rank_bounded(kern.ctx, query_.data(), p.data(),
                                           p.size(), exact * 0.5);
    EXPECT_TRUE(tight == exact || tight == kInf)
        << "point " << i << " returned " << tight << ", exact " << exact;
  }
}

TEST_P(DistanceKernelsTest, RankBlockMatchesRankOne) {
  const DistanceKernels kern = metric().kernels();
  const auto view = data().blocks();
  std::vector<double> out(PointBlockView::kLanes);
  for (size_t b = 0; b < view->num_blocks(); ++b) {
    kern.rank_block(kern.ctx, query_.data(), view->block(b),
                    view->dimension(), out.data());
    for (size_t j = 0; j < PointBlockView::kLanes; ++j) {
      const uint32_t id = view->id(b * PointBlockView::kLanes + j);
      if (id == PointBlockView::kPaddingId) continue;
      const auto p = data().point(id);
      EXPECT_EQ(out[j],
                kern.rank_one(kern.ctx, query_.data(), p.data(), p.size()))
          << "block " << b << " lane " << j;
    }
  }
}

TEST_P(DistanceKernelsTest, RankGatherMatchesRankOne) {
  const DistanceKernels kern = metric().kernels();
  // A shuffled subset, as the grid buckets and R*-tree leaves produce.
  std::vector<uint32_t> ids(data().size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  Rng rng(99);
  rng.Shuffle(ids);
  ids.resize(data().size() / 2 + 1);

  std::vector<double> exact(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto p = data().point(ids[i]);
    exact[i] = kern.rank_one(kern.ctx, query_.data(), p.data(), p.size());
  }

  std::vector<double> out(ids.size());
  const double* raw = data().raw().data();
  kern.rank_gather(kern.ctx, query_.data(), raw, ids.data(), ids.size(),
                   data().dimension(), kInf, out.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i], exact[i]) << "gather lane " << i;
  }

  // Bounded gather: exact at or below the bound, exact-or-inf above it.
  const double bound = exact[ids.size() / 2];
  kern.rank_gather(kern.ctx, query_.data(), raw, ids.data(), ids.size(),
                   data().dimension(), bound, out.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (exact[i] <= bound) {
      EXPECT_EQ(out[i], exact[i]) << "gather lane " << i;
    } else {
      EXPECT_TRUE(out[i] == exact[i] || out[i] == kInf)
          << "gather lane " << i << " returned " << out[i];
    }
  }
}

TEST_P(DistanceKernelsTest, BoxRankBoundsMatchDistanceBounds) {
  const bool squared = metric().squared_rank();
  const std::vector<double> lo = data().Min();
  const std::vector<double> hi = data().Max();
  EXPECT_EQ(DistanceFromRank(squared, metric().MinRankToBox(query_, lo, hi)),
            metric().MinDistanceToBox(query_, lo, hi));
}

TEST_P(DistanceKernelsTest, RankBoxIsBitIdenticalToMinRankToBox) {
  const DistanceKernels kern = metric().kernels();
  ASSERT_NE(kern.rank_box, nullptr);
  Rng rng(0xb0c5 + GetParam().dim);
  const size_t dim = data().dimension();
  std::vector<double> lo(dim);
  std::vector<double> hi(dim);
  for (int round = 0; round < 16; ++round) {
    for (size_t d = 0; d < dim; ++d) {
      const double a = rng.Uniform(-10.0, 10.0);
      const double b = rng.Uniform(-10.0, 10.0);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    EXPECT_EQ(kern.rank_box(kern.ctx, query_.data(), lo.data(), hi.data(),
                            dim),
              metric().MinRankToBox(query_, lo, hi))
        << "round " << round;
  }
}

TEST_P(DistanceKernelsTest, RankCutLowerBoundsEveryPointBeyondThePlane) {
  const DistanceKernels kern = metric().kernels();
  ASSERT_NE(kern.rank_cut, nullptr);
  // For each split (dim, value), every point on the far side of the plane
  // from the query must rank at least rank_cut away: the admissibility
  // contract the kd-forest's O(1) descend gate relies on.
  const size_t dim = data().dimension();
  Rng rng(0xc07 + dim);
  for (int round = 0; round < 8; ++round) {
    const size_t s = rng.UniformU64(dim);
    const double v = rng.Uniform(-10.0, 10.0);
    const double cut = kern.rank_cut(kern.ctx, query_[s], v, s);
    EXPECT_GE(cut, 0.0);
    for (size_t i = 0; i < data().size(); ++i) {
      const auto p = data().point(i);
      const bool query_below = query_[s] < v;
      const bool point_beyond = query_below ? p[s] >= v : p[s] <= v;
      if (!point_beyond) continue;
      const double rank =
          kern.rank_one(kern.ctx, query_.data(), p.data(), p.size());
      EXPECT_LE(cut, rank) << "dim " << s << " cut " << v << " point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, DistanceKernelsTest,
                         testing::ValuesIn(AllCases()), CaseName);

// An external Metric subclass that overrides nothing beyond the required
// virtuals must still get a correct kernel bundle from the default
// trampolines — rank space degenerates to plain distance space.
class Taxicabish final : public Metric {
 public:
  double Distance(std::span<const double> a,
                  std::span<const double> b) const override {
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
    return sum;
  }
  double MinDistanceToBox(std::span<const double> q,
                          std::span<const double> lo,
                          std::span<const double> hi) const override {
    double sum = 0.0;
    for (size_t i = 0; i < q.size(); ++i) {
      if (q[i] < lo[i]) sum += lo[i] - q[i];
      if (q[i] > hi[i]) sum += q[i] - hi[i];
    }
    return sum;
  }
  std::string_view name() const override { return "taxicabish"; }
};

TEST(DistanceKernelsDefaultsTest, TrampolinesMatchTheVirtuals) {
  Taxicabish metric;
  const DistanceKernels kern = metric.kernels();
  EXPECT_FALSE(kern.squared);

  Rng rng(7);
  auto data_or = Dataset::Create(5);
  ASSERT_TRUE(data_or.ok());
  Dataset& data = *data_or;
  std::vector<double> point(5);
  for (size_t i = 0; i < 2 * PointBlockView::kLanes; ++i) {
    for (double& c : point) c = rng.Uniform(-3.0, 3.0);
    ASSERT_TRUE(data.Append(point).ok());
  }
  std::vector<double> query(5);
  for (double& c : query) c = rng.Uniform(-3.0, 3.0);

  for (size_t i = 0; i < data.size(); ++i) {
    const auto p = data.point(i);
    EXPECT_EQ(kern.rank_one(kern.ctx, query.data(), p.data(), p.size()),
              metric.Distance(query, p));
    EXPECT_EQ(
        kern.rank_bounded(kern.ctx, query.data(), p.data(), p.size(), 0.0),
        metric.Distance(query, p));
  }

  const auto view = data.blocks();
  std::vector<double> out(PointBlockView::kLanes);
  for (size_t b = 0; b < view->num_blocks(); ++b) {
    kern.rank_block(kern.ctx, query.data(), view->block(b), view->dimension(),
                    out.data());
    for (size_t j = 0; j < PointBlockView::kLanes; ++j) {
      const uint32_t id = view->id(b * PointBlockView::kLanes + j);
      if (id == PointBlockView::kPaddingId) continue;
      EXPECT_EQ(out[j], metric.Distance(query, data.point(id)));
    }
  }

  std::vector<uint32_t> ids = {3, 0, 7, 12};
  std::vector<double> gathered(ids.size());
  kern.rank_gather(kern.ctx, query.data(), data.raw().data(), ids.data(),
                   ids.size(), data.dimension(), 0.0, gathered.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(gathered[i], metric.Distance(query, data.point(ids[i])));
  }

  // The box trampoline routes through the virtual bound; the cut
  // trampoline is the never-firing (always admissible) zero gate.
  const std::vector<double> lo = {-1.0, -1.0, -1.0, -1.0, -1.0};
  const std::vector<double> hi = {1.0, 1.0, 1.0, 1.0, 1.0};
  ASSERT_NE(kern.rank_box, nullptr);
  ASSERT_NE(kern.rank_cut, nullptr);
  EXPECT_EQ(kern.rank_box(kern.ctx, query.data(), lo.data(), hi.data(), 5),
            metric.MinRankToBox(query, lo, hi));
  EXPECT_EQ(kern.rank_cut(kern.ctx, query[0], 0.5, 0), 0.0);
}

// Ties exactly at the kth distance must survive the squared-rank path:
// (3,4), (5,0) and (0,-5) are all at Euclidean distance 5 — and at
// *exactly* tied rank 25 — from the origin, so k = 1 must return all
// three from every kernel-path engine.
TEST(DistanceKernelsDefaultsTest, SquaredRankPreservesExactKthDistanceTies) {
  auto data_or = Dataset::Create(2);
  ASSERT_TRUE(data_or.ok());
  Dataset& data = *data_or;
  const std::vector<std::vector<double>> points = {
      {3.0, 4.0}, {5.0, 0.0}, {0.0, -5.0}, {40.0, 40.0}};
  for (const auto& p : points) ASSERT_TRUE(data.Append(p).ok());

  const std::vector<double> origin = {0.0, 0.0};
  for (const bool use_kd : {false, true}) {
    LinearScanIndex scan;
    KdTreeIndex kd;
    KnnIndex& index =
        use_kd ? static_cast<KnnIndex&>(kd) : static_cast<KnnIndex&>(scan);
    ASSERT_TRUE(index.Build(data, Euclidean()).ok());
    auto result = index.Query(origin, 1);
    ASSERT_TRUE(result.ok()) << index.name();
    ASSERT_EQ(result->size(), 3u) << index.name();
    for (const Neighbor& n : *result) {
      EXPECT_EQ(n.distance, 5.0) << index.name();
    }
  }
}

}  // namespace
}  // namespace lofkit
