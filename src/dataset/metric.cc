#include "dataset/metric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "dataset/point_block.h"

namespace lofkit {

namespace {

// Clamps q[d] into [lo[d], hi[d]] and returns the residual |q[d] - clamp|.
inline double BoxDelta(double q, double lo, double hi) {
  if (q < lo) return lo - q;
  if (q > hi) return q - hi;
  return 0.0;
}

// --- DistanceKernels adapters -----------------------------------------
//
// Non-capturing functions binding the raw loops of distance_kernels.cc to
// the DistanceKernels signature. ctx conventions: unused for the
// stateless metrics, the metric instance for Minkowski and weighted L2.

double EuclidRankOne(const void*, const double* a, const double* b,
                     size_t dim) {
  return kernels::L2Squared(a, b, dim);
}
double EuclidRankBounded(const void*, const double* a, const double* b,
                         size_t dim, double bound) {
  return kernels::L2SquaredBounded(a, b, dim, bound);
}
void EuclidRankBlock(const void*, const double* q, const double* block,
                     size_t dim, double* out) {
  kernels::L2SquaredBlock(q, block, dim, out);
}
void EuclidRankGather(const void*, const double* q, const double* raw,
                      const uint32_t* ids, size_t count, size_t dim,
                      double bound, double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = kernels::L2SquaredBounded(q, raw + size_t{ids[i]} * dim, dim,
                                       bound);
  }
}
double EuclidRankBox(const void*, const double* q, const double* lo,
                     const double* hi, size_t dim) {
  return kernels::L2SquaredToBox(q, lo, hi, dim);
}
double EuclidRankCut(const void*, double qd, double v, size_t) {
  const double t = qd - v;
  return t * t;
}

double L1RankOne(const void*, const double* a, const double* b, size_t dim) {
  return kernels::L1(a, b, dim);
}
double L1RankBounded(const void*, const double* a, const double* b,
                     size_t dim, double bound) {
  return kernels::L1Bounded(a, b, dim, bound);
}
void L1RankBlock(const void*, const double* q, const double* block,
                 size_t dim, double* out) {
  kernels::L1Block(q, block, dim, out);
}
void L1RankGather(const void*, const double* q, const double* raw,
                  const uint32_t* ids, size_t count, size_t dim, double bound,
                  double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = kernels::L1Bounded(q, raw + size_t{ids[i]} * dim, dim, bound);
  }
}
double L1RankBox(const void*, const double* q, const double* lo,
                 const double* hi, size_t dim) {
  return kernels::L1ToBox(q, lo, hi, dim);
}
// Shared by every metric whose rank is the distance itself: one
// coordinate gap alone lower-bounds L1, Linf, and any L_p
// ((|t|^p)^(1/p) = |t|).
double AbsRankCut(const void*, double qd, double v, size_t) {
  return qd < v ? v - qd : qd - v;
}

double LinfRankOne(const void*, const double* a, const double* b,
                   size_t dim) {
  return kernels::Linf(a, b, dim);
}
double LinfRankBounded(const void*, const double* a, const double* b,
                       size_t dim, double bound) {
  return kernels::LinfBounded(a, b, dim, bound);
}
void LinfRankBlock(const void*, const double* q, const double* block,
                   size_t dim, double* out) {
  kernels::LinfBlock(q, block, dim, out);
}
void LinfRankGather(const void*, const double* q, const double* raw,
                    const uint32_t* ids, size_t count, size_t dim,
                    double bound, double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = kernels::LinfBounded(q, raw + size_t{ids[i]} * dim, dim, bound);
  }
}
double LinfRankBox(const void*, const double* q, const double* lo,
                   const double* hi, size_t dim) {
  return kernels::LinfToBox(q, lo, hi, dim);
}

double LpRankOne(const void* ctx, const double* a, const double* b,
                 size_t dim) {
  return kernels::Lp(static_cast<const MinkowskiMetric*>(ctx)->p(), a, b, dim);
}
double LpRankBounded(const void* ctx, const double* a, const double* b,
                     size_t dim, double) {
  return LpRankOne(ctx, a, b, dim);  // no exactly-safe partial bound for L_p
}
void LpRankBlock(const void* ctx, const double* q, const double* block,
                 size_t dim, double* out) {
  kernels::LpBlock(static_cast<const MinkowskiMetric*>(ctx)->p(), q, block,
                   dim, out);
}
void LpRankGather(const void* ctx, const double* q, const double* raw,
                  const uint32_t* ids, size_t count, size_t dim, double,
                  double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = LpRankOne(ctx, q, raw + size_t{ids[i]} * dim, dim);
  }
}
double LpRankBox(const void* ctx, const double* q, const double* lo,
                 const double* hi, size_t dim) {
  return kernels::LpToBox(static_cast<const MinkowskiMetric*>(ctx)->p(), q,
                          lo, hi, dim);
}

const double* WeightsOf(const void* ctx) {
  return static_cast<const WeightedEuclideanMetric*>(ctx)->weights().data();
}
double WL2RankOne(const void* ctx, const double* a, const double* b,
                  size_t dim) {
  return kernels::WeightedL2Squared(WeightsOf(ctx), a, b, dim);
}
double WL2RankBounded(const void* ctx, const double* a, const double* b,
                      size_t dim, double bound) {
  return kernels::WeightedL2SquaredBounded(WeightsOf(ctx), a, b, dim, bound);
}
void WL2RankBlock(const void* ctx, const double* q, const double* block,
                  size_t dim, double* out) {
  kernels::WeightedL2SquaredBlock(WeightsOf(ctx), q, block, dim, out);
}
void WL2RankGather(const void* ctx, const double* q, const double* raw,
                   const uint32_t* ids, size_t count, size_t dim,
                   double bound, double* out) {
  const double* w = WeightsOf(ctx);
  for (size_t i = 0; i < count; ++i) {
    out[i] = kernels::WeightedL2SquaredBounded(w, q, raw + size_t{ids[i]} * dim,
                                               dim, bound);
  }
}
double WL2RankBox(const void* ctx, const double* q, const double* lo,
                  const double* hi, size_t dim) {
  return kernels::WeightedL2SquaredToBox(WeightsOf(ctx), q, lo, hi, dim);
}
double WL2RankCut(const void* ctx, double qd, double v, size_t d) {
  const double t = qd - v;
  return WeightsOf(ctx)[d] * t * t;
}

// Fallback trampolines routing through the virtual interface, for metrics
// (including external subclasses) without tight loops of their own.
double TrampRankOne(const void* ctx, const double* a, const double* b,
                    size_t dim) {
  return static_cast<const Metric*>(ctx)->RankDistance({a, dim}, {b, dim});
}
double TrampRankBounded(const void* ctx, const double* a, const double* b,
                        size_t dim, double) {
  return TrampRankOne(ctx, a, b, dim);
}
void TrampRankBlock(const void* ctx, const double* q, const double* block,
                    size_t dim, double* out) {
  std::vector<double> lane(dim);
  for (size_t j = 0; j < kKernelLanes; ++j) {
    for (size_t d = 0; d < dim; ++d) lane[d] = block[d * kKernelLanes + j];
    out[j] = TrampRankOne(ctx, q, lane.data(), dim);
  }
}
void TrampRankGather(const void* ctx, const double* q, const double* raw,
                     const uint32_t* ids, size_t count, size_t dim, double,
                     double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = TrampRankOne(ctx, q, raw + size_t{ids[i]} * dim, dim);
  }
}
double TrampRankBox(const void* ctx, const double* q, const double* lo,
                    const double* hi, size_t dim) {
  return static_cast<const Metric*>(ctx)->MinRankToBox({q, dim}, {lo, dim},
                                                       {hi, dim});
}
// Zero is admissible for any metric: a gate that never fires.
double TrampRankCut(const void*, double, double, size_t) { return 0.0; }

DistanceKernels MakeKernels(const void* ctx, bool squared,
                            double (*one)(const void*, const double*,
                                          const double*, size_t),
                            double (*bounded)(const void*, const double*,
                                              const double*, size_t, double),
                            void (*block)(const void*, const double*,
                                          const double*, size_t, double*),
                            void (*gather)(const void*, const double*,
                                           const double*, const uint32_t*,
                                           size_t, size_t, double, double*),
                            double (*box)(const void*, const double*,
                                          const double*, const double*,
                                          size_t),
                            double (*cut)(const void*, double, double,
                                          size_t)) {
  DistanceKernels k;
  k.ctx = ctx;
  k.squared = squared;
  k.rank_one = one;
  k.rank_bounded = bounded;
  k.rank_block = block;
  k.rank_gather = gather;
  k.rank_box = box;
  k.rank_cut = cut;
  return k;
}

}  // namespace

void Metric::BatchDistance(std::span<const double> query,
                           const PointBlockView& view, size_t b,
                           std::span<double> out) const {
  assert(out.size() >= kKernelLanes);
  const size_t dim = view.dimension();
  std::vector<double> lane(dim);
  const double* block = view.block(b);
  for (size_t j = 0; j < kKernelLanes; ++j) {
    for (size_t d = 0; d < dim; ++d) lane[d] = block[d * kKernelLanes + j];
    out[j] = Distance(query, lane);
  }
}

DistanceKernels Metric::kernels() const {
  return MakeKernels(this, squared_rank(), TrampRankOne, TrampRankBounded,
                     TrampRankBlock, TrampRankGather, TrampRankBox,
                     TrampRankCut);
}

double EuclideanMetric::Distance(std::span<const double> a,
                                 std::span<const double> b) const {
  assert(a.size() == b.size());
  // sqrt of the kernel's squared sum: same accumulation order as before
  // the kernel layer, so results are bit-identical.
  return std::sqrt(lofkit::kernels::L2Squared(a.data(), b.data(), a.size()));
}

double EuclideanMetric::RankDistance(std::span<const double> a,
                                     std::span<const double> b) const {
  assert(a.size() == b.size());
  return lofkit::kernels::L2Squared(a.data(), b.data(), a.size());
}

double EuclideanMetric::MinDistanceToBox(std::span<const double> q,
                                         std::span<const double> lo,
                                         std::span<const double> hi) const {
  return std::sqrt(MinRankToBox(q, lo, hi));
}

double EuclideanMetric::MinRankToBox(std::span<const double> q,
                                     std::span<const double> lo,
                                     std::span<const double> hi) const {
  double sum = 0.0;
  for (size_t i = 0; i < q.size(); ++i) {
    const double d = BoxDelta(q[i], lo[i], hi[i]);
    sum += d * d;
  }
  return sum;
}

void EuclideanMetric::BatchDistance(std::span<const double> query,
                                    const PointBlockView& view, size_t b,
                                    std::span<double> out) const {
  assert(out.size() >= kKernelLanes);
  double rank[kKernelLanes];
  lofkit::kernels::L2SquaredBlock(query.data(), view.block(b),
                                  view.dimension(), rank);
  for (size_t j = 0; j < kKernelLanes; ++j) out[j] = std::sqrt(rank[j]);
}

DistanceKernels EuclideanMetric::kernels() const {
  return MakeKernels(this, /*squared=*/true, EuclidRankOne, EuclidRankBounded,
                     EuclidRankBlock, EuclidRankGather, EuclidRankBox,
                     EuclidRankCut);
}

double ManhattanMetric::Distance(std::span<const double> a,
                                 std::span<const double> b) const {
  assert(a.size() == b.size());
  return lofkit::kernels::L1(a.data(), b.data(), a.size());
}

void ManhattanMetric::BatchDistance(std::span<const double> query,
                                    const PointBlockView& view, size_t b,
                                    std::span<double> out) const {
  assert(out.size() >= kKernelLanes);
  lofkit::kernels::L1Block(query.data(), view.block(b), view.dimension(),
                           out.data());
}

DistanceKernels ManhattanMetric::kernels() const {
  return MakeKernels(this, /*squared=*/false, L1RankOne, L1RankBounded,
                     L1RankBlock, L1RankGather, L1RankBox, AbsRankCut);
}

double ManhattanMetric::MinDistanceToBox(std::span<const double> q,
                                         std::span<const double> lo,
                                         std::span<const double> hi) const {
  double sum = 0.0;
  for (size_t i = 0; i < q.size(); ++i) {
    sum += BoxDelta(q[i], lo[i], hi[i]);
  }
  return sum;
}

double ChebyshevMetric::Distance(std::span<const double> a,
                                 std::span<const double> b) const {
  assert(a.size() == b.size());
  return lofkit::kernels::Linf(a.data(), b.data(), a.size());
}

void ChebyshevMetric::BatchDistance(std::span<const double> query,
                                    const PointBlockView& view, size_t b,
                                    std::span<double> out) const {
  assert(out.size() >= kKernelLanes);
  lofkit::kernels::LinfBlock(query.data(), view.block(b), view.dimension(),
                             out.data());
}

DistanceKernels ChebyshevMetric::kernels() const {
  return MakeKernels(this, /*squared=*/false, LinfRankOne, LinfRankBounded,
                     LinfRankBlock, LinfRankGather, LinfRankBox, AbsRankCut);
}

double ChebyshevMetric::MinDistanceToBox(std::span<const double> q,
                                         std::span<const double> lo,
                                         std::span<const double> hi) const {
  double max = 0.0;
  for (size_t i = 0; i < q.size(); ++i) {
    const double d = BoxDelta(q[i], lo[i], hi[i]);
    if (d > max) max = d;
  }
  return max;
}

Result<MinkowskiMetric> MinkowskiMetric::Create(double p) {
  if (!(p >= 1.0) || !std::isfinite(p)) {
    return Status::InvalidArgument("Minkowski p must be finite and >= 1");
  }
  return MinkowskiMetric(p);
}

double MinkowskiMetric::Distance(std::span<const double> a,
                                 std::span<const double> b) const {
  assert(a.size() == b.size());
  return lofkit::kernels::Lp(p_, a.data(), b.data(), a.size());
}

void MinkowskiMetric::BatchDistance(std::span<const double> query,
                                    const PointBlockView& view, size_t b,
                                    std::span<double> out) const {
  assert(out.size() >= kKernelLanes);
  lofkit::kernels::LpBlock(p_, query.data(), view.block(b), view.dimension(),
                           out.data());
}

DistanceKernels MinkowskiMetric::kernels() const {
  return MakeKernels(this, /*squared=*/false, LpRankOne, LpRankBounded,
                     LpRankBlock, LpRankGather, LpRankBox, AbsRankCut);
}

double MinkowskiMetric::MinDistanceToBox(std::span<const double> q,
                                         std::span<const double> lo,
                                         std::span<const double> hi) const {
  double sum = 0.0;
  for (size_t i = 0; i < q.size(); ++i) {
    sum += std::pow(BoxDelta(q[i], lo[i], hi[i]), p_);
  }
  return std::pow(sum, 1.0 / p_);
}

Result<WeightedEuclideanMetric> WeightedEuclideanMetric::Create(
    std::vector<double> weights) {
  if (weights.empty()) {
    return Status::InvalidArgument("weight vector must be non-empty");
  }
  for (double w : weights) {
    if (!std::isfinite(w) || w <= 0.0) {
      return Status::InvalidArgument("weights must be finite and > 0");
    }
  }
  return WeightedEuclideanMetric(std::move(weights));
}

double WeightedEuclideanMetric::Distance(std::span<const double> a,
                                         std::span<const double> b) const {
  assert(a.size() == b.size());
  assert(a.size() == weights_.size());
  return std::sqrt(
      lofkit::kernels::WeightedL2Squared(weights_.data(), a.data(), b.data(),
                                         a.size()));
}

double WeightedEuclideanMetric::RankDistance(std::span<const double> a,
                                             std::span<const double> b) const {
  assert(a.size() == b.size());
  assert(a.size() == weights_.size());
  return lofkit::kernels::WeightedL2Squared(weights_.data(), a.data(),
                                            b.data(), a.size());
}

double WeightedEuclideanMetric::MinDistanceToBox(
    std::span<const double> q, std::span<const double> lo,
    std::span<const double> hi) const {
  return std::sqrt(MinRankToBox(q, lo, hi));
}

double WeightedEuclideanMetric::MinRankToBox(std::span<const double> q,
                                             std::span<const double> lo,
                                             std::span<const double> hi) const {
  double sum = 0.0;
  for (size_t i = 0; i < q.size(); ++i) {
    const double d = BoxDelta(q[i], lo[i], hi[i]);
    sum += weights_[i] * d * d;
  }
  return sum;
}

void WeightedEuclideanMetric::BatchDistance(std::span<const double> query,
                                            const PointBlockView& view,
                                            size_t b,
                                            std::span<double> out) const {
  assert(out.size() >= kKernelLanes);
  double rank[kKernelLanes];
  lofkit::kernels::WeightedL2SquaredBlock(weights_.data(), query.data(),
                                          view.block(b), view.dimension(),
                                          rank);
  for (size_t j = 0; j < kKernelLanes; ++j) out[j] = std::sqrt(rank[j]);
}

DistanceKernels WeightedEuclideanMetric::kernels() const {
  return MakeKernels(this, /*squared=*/true, WL2RankOne, WL2RankBounded,
                     WL2RankBlock, WL2RankGather, WL2RankBox, WL2RankCut);
}

double AngularMetric::Distance(std::span<const double> a,
                               std::span<const double> b) const {
  assert(a.size() == b.size());
  double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    norm_a += a[i] * a[i];
    norm_b += b[i] * b[i];
  }
  const double denom = std::sqrt(norm_a) * std::sqrt(norm_b);
  if (denom <= 0.0) return 0.0;  // zero vector: no direction
  const double cosine = std::clamp(dot / denom, -1.0, 1.0);
  return std::acos(cosine);
}

double AngularMetric::MinDistanceToBox(std::span<const double>,
                                       std::span<const double>,
                                       std::span<const double>) const {
  return 0.0;  // trivially valid; see class comment
}

const EuclideanMetric& Euclidean() {
  static const EuclideanMetric kMetric;
  return kMetric;
}

const ManhattanMetric& Manhattan() {
  static const ManhattanMetric kMetric;
  return kMetric;
}

const ChebyshevMetric& Chebyshev() {
  static const ChebyshevMetric kMetric;
  return kMetric;
}

const AngularMetric& Angular() {
  static const AngularMetric kMetric;
  return kMetric;
}

Result<const Metric*> MetricByName(std::string_view name) {
  if (name == "euclidean") return static_cast<const Metric*>(&Euclidean());
  if (name == "manhattan") return static_cast<const Metric*>(&Manhattan());
  if (name == "chebyshev") return static_cast<const Metric*>(&Chebyshev());
  if (name == "angular") return static_cast<const Metric*>(&Angular());
  return Status::NotFound("unknown metric: " + std::string(name));
}

}  // namespace lofkit
