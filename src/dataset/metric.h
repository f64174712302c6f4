#ifndef LOFKIT_DATASET_METRIC_H_
#define LOFKIT_DATASET_METRIC_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dataset/distance_kernels.h"

namespace lofkit {

class PointBlockView;

/// A distance function d(p, q) over equal-dimension points.
///
/// All LOF definitions (Defs. 3-7 of the paper) are stated for an arbitrary
/// metric; lofkit keeps that generality. Implementations must satisfy the
/// metric axioms the indexes rely on for pruning: non-negativity, identity,
/// symmetry and the triangle inequality.
class Metric {
 public:
  virtual ~Metric() = default;

  /// d(a, b). Both spans must have the same size.
  virtual double Distance(std::span<const double> a,
                          std::span<const double> b) const = 0;

  /// Smallest possible distance from `q` to any point inside the axis-aligned
  /// box [lo, hi]. Used by the tree indexes for branch pruning.
  virtual double MinDistanceToBox(std::span<const double> q,
                                  std::span<const double> lo,
                                  std::span<const double> hi) const = 0;

  /// Short identifier, e.g. "euclidean".
  virtual std::string_view name() const = 0;

  // --- Distance-kernel layer -------------------------------------------
  //
  // Indexes compare and prune in *rank space*, a strictly monotone
  // transform of the distance (see DistanceKernels). Every method below
  // has a correct default, so external Metric subclasses keep working:
  // they simply rank in plain distance space through the virtual calls.

  /// True when this metric ranks in squared-distance space (L2 family):
  /// RankDistance returns the squared distance and indexes take one sqrt
  /// per reported neighbor instead of one per candidate pair.
  virtual bool squared_rank() const { return false; }

  /// Rank of d(a, b): the squared distance for squared_rank() metrics,
  /// the distance itself otherwise.
  virtual double RankDistance(std::span<const double> a,
                              std::span<const double> b) const {
    return Distance(a, b);
  }

  /// MinDistanceToBox in rank space (squared for squared_rank metrics),
  /// computed directly — not by squaring the rooted bound — so box
  /// pruning against a rank-space threshold stays exact.
  virtual double MinRankToBox(std::span<const double> q,
                              std::span<const double> lo,
                              std::span<const double> hi) const {
    return MinDistanceToBox(q, lo, hi);
  }

  /// Distances from `query` to all kKernelLanes points of block `b` of
  /// `view`, written to `out[0..kKernelLanes)`. Results for padding lanes
  /// are unspecified. The default gathers each lane and calls Distance;
  /// the bundled metrics override it with tight blocked loops.
  virtual void BatchDistance(std::span<const double> query,
                             const PointBlockView& view, size_t b,
                             std::span<double> out) const;

  /// The non-virtual kernel bundle for this metric's hot loops. Fetch
  /// once per index Build(); the metric must outlive the returned struct
  /// (its ctx points into the metric). The default trampolines to the
  /// virtuals above, so any subclass gets a working (if slower) bundle.
  virtual DistanceKernels kernels() const;

  /// Maps a rank back to a distance (non-virtual convenience).
  double RankToDistance(double rank) const {
    return DistanceFromRank(squared_rank(), rank);
  }
};

/// L2 (Euclidean) metric — the metric of every experiment in the paper.
class EuclideanMetric final : public Metric {
 public:
  double Distance(std::span<const double> a,
                  std::span<const double> b) const override;
  double MinDistanceToBox(std::span<const double> q,
                          std::span<const double> lo,
                          std::span<const double> hi) const override;
  std::string_view name() const override { return "euclidean"; }

  bool squared_rank() const override { return true; }
  double RankDistance(std::span<const double> a,
                      std::span<const double> b) const override;
  double MinRankToBox(std::span<const double> q, std::span<const double> lo,
                      std::span<const double> hi) const override;
  void BatchDistance(std::span<const double> query, const PointBlockView& view,
                     size_t b, std::span<double> out) const override;
  DistanceKernels kernels() const override;
};

/// L1 (Manhattan) metric.
class ManhattanMetric final : public Metric {
 public:
  double Distance(std::span<const double> a,
                  std::span<const double> b) const override;
  double MinDistanceToBox(std::span<const double> q,
                          std::span<const double> lo,
                          std::span<const double> hi) const override;
  std::string_view name() const override { return "manhattan"; }

  void BatchDistance(std::span<const double> query, const PointBlockView& view,
                     size_t b, std::span<double> out) const override;
  DistanceKernels kernels() const override;
};

/// L-infinity (Chebyshev) metric.
class ChebyshevMetric final : public Metric {
 public:
  double Distance(std::span<const double> a,
                  std::span<const double> b) const override;
  double MinDistanceToBox(std::span<const double> q,
                          std::span<const double> lo,
                          std::span<const double> hi) const override;
  std::string_view name() const override { return "chebyshev"; }

  void BatchDistance(std::span<const double> query, const PointBlockView& view,
                     size_t b, std::span<double> out) const override;
  DistanceKernels kernels() const override;
};

/// General Minkowski L_p metric, p >= 1.
class MinkowskiMetric final : public Metric {
 public:
  /// Creates an L_p metric. Fails for p < 1 (not a metric below 1).
  static Result<MinkowskiMetric> Create(double p);

  double Distance(std::span<const double> a,
                  std::span<const double> b) const override;
  double MinDistanceToBox(std::span<const double> q,
                          std::span<const double> lo,
                          std::span<const double> hi) const override;
  std::string_view name() const override { return "minkowski"; }

  void BatchDistance(std::span<const double> query, const PointBlockView& view,
                     size_t b, std::span<double> out) const override;
  DistanceKernels kernels() const override;

  double p() const { return p_; }

 private:
  explicit MinkowskiMetric(double p) : p_(p) {}
  double p_;
};

/// Euclidean metric with per-dimension weights, for attribute spaces whose
/// axes are incommensurate (the paper's sports subspaces mix games, goals
/// and coded positions).
class WeightedEuclideanMetric final : public Metric {
 public:
  /// All weights must be finite and > 0.
  static Result<WeightedEuclideanMetric> Create(std::vector<double> weights);

  double Distance(std::span<const double> a,
                  std::span<const double> b) const override;
  double MinDistanceToBox(std::span<const double> q,
                          std::span<const double> lo,
                          std::span<const double> hi) const override;
  std::string_view name() const override { return "weighted_euclidean"; }

  bool squared_rank() const override { return true; }
  double RankDistance(std::span<const double> a,
                      std::span<const double> b) const override;
  double MinRankToBox(std::span<const double> q, std::span<const double> lo,
                      std::span<const double> hi) const override;
  void BatchDistance(std::span<const double> query, const PointBlockView& view,
                     size_t b, std::span<double> out) const override;
  DistanceKernels kernels() const override;

  std::span<const double> weights() const { return weights_; }

 private:
  explicit WeightedEuclideanMetric(std::vector<double> weights)
      : weights_(std::move(weights)) {}
  std::vector<double> weights_;
};

/// Angular (great-circle) distance: the arc cosine of the cosine
/// similarity, a true metric on directions. Natural for normalized
/// histogram data such as the paper's 64-d color histograms, where vector
/// length is meaningless. The zero vector has no direction; Distance()
/// treats it as at angle 0 from everything (callers should avoid it).
///
/// Axis-aligned boxes bound angles poorly, so the box bounds are the
/// trivially valid [0, pi]: tree engines remain exact but degrade to scans
/// under this metric — use MTreeIndex, which prunes by the triangle
/// inequality alone (RecommendIndexKind picks it).
class AngularMetric final : public Metric {
 public:
  double Distance(std::span<const double> a,
                  std::span<const double> b) const override;
  double MinDistanceToBox(std::span<const double> q,
                          std::span<const double> lo,
                          std::span<const double> hi) const override;
  std::string_view name() const override { return "angular"; }
};

/// The process-wide Euclidean metric instance (stateless, safe to share).
const EuclideanMetric& Euclidean();

/// The process-wide Manhattan metric instance.
const ManhattanMetric& Manhattan();

/// The process-wide Chebyshev metric instance.
const ChebyshevMetric& Chebyshev();

/// The process-wide angular metric instance.
const AngularMetric& Angular();

/// Looks up a shared metric by name ("euclidean", "manhattan", "chebyshev",
/// "angular").
Result<const Metric*> MetricByName(std::string_view name);

}  // namespace lofkit

#endif  // LOFKIT_DATASET_METRIC_H_
