#ifndef LOFKIT_DATASET_DISTANCE_KERNELS_H_
#define LOFKIT_DATASET_DISTANCE_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace lofkit {

/// Number of points a blocked kernel processes per call; also the lane
/// count of the PointBlockView SoA layout.
inline constexpr size_t kKernelLanes = 8;

/// Non-virtual distance kernels for the kNN hot paths, fetched once per
/// index Build() via Metric::kernels().
///
/// Kernels operate in *rank space*: a strictly monotone transform of the
/// metric distance that is cheaper to compute and compare. For Euclidean
/// and weighted-Euclidean metrics the rank is the *squared* distance
/// (`squared == true`) — indexes accumulate, compare and prune squared
/// sums and take one sqrt per reported neighbor. For every other metric
/// the rank is the distance itself.
///
/// Determinism contract: for a given metric, `rank_one`, `rank_block`,
/// `rank_gather` and a non-abandoning `rank_bounded` all accumulate each
/// point's coordinate terms in the same order as `Metric::Distance`, so
/// `DistanceFromRank(squared, rank)` is bit-identical to the virtual-call
/// result.
struct DistanceKernels {
  /// Opaque per-metric state (e.g. the weights array); owned by the Metric
  /// the kernels were fetched from, which must outlive this struct.
  const void* ctx = nullptr;

  /// True when rank space is the squared distance.
  bool squared = false;

  /// Rank of the distance between points `a` and `b` of `dim` coordinates.
  double (*rank_one)(const void* ctx, const double* a, const double* b,
                     size_t dim) = nullptr;

  /// Like `rank_one`, but may abandon the candidate early: the return
  /// value is exact whenever the true rank is <= `bound`; otherwise it is
  /// either the exact rank or +infinity. Callers that reject candidates
  /// with rank > bound (e.g. against the current kth rank) therefore see
  /// identical results with or without abandonment.
  double (*rank_bounded)(const void* ctx, const double* a, const double* b,
                         size_t dim, double bound) = nullptr;

  /// Ranks from `q` to all kKernelLanes points of one SoA block (layout:
  /// coordinate-major, `block[d * kKernelLanes + lane]`), written to
  /// `out[0..kKernelLanes)`. Padding lanes produce garbage ranks that the
  /// caller discards by id.
  void (*rank_block)(const void* ctx, const double* q, const double* block,
                     size_t dim, double* out) = nullptr;

  /// Ranks from `q` to `count` row-major points gathered by id from `raw`
  /// (point i at `raw + ids[i] * dim`), written to `out[0..count)`. Each
  /// lane obeys the `rank_bounded` abandonment contract for `bound`.
  void (*rank_gather)(const void* ctx, const double* q, const double* raw,
                      const uint32_t* ids, size_t count, size_t dim,
                      double bound, double* out) = nullptr;

  /// MINDIST in rank space from `q` to the axis-aligned box [lo, hi]
  /// (`dim` doubles each): a lower bound on the rank from `q` to every
  /// point inside the box. Mirrors Metric::MinRankToBox coordinate
  /// accumulation exactly, without the virtual dispatch — this is the
  /// per-node cost of every tree traversal.
  double (*rank_box)(const void* ctx, const double* q, const double* lo,
                     const double* hi, size_t dim) = nullptr;

  /// Admissible single-coordinate bound: a lower bound on the rank from
  /// `q` to any point whose coordinate `d` lies on the far side of the
  /// hyperplane x_d = v (with q[d] on the near side). Lets tree descents
  /// pre-gate a far-child push in O(1) before paying the O(dim)
  /// `rank_box`. The generic trampoline returns 0 (a gate that never
  /// fires), which is always admissible.
  double (*rank_cut)(const void* ctx, double qd, double v,
                     size_t d) = nullptr;
};

/// Maps a metric distance into rank space.
inline double RankFromDistance(bool squared, double d) {
  return squared ? d * d : d;
}

/// Maps a rank back to the metric distance. For squared ranks produced by
/// the same coordinate-accumulation order as Metric::Distance, the result
/// is bit-identical to the virtual call.
inline double DistanceFromRank(bool squared, double r) {
  return squared ? std::sqrt(r) : r;
}

/// Conservative rank-space *upper* bound for a distance-space bound `d`:
/// guaranteed >= RankFromDistance(d) despite rounding, so "rank > bound
/// => distance > d" stays exactly safe. Use when an inclusive threshold
/// (radius, M-tree tau) originates in distance space.
inline double PruneRankUpperBound(bool squared, double d) {
  if (!squared) return d;
  const double r = d * d;
  if (!std::isfinite(r)) return r;
  const double padded = r * (1.0 + 8.0 * std::numeric_limits<double>::epsilon());
  return std::nextafter(padded, std::numeric_limits<double>::infinity());
}

namespace kernels {

/// Raw per-metric loops, shared by the Metric overrides and directly
/// benchmarkable. All pointers must reference `dim` (or `dim *
/// kKernelLanes`) readable doubles; `a`/`b`/`q`/`block`/`out` must not
/// alias.

// L2 in squared rank space.
double L2Squared(const double* a, const double* b, size_t dim);
double L2SquaredBounded(const double* a, const double* b, size_t dim,
                        double bound);
void L2SquaredBlock(const double* q, const double* block, size_t dim,
                    double* out);
double L2SquaredToBox(const double* q, const double* lo, const double* hi,
                      size_t dim);

// L1: rank == distance.
double L1(const double* a, const double* b, size_t dim);
double L1Bounded(const double* a, const double* b, size_t dim, double bound);
void L1Block(const double* q, const double* block, size_t dim, double* out);
double L1ToBox(const double* q, const double* lo, const double* hi,
               size_t dim);

// L-infinity: rank == distance.
double Linf(const double* a, const double* b, size_t dim);
double LinfBounded(const double* a, const double* b, size_t dim, double bound);
void LinfBlock(const double* q, const double* block, size_t dim, double* out);
double LinfToBox(const double* q, const double* lo, const double* hi,
                 size_t dim);

// Minkowski L_p: rank == distance (no early exit; the p-th root makes a
// partial-sum bound too delicate to keep exactly safe).
double Lp(double p, const double* a, const double* b, size_t dim);
void LpBlock(double p, const double* q, const double* block, size_t dim,
             double* out);
double LpToBox(double p, const double* q, const double* lo, const double* hi,
               size_t dim);

// Weighted L2 in squared rank space; `w` holds `dim` weights.
double WeightedL2Squared(const double* w, const double* a, const double* b,
                         size_t dim);
double WeightedL2SquaredBounded(const double* w, const double* a,
                                const double* b, size_t dim, double bound);
void WeightedL2SquaredBlock(const double* w, const double* q,
                            const double* block, size_t dim, double* out);
double WeightedL2SquaredToBox(const double* w, const double* q,
                              const double* lo, const double* hi, size_t dim);

}  // namespace kernels

}  // namespace lofkit

#endif  // LOFKIT_DATASET_DISTANCE_KERNELS_H_
