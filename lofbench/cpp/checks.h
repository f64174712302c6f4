#ifndef LOFBENCH_CPP_CHECKS_H_
#define LOFBENCH_CPP_CHECKS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/metric.h"
#include "index/neighborhood_materializer.h"
#include "lof/lof_computer.h"

namespace lofbench {

/// Output checks run after each timed job, outside every timed interval.
/// Each returns an empty string on success and a one-line description of
/// the first mismatch otherwise.

/// `count` distinct point ids in [0, n), drawn from `seed`, ascending.
std::vector<uint32_t> SamplePoints(size_t n, size_t count, uint64_t seed);

/// M's stored neighbor list of every sampled point must equal a brute-force
/// scan with `metric`: the k_max-distance neighborhood (ties included),
/// sorted by (distance, index), with equal indices and equal distance bits.
std::string CheckNeighborLists(const lofkit::Dataset& data,
                               const lofkit::Metric& metric,
                               const lofkit::NeighborhoodMaterializer& m,
                               std::span<const uint32_t> sample);

/// Re-derives LOF of every sampled point from M alone, straight from the
/// paper's Definitions 5-7, for every MinPts in [lb, ub], and compares the
/// maximum (the sweep's aggregation) against `aggregated` to 1e-9
/// relative. Covers MinPtsLB and MinPtsUB and every step between.
std::string CheckLofScores(const lofkit::NeighborhoodMaterializer& m,
                           size_t lb, size_t ub,
                           std::span<const double> aggregated,
                           std::span<const uint32_t> sample);

/// FNV-1a digest of a ranking: each entry's index and score bits.
std::string RankingDigest(std::span<const lofkit::RankedOutlier> ranked);

}  // namespace lofbench

#endif  // LOFBENCH_CPP_CHECKS_H_
