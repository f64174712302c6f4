#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>
#include <utility>

#include "common/random.h"

namespace lofbench {
namespace {

using lofkit::Neighbor;
using lofkit::NeighborhoodMaterializer;

bool Before(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.index < b.index);
}

/// k-distance of a stored list and the size of its k-distance neighborhood
/// (Definitions 3 and 4: every neighbor no farther than the k-th).
std::pair<double, size_t> KNeighborhood(std::span<const Neighbor> list,
                                        size_t k) {
  const double k_distance = list[k - 1].distance;
  size_t end = k;
  while (end < list.size() && list[end].distance <= k_distance) ++end;
  return {k_distance, end};
}

/// Definition 6: lrd(p) = 1 / (mean reach-dist over N_k(p)), where
/// reach-dist_k(p, o) = max(k-distance(o), d(p, o)) (Definition 5).
double Lrd(const NeighborhoodMaterializer& m, uint32_t p, size_t k) {
  const std::span<const Neighbor> list = m.neighbors(p);
  const size_t size = KNeighborhood(list, k).second;
  double reach_sum = 0.0;
  for (size_t j = 0; j < size; ++j) {
    const double k_distance_o =
        KNeighborhood(m.neighbors(list[j].index), k).first;
    reach_sum += std::max(k_distance_o, list[j].distance);
  }
  return 1.0 / (reach_sum / static_cast<double>(size));
}

/// Definition 7: LOF(p) = mean over o in N_k(p) of lrd(o) / lrd(p).
double Lof(const NeighborhoodMaterializer& m, uint32_t p, size_t k) {
  const std::span<const Neighbor> list = m.neighbors(p);
  const size_t size = KNeighborhood(list, k).second;
  const double lrd_p = Lrd(m, p, k);
  double ratio_sum = 0.0;
  for (size_t j = 0; j < size; ++j) {
    ratio_sum += Lrd(m, list[j].index, k) / lrd_p;
  }
  return ratio_sum / static_cast<double>(size);
}

}  // namespace

std::vector<uint32_t> SamplePoints(size_t n, size_t count, uint64_t seed) {
  std::vector<uint32_t> out;
  if (count >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return out;
  }
  lofkit::Rng rng(seed);
  std::set<uint32_t> picked;
  while (picked.size() < count) {
    picked.insert(static_cast<uint32_t>(rng.UniformU64(n)));
  }
  return {picked.begin(), picked.end()};
}

std::string CheckNeighborLists(const lofkit::Dataset& data,
                               const lofkit::Metric& metric,
                               const NeighborhoodMaterializer& m,
                               std::span<const uint32_t> sample) {
  const size_t n = data.size();
  const size_t k = m.k_max();
  if (m.size() != n) return "M has a different point count than the input";
  std::vector<Neighbor> all;
  all.reserve(n);
  for (uint32_t p : sample) {
    all.clear();
    for (size_t i = 0; i < n; ++i) {
      if (i == p) continue;
      all.push_back({static_cast<uint32_t>(i),
                     metric.Distance(data.point(p), data.point(i))});
    }
    std::nth_element(all.begin(), all.begin() + (k - 1), all.end(), Before);
    const double k_distance = all[k - 1].distance;
    std::vector<Neighbor> expected;
    for (const Neighbor& c : all) {
      if (c.distance <= k_distance) expected.push_back(c);
    }
    std::sort(expected.begin(), expected.end(), Before);
    const std::span<const Neighbor> got = m.neighbors(p);
    if (got.size() != expected.size()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "neighbor list of point %u has %zu entries, brute force "
                    "has %zu",
                    p, got.size(), expected.size());
      return buf;
    }
    for (size_t j = 0; j < got.size(); ++j) {
      if (got[j].index != expected[j].index ||
          std::bit_cast<uint64_t>(got[j].distance) !=
              std::bit_cast<uint64_t>(expected[j].distance)) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "neighbor %zu of point %u: M has (%u, %.17g), brute "
                      "force has (%u, %.17g)",
                      j, p, got[j].index, got[j].distance, expected[j].index,
                      expected[j].distance);
        return buf;
      }
    }
  }
  return "";
}

std::string CheckLofScores(const NeighborhoodMaterializer& m, size_t lb,
                           size_t ub, std::span<const double> aggregated,
                           std::span<const uint32_t> sample) {
  if (aggregated.size() != m.size()) {
    return "sweep returned a score count different from the point count";
  }
  for (uint32_t p : sample) {
    double max_lof = -std::numeric_limits<double>::infinity();
    for (size_t k = lb; k <= ub; ++k) {
      max_lof = std::max(max_lof, Lof(m, p, k));
    }
    const double got = aggregated[p];
    const double tolerance =
        1e-9 * std::max(std::fabs(max_lof), std::fabs(got));
    if (!std::isfinite(max_lof) || !(std::fabs(max_lof - got) <= tolerance)) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "max LOF of point %u over MinPts [%zu, %zu]: re-derived "
                    "%.17g, sweep %.17g",
                    p, lb, ub, max_lof, got);
      return buf;
    }
  }
  return "";
}

std::string RankingDigest(std::span<const lofkit::RankedOutlier> ranked) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const lofkit::RankedOutlier& r : ranked) {
    mix(r.index);
    mix(std::bit_cast<uint64_t>(r.score));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace lofbench
