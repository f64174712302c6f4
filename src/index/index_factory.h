#ifndef LOFKIT_INDEX_INDEX_FACTORY_H_
#define LOFKIT_INDEX_INDEX_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dataset/metric.h"
#include "index/knn_index.h"

namespace lofkit {

/// The kNN engines lofkit ships. Section 7.4 also lists a grid and a
/// VA-file; lofkit does not ship them, because they save disk reads an
/// in-RAM step 1 never pays (docs/paper_map.md). Their former values, 1 and
/// 4, stay unused so that every other kind keeps its number.
enum class IndexKind {
  kLinearScan = 0,  ///< sequential scan (exact, O(n) per query)
  kKdTree = 2,      ///< KD-tree (medium dimensions)
  kRStarTree = 3,   ///< R*-tree with X-tree supernodes (the paper's choice)
  kMTree = 5,       ///< M-tree (general metric spaces, e.g. angular distance)
  kRkdForest = 6,   ///< randomized kd-forest (approximate, beyond Fig-10's wall)
};

/// Construction knobs of the approximate engines (currently only the
/// randomized kd-forest consumes them; exact engines ignore the struct).
/// The defaults build an *exact* forest: unbounded checks, zero eps, a
/// fixed seed — so CreateIndex(kRkdForest) is safe wherever an exact
/// engine is, and approximation remains an explicit caller decision.
struct AnnIndexOptions {
  /// Number of randomized trees in the forest.
  size_t trees = 8;
  /// Seed for the per-tree split-dimension draws. Equal seeds give
  /// bit-identical forests and query results on every thread count.
  uint64_t seed = 0x10f5eedull;
  /// Search-time quality dial (checks budget + eps slack).
  SearchParams search;
};

/// Creates an unbuilt index of the given kind with default options.
std::unique_ptr<KnnIndex> CreateIndex(IndexKind kind);

/// Creates an unbuilt index of the given kind; `ann` configures the
/// approximate engines and is ignored by the exact ones.
std::unique_ptr<KnnIndex> CreateIndex(IndexKind kind,
                                      const AnnIndexOptions& ann);

/// Creates an index by name ("linear_scan", "kd_tree", "rstar_tree",
/// "m_tree", "rkd_forest"). An unknown name fails with NotFound, listing
/// every valid name.
Result<std::unique_ptr<KnnIndex>> CreateIndexByName(std::string_view name);

/// As above, with ANN construction options.
Result<std::unique_ptr<KnnIndex>> CreateIndexByName(
    std::string_view name, const AnnIndexOptions& ann);

/// All index kinds, for parameterized tests and ablation benches.
std::vector<IndexKind> AllIndexKinds();

/// Canonical name of an index kind.
std::string_view IndexKindName(IndexKind kind);

/// The default exact engine for an in-RAM step 1, chosen by the metric:
///
///   * kd_tree for the bundled metrics whose coordinate box bounds prune:
///     euclidean, manhattan, chebyshev, minkowski and weighted_euclidean.
///   * m_tree for angular and any other Metric subclass. Its pruning needs
///     only the triangle inequality, while every box-pruning engine
///     degrades to a scan when the box bound is the trivial 0.
///
/// The rule is measured, not derived: bench_engines times every exact
/// engine's build + step 1 over n in {2k, 20k}, d in {2, 5, 10, 20, 64}
/// and {euclidean, manhattan, angular}, and the recommended engine is
/// within 1.03x of the fastest on every cell
/// (bench/baselines/BENCH_engines.json; a test fails past 1.2x). Hence
/// `dimension` does not enter the rule. The paper's section-7.4 table
/// (grid in low d, X-tree in medium d, VA-file in high d) priced disk
/// reads an in-RAM index never pays, so rstar_tree is never returned; it
/// stays selectable by name. Never returns the approximate kd-forest:
/// approximation is the caller's explicit choice.
IndexKind RecommendIndexKind(size_t dimension,
                             const Metric& metric = Euclidean());

}  // namespace lofkit

#endif  // LOFKIT_INDEX_INDEX_FACTORY_H_
