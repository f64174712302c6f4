#include "index/index_factory.h"

#include "index/kd_tree_index.h"
#include "index/linear_scan_index.h"
#include "index/m_tree_index.h"
#include "index/rkd_forest_index.h"
#include "index/rstar_tree_index.h"

namespace lofkit {

std::unique_ptr<KnnIndex> CreateIndex(IndexKind kind) {
  return CreateIndex(kind, AnnIndexOptions{});
}

std::unique_ptr<KnnIndex> CreateIndex(IndexKind kind,
                                      const AnnIndexOptions& ann) {
  switch (kind) {
    case IndexKind::kLinearScan:
      return std::make_unique<LinearScanIndex>();
    case IndexKind::kKdTree:
      return std::make_unique<KdTreeIndex>();
    case IndexKind::kRStarTree:
      return std::make_unique<RStarTreeIndex>();
    case IndexKind::kMTree:
      return std::make_unique<MTreeIndex>();
    case IndexKind::kRkdForest: {
      RkdForestIndex::Options options;
      options.trees = ann.trees;
      options.seed = ann.seed;
      options.search = ann.search;
      return std::make_unique<RkdForestIndex>(options);
    }
  }
  return nullptr;
}

Result<std::unique_ptr<KnnIndex>> CreateIndexByName(std::string_view name) {
  return CreateIndexByName(name, AnnIndexOptions{});
}

Result<std::unique_ptr<KnnIndex>> CreateIndexByName(
    std::string_view name, const AnnIndexOptions& ann) {
  for (IndexKind kind : AllIndexKinds()) {
    if (IndexKindName(kind) == name) return CreateIndex(kind, ann);
  }
  std::string valid;
  for (IndexKind kind : AllIndexKinds()) {
    if (!valid.empty()) valid += ", ";
    valid += IndexKindName(kind);
  }
  return Status::NotFound("unknown index kind: " + std::string(name) +
                          " (valid: " + valid + ")");
}

std::vector<IndexKind> AllIndexKinds() {
  return {IndexKind::kLinearScan, IndexKind::kKdTree, IndexKind::kRStarTree,
          IndexKind::kMTree, IndexKind::kRkdForest};
}

std::string_view IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kLinearScan:
      return "linear_scan";
    case IndexKind::kKdTree:
      return "kd_tree";
    case IndexKind::kRStarTree:
      return "rstar_tree";
    case IndexKind::kMTree:
      return "m_tree";
    case IndexKind::kRkdForest:
      return "rkd_forest";
  }
  return "unknown";
}

IndexKind RecommendIndexKind(size_t dimension, const Metric& metric) {
  (void)dimension;
  // The one place that decides whether a metric's coordinate box bounds
  // prune: the bundled L_p family and weighted L2 bound the distance to a
  // box by the per-axis gaps, so a kd-tree cell prunes. Angular's box bound
  // is the trivial 0, and an unknown subclass promises nothing beyond the
  // metric axioms, which is exactly what the M-tree needs.
  const bool box_bounds_prune =
      dynamic_cast<const EuclideanMetric*>(&metric) != nullptr ||
      dynamic_cast<const ManhattanMetric*>(&metric) != nullptr ||
      dynamic_cast<const ChebyshevMetric*>(&metric) != nullptr ||
      dynamic_cast<const MinkowskiMetric*>(&metric) != nullptr ||
      dynamic_cast<const WeightedEuclideanMetric*>(&metric) != nullptr;
  return box_bounds_prune ? IndexKind::kKdTree : IndexKind::kMTree;
}

}  // namespace lofkit
