#ifndef LOFKIT_INDEX_RSTAR_TREE_INDEX_H_
#define LOFKIT_INDEX_RSTAR_TREE_INDEX_H_

#include <vector>

#include "index/knn_index.h"

namespace lofkit {

/// R*-tree with X-tree-style supernodes — lofkit's stand-in for the
/// "variant of the X-tree" the paper used for its kNN queries (section 7.4,
/// reference [4]).
///
/// Build() packs the tree with Sort-Tile-Recursive bulk loading unless the
/// index is constructed with BuildMode::kInsert. Insertion follows the
/// R*-tree: ChooseSubtree minimizes overlap enlargement at the leaf level
/// and area enlargement above it, one forced reinsertion round per level
/// per insert, and topological (margin-driven) splits. The X-tree
/// modification applies to directory nodes: when the best available split
/// would produce heavily overlapping directory rectangles (overlap fraction
/// above `kMaxOverlap`), the node is not split but grows into a *supernode*
/// of extended capacity, avoiding the degenerate overlap that makes
/// high-dimensional R-trees useless.
///
/// kNN queries run best-first (Hjaltason-Samet) over MinRankToBox (the
/// squared-distance bound for the L2 family) with leaf scans through the
/// metric's bounded gather kernel, and return the exact k-distance
/// neighborhood for any Metric.
class RStarTreeIndex final : public KnnIndex {
 public:
  /// How Build() constructs the tree.
  enum class BuildMode {
    /// One-by-one R* insertion with forced reinsertion (the X-tree
    /// supernode rule applies on directory splits): the paper's dynamic
    /// X-tree, kept for reproducing Figure 10.
    kInsert,
    /// Sort-Tile-Recursive bulk loading (default): O(n log n) construction
    /// with near-perfect space utilization; no supernodes arise.
    kBulkLoadStr,
  };

  explicit RStarTreeIndex(BuildMode mode = BuildMode::kBulkLoadStr)
      : mode_(mode) {}

  Status Build(const Dataset& data, const Metric& metric) override;

  using KnnIndex::Query;
  using KnnIndex::QueryRadius;
  Status Query(std::span<const double> query, size_t k,
               std::optional<uint32_t> exclude,
               KnnSearchContext& ctx) const override;
  Status QueryRadius(std::span<const double> query, double radius,
                     std::optional<uint32_t> exclude,
                     KnnSearchContext& ctx) const override;
  const Dataset* dataset() const override { return data_; }
  std::string_view name() const override { return "rstar_tree"; }

  /// Statistics for tests and the index-ablation bench.
  size_t node_count() const { return nodes_.size(); }
  size_t supernode_count() const;
  size_t height() const;

  /// Structural self-check for tests: every child MBR is contained in its
  /// parent's, every node's MBR is exactly the union of its entries, all
  /// leaves sit at the same depth, fill factors respect capacity, and every
  /// point id appears in exactly one leaf. Returns the first violation.
  Status CheckInvariants() const;

 private:
  static constexpr size_t kMaxEntries = 32;   // M
  static constexpr size_t kMinEntries = 12;   // m (~0.4 M)
  static constexpr double kReinsertFraction = 0.3;
  static constexpr double kMaxOverlap = 0.2;  // X-tree split-quality bound

  struct Node {
    bool leaf = true;
    uint32_t parent = kNone;
    size_t capacity = kMaxEntries;  // > kMaxEntries for supernodes
    std::vector<double> mbr;        // d mins then d maxs
    std::vector<uint32_t> entries;  // point ids (leaf) or node ids

    static constexpr uint32_t kNone = 0xffffffffu;
    bool is_supernode() const { return capacity > kMaxEntries; }
  };

  // -- rect helpers over the flat [lo..., hi...] representation --
  std::span<const double> EntryLo(const Node& node, size_t i) const;
  std::span<const double> EntryHi(const Node& node, size_t i) const;
  void EntryRect(const Node& node, size_t i, std::vector<double>& rect) const;
  static double RectArea(std::span<const double> rect, size_t dim);
  static double RectMargin(std::span<const double> rect, size_t dim);
  static void RectExtend(std::vector<double>& rect,
                         std::span<const double> other, size_t dim);
  static double RectOverlap(std::span<const double> a,
                            std::span<const double> b, size_t dim);

  // -- construction --
  uint32_t NewNode(bool leaf);
  void RecomputeMbr(uint32_t node_id);
  void ExtendUpward(uint32_t node_id, std::span<const double> rect);
  uint32_t ChooseSubtree(std::span<const double> rect, size_t target_level);
  void InsertRect(std::span<const double> rect, uint32_t entry,
                  size_t target_level, std::vector<bool>& reinserted);
  void HandleOverflow(uint32_t node_id, std::vector<bool>& reinserted);
  void ReinsertEntries(uint32_t node_id, std::vector<bool>& reinserted);
  void SplitNode(uint32_t node_id, std::vector<bool>& reinserted);
  size_t LevelOf(uint32_t node_id) const;

  // Picks the R* split (axis + distribution) of `node`; returns the index
  // boundary in `order` and the achieved overlap fraction.
  struct SplitChoice {
    std::vector<uint32_t> order;  // entry positions in split order
    size_t boundary = 0;          // first `boundary` go left
    double overlap_fraction = 0.0;
  };
  SplitChoice ChooseSplit(const Node& node) const;

  /// Builds the whole tree bottom-up with Sort-Tile-Recursive packing.
  void BulkLoadStr();

  BuildMode mode_ = BuildMode::kBulkLoadStr;
  const Dataset* data_ = nullptr;
  const Metric* metric_ = nullptr;
  DistanceKernels kern_;
  size_t dim_ = 0;
  std::vector<Node> nodes_;
  uint32_t root_ = Node::kNone;
};

}  // namespace lofkit

#endif  // LOFKIT_INDEX_RSTAR_TREE_INDEX_H_
