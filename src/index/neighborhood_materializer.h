#ifndef LOFKIT_INDEX_NEIGHBORHOOD_MATERIALIZER_H_
#define LOFKIT_INDEX_NEIGHBORHOOD_MATERIALIZER_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/container_file.h"
#include "common/result.h"
#include "index/knn_index.h"

namespace lofkit {

/// The materialization database "M" of the paper's two-step algorithm
/// (section 7.4): for every point, its k_max-distance neighborhood (ties
/// included) with distances, stored flat and sorted by (distance, index).
///
/// Step 2 of the algorithm (LOF computation for any MinPts in
/// [MinPtsLB, MinPtsUB] with MinPtsUB == k_max) needs only this structure,
/// never the original coordinates — which is why its size is independent of
/// the data dimensionality, exactly as the paper notes.
///
/// M can be backed two ways, invisible to every consumer (all accessors go
/// through spans): by RAM vectors (Materialize/FromLists/LoadFromFile), or
/// zero-copy by a memory-mapped container file (MapFromFile — the paper's
/// file-resident M, served straight from the page cache). The mapped form
/// is what makes the memory budget's spill rung possible: MaterializeToFile
/// streams step 1 to disk in bounded windows, MapFromFile serves it back
/// without ever holding flat_ in RAM, and scores come out bit-identical.
///
/// With `distinct_neighbors` (the k-distinct-distance refinement from the
/// remark below Definition 6), only neighbors with pairwise-distinct
/// coordinates count toward k, so a point with many duplicates still gets a
/// positive k-distance; the neighborhood itself still contains every point
/// within that distance, duplicates included.
class NeighborhoodMaterializer {
 public:
  /// Runs step 1: one kNN query per point against `index` (which must
  /// already be built over `data` — the same Dataset instance). Requires
  /// 1 <= k_max < data.size(). `observer`, when armed, receives the query
  /// cost counters of the whole pass and per-chunk trace spans; the default
  /// observer disables both with zero overhead.
  ///
  /// `stop` is polled at chunk boundaries; a tripped token returns its
  /// latched kCancelled / kDeadlineExceeded status. A non-zero
  /// `memory_budget_bytes` is compared against ProjectedBytes(n, k_max)
  /// before any query runs; a projected overflow returns
  /// kResourceExhausted so the caller can degrade to the spill or re-query
  /// path instead of materializing.
  static Result<NeighborhoodMaterializer> Materialize(
      const Dataset& data, const KnnIndex& index, size_t k_max,
      bool distinct_neighbors = false,
      const PipelineObserver& observer = {}, const StopToken& stop = {},
      size_t memory_budget_bytes = 0);

  /// Parallel step 1: the n queries are embarrassingly parallel (every
  /// KnnIndex implementation is stateless per query), so they are sharded
  /// over `threads` workers with ParallelFor's deterministic chunking.
  /// Produces bit-identical results to the serial Materialize. threads == 0
  /// means one worker per hardware thread; 1 falls back to the serial path.
  /// A failed query aborts the other workers early (at their next point)
  /// and its error is propagated instead of being swallowed. Query-cost
  /// counters accumulate into per-worker shards and are summed after the
  /// join, so observer totals are identical at every thread count.
  /// `stop` and `memory_budget_bytes` behave exactly as in Materialize;
  /// the token additionally aborts the other workers at their next chunk.
  static Result<NeighborhoodMaterializer> MaterializeParallel(
      const Dataset& data, const KnnIndex& index, size_t k_max,
      size_t threads, bool distinct_neighbors = false,
      const PipelineObserver& observer = {}, const StopToken& stop = {},
      size_t memory_budget_bytes = 0);

  /// The spill rung of the memory-budget ladder: runs step 1 in bounded
  /// windows of points (parallel queries inside each window, identical
  /// chunking to MaterializeParallel, so the produced M is bit-identical)
  /// and streams the neighbor lists straight into a container file at
  /// `path` instead of accumulating them in RAM. Peak residency is one
  /// window of lists plus the offsets table — independent of n * k_max.
  /// The file is published crash-safely (tmp + fsync + rename) and is
  /// ready for MapFromFile. Works in distinct mode too.
  static Status MaterializeToFile(
      const Dataset& data, const KnnIndex& index, size_t k_max,
      size_t threads, bool distinct_neighbors, const std::string& path,
      const PipelineObserver& observer = {}, const StopToken& stop = {});

  /// Lower bound on the resident size of M for n points at k_max, in bytes:
  /// the flat neighbor array at exactly k_max entries per point plus the
  /// offsets table. Ties and distinct-mode growth can push the real size
  /// higher, so a budget decision made on this estimate is optimistic — but
  /// it is available before any query runs, which is what the
  /// materialize-vs-spill-vs-requery degradation decision needs.
  static size_t ProjectedBytes(size_t n, size_t k_max) {
    return n * k_max * sizeof(Neighbor) + (n + 1) * sizeof(size_t);
  }

  NeighborhoodMaterializer(NeighborhoodMaterializer&& other) noexcept
      : k_max_(other.k_max_),
        distinct_(other.distinct_),
        data_(other.data_),
        offsets_(std::move(other.offsets_)),
        flat_(std::move(other.flat_)),
        container_(std::move(other.container_)),
        offsets_view_(std::exchange(other.offsets_view_, {})),
        flat_view_(std::exchange(other.flat_view_, {})) {}
  NeighborhoodMaterializer& operator=(
      NeighborhoodMaterializer&& other) noexcept {
    if (this != &other) {
      k_max_ = other.k_max_;
      distinct_ = other.distinct_;
      data_ = other.data_;
      offsets_ = std::move(other.offsets_);
      flat_ = std::move(other.flat_);
      container_ = std::move(other.container_);
      offsets_view_ = std::exchange(other.offsets_view_, {});
      flat_view_ = std::exchange(other.flat_view_, {});
    }
    return *this;
  }

  /// Number of points. A default-constructed or moved-from instance has an
  /// empty offsets view; without the guard the unsigned subtraction would
  /// wrap to SIZE_MAX.
  size_t size() const {
    return offsets_view_.empty() ? 0 : offsets_view_.size() - 1;
  }

  /// The k the neighborhoods were materialized for (== MinPtsUB).
  size_t k_max() const { return k_max_; }

  /// Whether k-distinct-distance counting is in effect.
  bool distinct_neighbors() const { return distinct_; }

  /// True when this M is served zero-copy from a memory-mapped container
  /// file (MapFromFile) rather than RAM vectors.
  bool file_backed() const { return container_ != nullptr; }

  /// Full stored neighbor list of point i, sorted by (distance, index).
  std::span<const Neighbor> neighbors(size_t i) const {
    return flat_view_.subspan(offsets_view_[i],
                              offsets_view_[i + 1] - offsets_view_[i]);
  }

  /// The k-distance of point i together with its k-distance neighborhood
  /// N_k(i) (Definitions 3 and 4), as a prefix of neighbors(i).
  struct KView {
    double k_distance = 0.0;
    std::span<const Neighbor> neighborhood;
  };

  /// Computes the view for 1 <= k <= k_max. Fails with OutOfRange when k
  /// exceeds k_max or the number of (distinct, in distinct mode) neighbors.
  Result<KView> View(size_t i, size_t k) const;

  /// Total stored neighbor entries (the size of M; n * k_max plus ties).
  size_t total_neighbor_count() const { return flat_view_.size(); }

  /// Persists M to a checksummed container file (container_file.h),
  /// published crash-safely via tmp + fsync + atomic rename: a crash
  /// mid-save can never leave a torn file at `path`. The paper's step 2
  /// works entirely from this file-resident database ("the materialization
  /// database M ... The original database D is not needed for this step");
  /// saving and reloading M lets the expensive step 1 be paid once per
  /// dataset.
  Status SaveToFile(const std::string& path) const;

  /// Loads a checksummed container written by SaveToFile/MaterializeToFile
  /// into RAM; any other file is InvalidArgument ("not a lofkit
  /// materialization file"). A distinct-neighbors M additionally needs the
  /// original dataset for its coordinate comparisons; pass it via `data`
  /// (must be the same dataset, checked by size). Neighbor lists are structurally validated on load
  /// (index range, finite non-negative distances, (distance, index)
  /// sortedness — the same invariants FromLists enforces), and every
  /// header-derived count is bounded by the actual file size before any
  /// allocation, so a corrupt file is rejected with a typed Status instead
  /// of OOM-ing or silently mis-scoring later.
  static Result<NeighborhoodMaterializer> LoadFromFile(
      const std::string& path, const Dataset* data = nullptr);

  /// Memory-maps a container written by SaveToFile/MaterializeToFile and
  /// serves neighbors()/View() zero-copy from the mapping — flat_ is never
  /// materialized in RAM, so a multi-gigabyte M costs page cache, not
  /// anonymous memory. Section checksums and the same structural
  /// validation as LoadFromFile run once up front (one sequential pass);
  /// scores computed over a mapped M are bit-identical to the in-RAM route.
  static Result<NeighborhoodMaterializer> MapFromFile(
      const std::string& path, const Dataset* data = nullptr);

  /// Assembles an M from externally maintained neighbor lists (used by the
  /// incremental maintenance layer). Each list must be the full
  /// k_max-distance neighborhood of its point, sorted by
  /// (distance, index); this is validated structurally (sortedness, list
  /// length, index range) but semantic correctness is the caller's
  /// contract. `data` may be null in standard mode.
  static Result<NeighborhoodMaterializer> FromLists(
      size_t k_max, bool distinct_neighbors, const Dataset* data,
      const std::vector<std::vector<Neighbor>>& lists);

 private:
  NeighborhoodMaterializer(size_t k_max, bool distinct)
      : k_max_(k_max), distinct_(distinct) {}

  /// Points the read-path views at the owned vectors. Every RAM-backed
  /// construction path must call this last; the vectors' heap buffers move
  /// with the object, so the spans stay valid across moves.
  void BindToVectors() {
    offsets_view_ = {offsets_.data(), offsets_.size()};
    flat_view_ = {flat_.data(), flat_.size()};
  }

  /// Decodes a container (shared by LoadFromFile and MapFromFile):
  /// validates meta/offsets/neighbors sections against each other and the
  /// file size, then either copies into the vectors (copy_to_ram) or
  /// serves the mapping zero-copy, keeping `reader` alive.
  static Result<NeighborhoodMaterializer> FromContainer(
      ContainerReader reader, const std::string& path, const Dataset* data,
      bool copy_to_ram);

  size_t k_max_;
  bool distinct_;
  const Dataset* data_ = nullptr;  // needed for distinct-mode comparisons
  std::vector<size_t> offsets_;
  std::vector<Neighbor> flat_;
  std::unique_ptr<ContainerReader> container_;  // owns the mapping when set
  std::span<const size_t> offsets_view_;
  std::span<const Neighbor> flat_view_;
};

}  // namespace lofkit

#endif  // LOFKIT_INDEX_NEIGHBORHOOD_MATERIALIZER_H_
