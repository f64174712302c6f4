#ifndef LOFKIT_INDEX_KNN_INDEX_H_
#define LOFKIT_INDEX_KNN_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "dataset/metric.h"

namespace lofkit {

/// One element of a neighbor list: a point index and its distance to the
/// query. Neighbor lists are always sorted by (distance, index) ascending.
struct Neighbor {
  uint32_t index = 0;
  double distance = 0.0;
};

inline bool operator==(const Neighbor& a, const Neighbor& b) {
  return a.index == b.index && a.distance == b.distance;
}

/// Quality/throughput dial of the approximate engines (currently the
/// randomized kd-forest). Exact engines ignore it.
///
/// The defaults are *exact*: an unbounded search with no slack degenerates
/// to plain best-bin-first over the forest and returns the true k-distance
/// neighborhood, so a factory-created approximate engine is safe anywhere
/// an exact one is. Approximation only enters when a caller dials `checks`
/// down or `eps` up — the bench_ann_quality sweep maps dial positions to
/// measured recall / LOF-score-error so the trade is made knowingly.
struct SearchParams {
  /// Maximum candidate points examined per kNN query (0 = unbounded). The
  /// search never stops before the result holds k candidates, so a
  /// neighborhood of at least min(k, eligible) entries always comes back;
  /// after that, the budget caps how much of the frontier is drained.
  size_t checks = 0;

  /// Approximation slack: a frontier branch is pruned when its closest
  /// possible point could not improve the current k-distance by more than
  /// a (1 + eps) factor. 0 keeps best-bin-first admissible (exact given an
  /// unbounded check budget). Must be >= 0.
  double eps = 0.0;
};

/// Reusable per-query scratch for the context-taking query API.
///
/// The paper's two-step algorithm runs one kNN query per point — n queries
/// against the same index — and rebuilding the traversal state (collector
/// heap, accepted list, node stacks and priority queues, candidate buffers,
/// the result vector) from cold heap allocations on every call is pure
/// waste. A context owns all of that scratch; queries through the same
/// context reuse the grown capacity, so the linear-scan and kd-tree paths
/// run with zero heap allocations once warm (asserted by a counting
/// operator-new test).
///
/// A context is scratch, not state: it carries no result semantics beyond
/// "the last call through it". It is not thread-safe — use one context per
/// thread (the materializers keep one per ParallelFor worker). Any engine
/// can use any context; the pools are engine-agnostic.
class KnnSearchContext {
 public:
  KnnSearchContext() = default;
  KnnSearchContext(KnnSearchContext&&) noexcept = default;
  KnnSearchContext& operator=(KnnSearchContext&&) noexcept = default;
  // Non-copyable: copying scratch buffers is never what a caller wants.
  KnnSearchContext(const KnnSearchContext&) = delete;
  KnnSearchContext& operator=(const KnnSearchContext&) = delete;

  /// Result of the last single-query Query/QueryRadius call through this
  /// context, sorted by (distance, index). Valid until the next call.
  std::span<const Neighbor> results() const {
    return {scratch.out.data(), scratch.out.size()};
  }

  /// Number of per-point neighbor lists held from the last QueryBatch call.
  size_t batch_size() const {
    return scratch.batch_offsets.empty() ? 0
                                         : scratch.batch_offsets.size() - 1;
  }

  /// Neighbor list of the i-th queried id of the last QueryBatch call,
  /// sorted by (distance, index). Valid until the next QueryBatch call.
  std::span<const Neighbor> batch_results(size_t i) const {
    return {scratch.batch_flat.data() + scratch.batch_offsets[i],
            scratch.batch_offsets[i + 1] - scratch.batch_offsets[i]};
  }

  /// Optional query-cost counters. Null (the default) disables counting
  /// entirely; when set, every engine bumps the counters with plain
  /// non-atomic increments — the pointer must therefore follow the same
  /// one-context-per-worker discipline as the scratch pools. Counting never
  /// allocates and never changes a result bit, so the zero-allocation
  /// steady state and bit-identical guarantees hold in both modes.
  QueryStats* stats = nullptr;

  /// Optional flight-recorder shard for per-query latency sampling. The
  /// engines never touch this — the *call sites* that issue queries
  /// (materializer chunks, substrate re-queries) consult it to decide
  /// whether to time a unit and where to record it. Same per-worker
  /// discipline as `stats`; timing requires `stats` to be set too (the
  /// recorder keeps counter deltas alongside wall time).
  QueryFlightRecorder::Shard* flight = nullptr;

  /// Engine-internal scratch pools. Not part of the stable API: the
  /// engines and the collector reach in freely; external callers must
  /// treat the context as an opaque handle and read results via
  /// results() / batch_results().
  struct Scratch {
    std::vector<Neighbor> out;       // single-query result buffer
    std::vector<double> heap;        // KnnCollector max-heap
    std::vector<Neighbor> accepted;  // KnnCollector accepted superset
    std::vector<double> rank;        // block/gather kernel output
    std::vector<std::pair<double, uint32_t>> frontier;  // best-first heap
    // Best-first heap carrying an engine payload (M-tree routing distance).
    struct KeyedNode {
      double key;
      uint32_t node;
      double aux;
    };
    std::vector<KeyedNode> keyed_frontier;
    std::vector<uint32_t> stack;         // DFS node stack
    // Cross-tree candidate dedup for the kd-forest: point i was examined
    // in the current query iff visited_mark[i] == visited_epoch, so a new
    // query costs one epoch bump instead of an O(n) clear (the mark array
    // is wiped only on first use and on epoch wraparound).
    std::vector<uint32_t> visited_mark;
    uint32_t visited_epoch = 0;
    // Per-slot collector pools for the tiled batch path.
    std::vector<std::vector<double>> tile_heaps;
    std::vector<std::vector<Neighbor>> tile_accepted;
    // QueryBatch output: flat neighbor lists plus offsets (n + 1).
    std::vector<size_t> batch_offsets;
    std::vector<Neighbor> batch_flat;
  } scratch;
};

/// Interface of every k-nearest-neighbor query engine in lofkit.
///
/// The paper's two-step algorithm (section 7.4) is agnostic to how the kNN
/// queries are answered and lists several options (grid, index tree,
/// sequential scan / VA-file); lofkit implements the sequential scan and
/// index trees behind this interface.
///
/// Semantics follow Definitions 3 and 4 of the paper: Query(q, k) returns
/// the *k-distance neighborhood* of q — every eligible point whose distance
/// is <= the k-distance — so the result contains at least k entries and more
/// when ties exist at the k-distance. If fewer than k eligible points exist,
/// all of them are returned.
///
/// The core API is context-taking: results land in the KnnSearchContext
/// (read them via ctx.results() / ctx.batch_results()) and all traversal
/// scratch is drawn from its pools, so a reused context makes repeated
/// queries allocation-free in steady state. The historical allocating
/// signatures remain as thin wrappers over a throwaway context and return
/// bit-identical results.
class KnnIndex {
 public:
  virtual ~KnnIndex() = default;

  /// Builds the index over `data` with `metric`. Both must outlive the
  /// index. Fails on an empty dataset. Building again replaces the previous
  /// content.
  virtual Status Build(const Dataset& data, const Metric& metric) = 0;

  /// k-distance neighborhood of `query` (ties included), sorted by
  /// (distance, index), left in `ctx` (read via ctx.results()). `exclude`,
  /// when set, removes that point index from consideration — pass the query
  /// point's own index to realize the D \ {p} of Definition 3. Requires
  /// k >= 1 and a prior successful Build().
  virtual Status Query(std::span<const double> query, size_t k,
                       std::optional<uint32_t> exclude,
                       KnnSearchContext& ctx) const = 0;

  /// All points within `radius` of `query` (inclusive), sorted by
  /// (distance, index), left in `ctx`; `exclude` as in Query(). Used by
  /// DBSCAN/OPTICS and the DB(pct, dmin) baseline.
  virtual Status QueryRadius(std::span<const double> query, double radius,
                             std::optional<uint32_t> exclude,
                             KnnSearchContext& ctx) const = 0;

  /// Batched self-queries: for every id in `point_ids` (which must index
  /// the built dataset), the k-distance neighborhood of that point with the
  /// point itself excluded — exactly Query(data.point(id), k, id, ctx) per
  /// id, results concatenated in `ctx` (read via ctx.batch_results(i)).
  /// The base implementation loops the single-query core; engines may
  /// override it to batch leaf/cell scans through the blocked SIMD kernels
  /// with bit-identical results (the linear scan tiles queries so each SoA
  /// block is streamed once per tile instead of once per query).
  virtual Status QueryBatch(std::span<const uint32_t> point_ids, size_t k,
                            KnnSearchContext& ctx) const;

  /// The dataset the index was built over; nullptr before Build().
  virtual const Dataset* dataset() const = 0;

  /// Allocating wrapper with the historical signature: runs the
  /// context-taking core over a throwaway context and returns the result.
  Result<std::vector<Neighbor>> Query(
      std::span<const double> query, size_t k,
      std::optional<uint32_t> exclude = std::nullopt) const;

  /// Allocating wrapper, as Query().
  Result<std::vector<Neighbor>> QueryRadius(
      std::span<const double> query, double radius,
      std::optional<uint32_t> exclude = std::nullopt) const;

  /// Engine identifier, e.g. "linear_scan", "rstar_tree".
  virtual std::string_view name() const = 0;
};

namespace internal_index {

/// Accumulates candidates during a kNN search and produces the k-distance
/// neighborhood (ties included).
///
/// The collector borrows its heap and accepted buffers — from a
/// KnnSearchContext's pools or from caller-owned vectors — and clears them
/// on construction, so a warm context makes collection allocation-free.
/// Offer() every candidate; Tau() is the current k-th smallest distance
/// (+inf until k candidates were seen) and is the pruning bound: a search
/// may skip any region whose minimum possible distance is *strictly greater*
/// than tau (skipping at == tau would lose ties).
class KnnCollector {
 public:
  /// A default-constructed collector is unusable until Reset() — it exists
  /// so tiled batch paths can keep a stack array of collectors.
  KnnCollector() = default;

  KnnCollector(size_t k, KnnSearchContext& ctx)
      : KnnCollector(k, ctx.scratch.heap, ctx.scratch.accepted, ctx.stats) {}

  /// Both buffers must outlive the collector. `stats`, when non-null,
  /// receives one heap_pushes increment per accepted candidate.
  KnnCollector(size_t k, std::vector<double>& heap,
               std::vector<Neighbor>& accepted, QueryStats* stats = nullptr)
      : k_(k), heap_(&heap), accepted_(&accepted), stats_(stats) {
    heap_->clear();
    accepted_->clear();
  }

  /// Rebinds to fresh buffers (cleared) for a new query.
  void Reset(size_t k, std::vector<double>& heap,
             std::vector<Neighbor>& accepted, QueryStats* stats = nullptr) {
    k_ = k;
    heap_ = &heap;
    accepted_ = &accepted;
    stats_ = stats;
    heap_->clear();
    accepted_->clear();
  }

  /// Considers one candidate.
  void Offer(uint32_t index, double distance) {
    if (distance > Tau()) return;
    if (stats_ != nullptr) ++stats_->heap_pushes;
    accepted_->push_back(Neighbor{index, distance});
    heap_->push_back(distance);
    std::push_heap(heap_->begin(), heap_->end());
    if (heap_->size() > k_) {
      std::pop_heap(heap_->begin(), heap_->end());
      heap_->pop_back();
    }
  }

  /// Current pruning bound (k-th smallest distance seen, or +inf).
  double Tau() const {
    return heap_->size() == k_ ? heap_->front()
                               : std::numeric_limits<double>::infinity();
  }

  /// Finalizes into `out` (cleared first): filters to distance <=
  /// k-distance, sorts by (distance, index). The collector is left empty.
  void TakeInto(std::vector<Neighbor>& out);

 private:
  size_t k_ = 0;
  std::vector<double>* heap_ = nullptr;  // max-heap of k smallest distances
  std::vector<Neighbor>* accepted_ = nullptr;  // superset of the result
  QueryStats* stats_ = nullptr;  // optional heap_pushes counter
};

/// Sorts a neighbor list by (distance, index).
void SortNeighbors(std::vector<Neighbor>& neighbors);

/// Converts a neighbor list whose `distance` fields hold rank-space values
/// (as produced by DistanceKernels) back to metric distances, in place.
/// The rank transform is monotone, so (distance, index) order and tie
/// structure are preserved.
void RanksToDistances(const DistanceKernels& kernels,
                      std::vector<Neighbor>& neighbors);

}  // namespace internal_index
}  // namespace lofkit

#endif  // LOFKIT_INDEX_KNN_INDEX_H_
