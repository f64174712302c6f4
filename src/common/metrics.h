#ifndef LOFKIT_COMMON_METRICS_H_
#define LOFKIT_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace lofkit {

class QueryFlightRecorder;

/// Per-query work counters for the kNN engines — the quantities the paper's
/// performance sections argue in (node/page accesses and distance
/// computations, Figures 10-11 / section 6), which wall-clock time alone
/// cannot explain.
///
/// A QueryStats is plain per-worker state: engines bump its fields with
/// ordinary (non-atomic) increments through the KnnSearchContext that owns
/// the query's scratch, so the hot path stays free of synchronization and
/// allocation. Null pointer = counting disabled; counting never changes any
/// result bit. Exact per-engine semantics are documented in
/// docs/observability.md.
struct QueryStats {
  /// Queries served (kNN and radius; each batched id counts once).
  uint64_t queries = 0;
  /// Exact distance (or rank) evaluations against candidate points.
  uint64_t distance_evals = 0;
  /// Candidates or whole regions skipped by a rank/bound pruning test.
  uint64_t rank_prune_hits = 0;
  /// Internal index node expansions (tree nodes).
  uint64_t node_visits = 0;
  /// Leaf/page scans (tree leaves, sequential SoA blocks).
  uint64_t leaf_visits = 0;
  /// Collector heap insertions (candidates that passed the tau test).
  uint64_t heap_pushes = 0;
  /// Always 0: no shipped engine has a candidate-refinement phase. Kept
  /// only because lofbench reads it.
  uint64_t va_refinements = 0;
  /// Candidate points charged against an approximate engine's
  /// SearchParams::checks budget (kd-forest; 0 for the exact engines).
  uint64_t checks_used = 0;

  /// Total node/page accesses — the paper's Figure-10 x-axis quantity.
  uint64_t page_accesses() const { return node_visits + leaf_visits; }

  void Add(const QueryStats& other) {
    queries += other.queries;
    distance_evals += other.distance_evals;
    rank_prune_hits += other.rank_prune_hits;
    node_visits += other.node_visits;
    leaf_visits += other.leaf_visits;
    heap_pushes += other.heap_pushes;
    va_refinements += other.va_refinements;
    checks_used += other.checks_used;
  }

  void Reset() { *this = QueryStats{}; }

  bool IsZero() const {
    return queries == 0 && distance_evals == 0 && rank_prune_hits == 0 &&
           node_visits == 0 && leaf_visits == 0 && heap_pushes == 0 &&
           va_refinements == 0 && checks_used == 0;
  }
};

inline bool operator==(const QueryStats& a, const QueryStats& b) {
  return a.queries == b.queries && a.distance_evals == b.distance_evals &&
         a.rank_prune_hits == b.rank_prune_hits &&
         a.node_visits == b.node_visits && a.leaf_visits == b.leaf_visits &&
         a.heap_pushes == b.heap_pushes &&
         a.va_refinements == b.va_refinements &&
         a.checks_used == b.checks_used;
}

/// Records named spans on a steady clock and serializes them as Chrome
/// trace-event JSON (loadable in chrome://tracing or Perfetto). Pipeline
/// phases land on tid 0; per-worker chunks land on the worker's tid, so the
/// trace shows the parallel shape of a run, not just its total.
///
/// AddSpan/AddInstant take a mutex — they are meant for phase- and
/// chunk-granular events (at most one per ParallelFor chunk), never for
/// per-query or per-candidate work; that is what QueryStats is for.
class TraceRecorder {
 public:
  /// The recorder's time origin is its construction instant; all span
  /// timestamps are seconds since then (use NowSeconds()).
  TraceRecorder();

  /// Seconds elapsed since construction, on the same clock the spans use.
  double NowSeconds() const;

  /// Complete span [start_seconds, end_seconds] on track `tid`.
  /// Thread-safe. Spans with end < start are clamped to zero duration.
  void AddSpan(const std::string& name, uint32_t tid, double start_seconds,
               double end_seconds);

  /// Zero-duration marker event. Thread-safe.
  void AddInstant(const std::string& name, uint32_t tid, double at_seconds);

  /// RAII span: records [construction, End()-or-destruction]. A null
  /// recorder makes every operation a no-op, so call sites can create one
  /// unconditionally.
  class Span {
   public:
    Span(TraceRecorder* recorder, std::string name, uint32_t tid = 0)
        : recorder_(recorder), name_(std::move(name)), tid_(tid),
          start_(recorder != nullptr ? recorder->NowSeconds() : 0.0) {}
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span now (idempotent; destruction ends it otherwise).
    void End() {
      if (recorder_ == nullptr) return;
      recorder_->AddSpan(name_, tid_, start_, recorder_->NowSeconds());
      recorder_ = nullptr;
    }

   private:
    TraceRecorder* recorder_;
    std::string name_;
    uint32_t tid_;
    double start_;
  };

  size_t event_count() const;

  /// {"traceEvents": [...]} with timestamps/durations in microseconds —
  /// the stable subset of the Chrome trace-event format.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    uint32_t tid;
    double start_us;
    double dur_us;  // < 0 marks an instant event
  };

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// Coarse liveness state for long runs: pipeline layers bump `units_done`
/// (one unit = one point scored or materialized) and set the phase label;
/// a background publisher thread reads the fields to emit heartbeat
/// gauges. All members are relaxed atomics — progress is advisory, never
/// load-bearing for results, so no ordering is required.
///
/// Phase labels must be string literals (or otherwise outlive the
/// tracker): only the pointer is stored, so readers never allocate or
/// race on string contents.
class ProgressTracker {
 public:
  void SetPhase(const char* phase) {
    phase_.store(phase, std::memory_order_relaxed);
  }
  const char* phase() const {
    const char* p = phase_.load(std::memory_order_relaxed);
    return p != nullptr ? p : "";
  }

  void SetTotal(uint64_t units) {
    units_total_.store(units, std::memory_order_relaxed);
  }
  void Add(uint64_t units) {
    units_done_.fetch_add(units, std::memory_order_relaxed);
  }

  uint64_t units_done() const {
    return units_done_.load(std::memory_order_relaxed);
  }
  uint64_t units_total() const {
    return units_total_.load(std::memory_order_relaxed);
  }

  /// done/total clamped to [0, 1]; 0 while the total is unknown.
  double FractionComplete() const {
    const uint64_t total = units_total();
    if (total == 0) return 0.0;
    const uint64_t done = units_done();
    return done >= total ? 1.0
                         : static_cast<double>(done) /
                               static_cast<double>(total);
  }

 private:
  std::atomic<const char*> phase_{nullptr};
  std::atomic<uint64_t> units_done_{0};
  std::atomic<uint64_t> units_total_{0};
};

/// Optional observability hooks threaded through the pipeline layers
/// (materializers, LofComputer, LofSweep). Every pointer defaults to null —
/// fully disabled, with zero behavior change; any subset may be set.
/// `query_stats` receives deterministic totals (per-worker shards are
/// summed after the parallel region, so every thread count yields the same
/// numbers); `trace` receives phase and per-worker chunk spans; `flight`
/// samples per-query latency records into per-worker ring buffers;
/// `progress` receives coarse liveness updates for the heartbeat
/// publisher. `trace_tid` is the track phase spans are recorded on —
/// normally 0, but a sweep running whole steps on worker threads sets it
/// to the worker's track so nested phase spans land under the step span.
struct PipelineObserver {
  QueryStats* query_stats = nullptr;
  TraceRecorder* trace = nullptr;
  QueryFlightRecorder* flight = nullptr;
  ProgressTracker* progress = nullptr;
  uint32_t trace_tid = 0;

  bool enabled() const {
    return query_stats != nullptr || trace != nullptr || flight != nullptr;
  }
};

/// A registry of named counters, gauges, and bounded histograms with
/// per-worker shards: workers accumulate into their own shard with plain
/// stores (no atomics, no locks), and Aggregate() merges the shards into
/// one Snapshot. Registration (name -> id) happens once, off the hot path;
/// recording uses the integer id only.
///
/// Aggregation semantics: counters sum across shards; a gauge takes the
/// value of the highest-numbered shard that set it (gauges are normally set
/// from one place); histograms merge bucket-wise. Snapshot order is
/// registration order, so serialized output is deterministic.
class MetricsRegistry {
 public:
  using MetricId = uint32_t;

  /// Creates the registry with `shards` per-worker shards (>= 1).
  explicit MetricsRegistry(size_t shards = 1);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or looks up) a monotonically increasing counter.
  /// Re-registering the same name returns the same id.
  MetricId Counter(const std::string& name);

  /// Registers (or looks up) a last-value-wins gauge.
  MetricId Gauge(const std::string& name);

  /// Registers (or looks up) a bounded histogram: `buckets` geometric
  /// buckets spanning [lo, hi] (lo > 0, hi > lo, 1 <= buckets <= 512) plus
  /// implicit underflow/overflow buckets, so recording can never allocate
  /// or grow. Latencies and sizes both fit: the geometric spacing keeps
  /// relative resolution constant across orders of magnitude.
  MetricId Histogram(const std::string& name, double lo, double hi,
                     size_t buckets);

  size_t shard_count() const { return shards_.size(); }

  /// Adds `delta` to a counter in shard `shard` (no synchronization; each
  /// worker must own its shard index).
  void Add(MetricId id, uint64_t delta = 1, size_t shard = 0);

  /// Sets a gauge in shard `shard`.
  void Set(MetricId id, double value, size_t shard = 0);

  /// Records one observation into a histogram in shard `shard`.
  void Record(MetricId id, double value, size_t shard = 0);

  /// Registers and fills one counter per QueryStats field, named
  /// `<prefix>.<field>` (e.g. "materialize.distance_evals").
  void AddQueryStats(const std::string& prefix, const QueryStats& stats,
                     size_t shard = 0);

  /// Aggregated point-in-time view of every registered metric.
  struct Snapshot {
    struct CounterValue {
      std::string name;
      uint64_t value = 0;
    };
    struct GaugeValue {
      std::string name;
      double value = 0.0;
      bool set = false;
    };
    struct HistogramValue {
      std::string name;
      double lo = 0.0;
      double hi = 0.0;
      std::vector<double> upper_bounds;  // one per bucket, ascending
      std::vector<uint64_t> counts;      // parallel to upper_bounds
      uint64_t underflow = 0;
      uint64_t overflow = 0;
      uint64_t total_count = 0;
      double sum = 0.0;
      /// Exact smallest/largest recorded value (NaN when count == 0).
      /// Min/max merge order-independently across shards, so quantile
      /// clamping stays deterministic at every thread count.
      double min = 0.0;
      double max = 0.0;

      /// Estimated q-quantile (q in [0, 1]) by linear interpolation
      /// within the geometric buckets, clamped to the exact [min, max]
      /// envelope — single-bucket data is therefore exact, and estimates
      /// are monotone in q. Returns NaN when the histogram is empty.
      double Quantile(double q) const;
    };

    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with
    /// every name JSON-escaped; parses under any strict JSON reader.
    /// Non-empty histograms also carry "min"/"max"/"p50"/"p95"/"p99".
    std::string ToJson() const;

    /// OpenMetrics text exposition (the Prometheus scrape surface):
    /// counters as `lofkit_<name>_total`, gauges as `lofkit_<name>`, and
    /// histograms with cumulative `le` buckets plus `_sum`/`_count`,
    /// terminated by `# EOF`. Metric names are sanitized to
    /// [a-zA-Z0-9_:] as the format requires.
    std::string ToOpenMetrics() const;
  };

  Snapshot Aggregate() const;

  /// Writes Aggregate().ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Definition {
    std::string name;
    Kind kind;
    uint32_t slot;  // index into the kind-specific shard storage
  };

  struct HistogramLayout {
    double lo;
    double hi;
    std::vector<double> upper_bounds;
  };

  struct Shard {
    std::vector<uint64_t> counters;
    std::vector<double> gauges;
    std::vector<uint8_t> gauge_set;
    // Per histogram: buckets + 2 slots (index 0 = underflow, last =
    // overflow), preallocated at registration time.
    std::vector<std::vector<uint64_t>> hist_counts;
    std::vector<double> hist_sum;
    std::vector<double> hist_min;  // +inf until the first observation
    std::vector<double> hist_max;  // -inf until the first observation
  };

  MetricId Register(const std::string& name, Kind kind);
  const Definition& Checked(MetricId id, Kind kind) const;

  std::vector<Definition> definitions_;
  std::vector<HistogramLayout> histogram_layouts_;
  std::vector<Shard> shards_;
};

/// Peak resident-set size of this process in bytes (getrusage ru_maxrss),
/// or 0 where the platform does not report it. High-water mark, not
/// current usage — it can only grow over a run.
uint64_t PeakRssBytes();

}  // namespace lofkit

#endif  // LOFKIT_COMMON_METRICS_H_
