// The engine-choice matrix behind RecommendIndexKind: every exact kNN
// engine on the same data, over n x d x metric, with the index build and
// step 1 (the parallel materialization of M at k_max = 20, the CLI's
// default MinPtsUB) timed separately.
//
// Per engine and cell the rows record the build wall and the step-1 wall
// (each the minimum of 3 runs), distance evaluations and internal node
// visits per query (exact counts, identical on every thread count), and a
// `recommended` column: 1 when RecommendIndexKind(d, metric) names the
// engine. An engine whose first build + step 1 already costs more than 5x
// the cell's best so far is not repeated (`repetitions` says how often it
// ran): it is out of the race either way, and the slow scans of the
// box-pruning engines under the angular metric would otherwise dominate
// the run. Every engine's M must equal the linear scan's bit for bit
// (neighbor ids and distances, ties included); the bench exits 1 if not.
//
// The data is the section-7.4 performance workload (10 Gaussian clusters
// in [0, 100]^d), one seed per (n, d). The rows land in
// BENCH_engines.json; the committed copy is bench/baselines/
// BENCH_engines.json, which IndexFactoryTest pins the rule to.
// LOFKIT_BENCH_SMOKE=1 keeps only the n = 2000 cells; their counters equal
// the committed ones, which CI gates.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/bench_report.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/index_factory.h"
#include "index/neighborhood_materializer.h"

using namespace lofkit;         // NOLINT
using namespace lofkit::bench;  // NOLINT

namespace {

constexpr size_t kKMax = 20;
constexpr size_t kRepetitions = 3;
constexpr double kSkipRepeatsAbove = 5.0;

// The exact engines, the linear scan first: its M is the reference.
const std::vector<IndexKind> kEngines = {
    IndexKind::kLinearScan, IndexKind::kKdTree, IndexKind::kMTree,
    IndexKind::kRStarTree};

// True when both M's hold the same neighbor ids and distance bits.
bool SameBits(const NeighborhoodMaterializer& a,
              const NeighborhoodMaterializer& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto x = a.neighbors(i);
    const auto y = b.neighbors(i);
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].index != y[j].index ||
          std::bit_cast<uint64_t>(x[j].distance) !=
              std::bit_cast<uint64_t>(y[j].distance)) {
        return false;
      }
    }
  }
  return true;
}

struct Run {
  double build_seconds;
  double step1_seconds;
};

// One build + step 1; fills `m` and, when given, the query counters.
Run BuildAndMaterialize(const Dataset& data, const Metric& metric,
                        IndexKind kind,
                        std::optional<NeighborhoodMaterializer>* m,
                        QueryStats* stats) {
  auto index = CreateIndex(kind);
  Stopwatch watch;
  CheckOk(index->Build(data, metric), "Build");
  const double build_seconds = watch.ElapsedSeconds();
  PipelineObserver observer;
  observer.query_stats = stats;
  watch.Reset();
  auto materialized = CheckOk(
      NeighborhoodMaterializer::MaterializeParallel(
          data, *index, kKMax, /*threads=*/0, /*distinct_neighbors=*/false,
          observer),
      "MaterializeParallel");
  const double step1_seconds = watch.ElapsedSeconds();
  if (m != nullptr) m->emplace(std::move(materialized));
  return {build_seconds, step1_seconds};
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{2000} : std::vector<size_t>{2000, 20000};
  const std::vector<size_t> dims = {2, 5, 10, 20, 64};
  const std::vector<const Metric*> metrics = {&Euclidean(), &Manhattan(),
                                              &Angular()};

  BenchReport report("engines");
  report.SetManifest("dataset", "performance_workload");
  report.SetManifest("clusters", 10.0);
  report.SetManifest("k_max", static_cast<double>(kKMax));
  report.SetManifest("repetitions", static_cast<double>(kRepetitions));
  report.SetManifest("threads", static_cast<double>(ResolveThreadCount(0)));

  PrintHeader("Engine matrix",
              "build + step-1 wall (min of 3), k_max = 20, every exact engine");
  std::printf("%-34s %-12s %10s %10s %8s %10s %9s\n", "cell", "engine",
              "build (s)", "step1 (s)", "vs best", "evals/q", "visits/q");

  bool all_identical = true;
  for (size_t n : sizes) {
    for (size_t d : dims) {
      Rng rng(7000 + 100 * d + n / 1000);
      const Dataset data = CheckOk(
          generators::MakePerformanceWorkload(rng, d, n, 10), "workload");
      for (const Metric* metric : metrics) {
        const std::string cell = "n=" + std::to_string(n) +
                                 "/d=" + std::to_string(d) + "/" +
                                 std::string(metric->name());
        const IndexKind recommended = RecommendIndexKind(d, *metric);

        struct Row {
          IndexKind kind;
          Run best;
          size_t repetitions;
          QueryStats stats;
        };
        std::vector<Row> rows;
        std::optional<NeighborhoodMaterializer> reference;
        double best_total = std::numeric_limits<double>::infinity();
        for (IndexKind kind : kEngines) {
          Row row{kind, {}, 1, {}};
          std::optional<NeighborhoodMaterializer> m;
          row.best = BuildAndMaterialize(data, *metric, kind, &m, &row.stats);
          if (kind == IndexKind::kLinearScan) {
            reference = std::move(m);
          } else if (!SameBits(*m, *reference)) {
            std::fprintf(stderr, "%s: %s's M differs from the linear scan's\n",
                         cell.c_str(), IndexKindName(kind).data());
            all_identical = false;
          }
          const double first_total =
              row.best.build_seconds + row.best.step1_seconds;
          if (first_total <= kSkipRepeatsAbove * best_total) {
            for (; row.repetitions < kRepetitions; ++row.repetitions) {
              const Run run =
                  BuildAndMaterialize(data, *metric, kind, nullptr, nullptr);
              row.best.build_seconds =
                  std::min(row.best.build_seconds, run.build_seconds);
              row.best.step1_seconds =
                  std::min(row.best.step1_seconds, run.step1_seconds);
            }
          }
          best_total = std::min(
              best_total, row.best.build_seconds + row.best.step1_seconds);
          rows.push_back(row);
        }

        for (const Row& row : rows) {
          const double total = row.best.build_seconds + row.best.step1_seconds;
          const double queries =
              static_cast<double>(std::max<uint64_t>(row.stats.queries, 1));
          const double evals_per_query =
              static_cast<double>(row.stats.distance_evals) / queries;
          const double visits_per_query =
              static_cast<double>(row.stats.node_visits) / queries;
          const bool is_recommended = row.kind == recommended;
          std::printf("%-34s %-12s %10.4f %10.4f %7.2fx %10.1f %9.1f%s\n",
                      cell.c_str(), IndexKindName(row.kind).data(),
                      row.best.build_seconds, row.best.step1_seconds,
                      total / best_total, evals_per_query, visits_per_query,
                      is_recommended ? "  <- recommended" : "");
          report.Add(cell + "/" + std::string(IndexKindName(row.kind)),
                     {{"n", static_cast<double>(n)},
                      {"d", static_cast<double>(d)},
                      {"build_seconds", row.best.build_seconds},
                      {"step1_seconds", row.best.step1_seconds},
                      {"repetitions", static_cast<double>(row.repetitions)},
                      {"evals_per_query", evals_per_query},
                      {"node_visits_per_query", visits_per_query},
                      {"recommended", is_recommended ? 1.0 : 0.0}});
        }
        std::fflush(stdout);
      }
    }
  }
  CheckOk(report.Write(), "Write");
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: some engine's M is not bit-identical\n");
    return 1;
  }
  std::printf("\nEvery engine's M equals the linear scan's bit for bit.\n");
  return 0;
}
