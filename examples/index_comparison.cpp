// Choosing a kNN engine — section 7.4's guidance as runnable code.
//
// The LOF result is engine-independent (every engine in lofkit is exact);
// only the materialization cost differs. This example measures every
// engine on the same workload at two dimensionalities and prints what
// RecommendIndexKind would have picked. The whole pipeline runs on every
// hardware thread (threads = 0) — the scores are bit-identical to a
// single-threaded run, so parallelism is purely a speed knob.

#include <cstdio>

#include "common/random.h"
#include "common/stopwatch.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/index_factory.h"
#include "lof/lof_computer.h"

using namespace lofkit;  // NOLINT

int main() {
  std::printf("kNN engine comparison, n = 3000, MinPts = 20\n\n");
  std::printf("%-14s %-16s %-16s\n", "engine", "d=2 total (s)",
              "d=16 total (s)");

  for (IndexKind kind : AllIndexKinds()) {
    std::printf("%-14s", std::string(IndexKindName(kind)).c_str());
    for (size_t dim : {2u, 16u}) {
      Rng rng(dim);
      auto data = generators::MakePerformanceWorkload(rng, dim, 3000, 8);
      if (!data.ok()) return 1;
      Stopwatch watch;
      auto scores = LofComputer::ComputeFromScratch(
          *data, Euclidean(), 20, kind, /*distinct_neighbors=*/false,
          {.use_reachability = true, .threads = 0});
      if (!scores.ok()) {
        std::printf("  %s\n", scores.status().ToString().c_str());
        return 1;
      }
      std::printf(" %-16.3f", watch.ElapsedSeconds());
    }
    std::printf("\n");
  }

  std::printf("\nRecommendIndexKind picks: d=2 -> %s, d=16 -> %s, d=64 -> "
              "%s; angular metric -> %s\n",
              std::string(IndexKindName(RecommendIndexKind(2))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(16))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(64))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(64, Angular())))
                  .c_str());
  std::printf("\nAll engines return identical LOF values — pick by cost, "
              "not by result.\n");
  return 0;
}
