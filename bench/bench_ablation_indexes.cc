// Ablation (DESIGN.md): the kNN-engine choice of section 7.4. Same LOF
// pipeline, same data, every engine — identical rankings by construction,
// very different single-threaded materialization cost profiles across
// dimensionality. The matrix the default engine is chosen from (build and
// step-1 walls per n, d and metric) is bench_engines.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/index_factory.h"
#include "index/neighborhood_materializer.h"

using namespace lofkit;          // NOLINT
using namespace lofkit::bench;   // NOLINT

int main() {
  PrintHeader("Ablation: kNN engine x dimensionality",
              "materialization time (s), n = 4000, MinPtsUB = 50");
  std::printf("%-14s", "engine");
  for (size_t d : {2, 5, 10, 20}) std::printf("  d=%-7zu", d);
  std::printf("\n");
  for (IndexKind kind : AllIndexKinds()) {
    std::printf("%-14s", std::string(IndexKindName(kind)).c_str());
    for (size_t d : {2, 5, 10, 20}) {
      Rng rng(42 + d);
      auto data = CheckOk(
          generators::MakePerformanceWorkload(rng, d, 4000, 10), "workload");
      auto index = CreateIndex(kind);
      Stopwatch watch;
      CheckOk(index->Build(data, Euclidean()), "Build");
      auto m = CheckOk(
          NeighborhoodMaterializer::Materialize(data, *index, 50),
          "Materialize");
      (void)m;
      std::printf("  %-9.3f", watch.ElapsedSeconds());
    }
    std::printf("\n");
  }
  std::printf("\nRecommended engine per dimension (RecommendIndexKind): "
              "d=2 -> %s, d=5 -> %s,\nd=16 -> %s, d=64 -> %s.\n",
              std::string(IndexKindName(RecommendIndexKind(2))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(5))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(16))).c_str(),
              std::string(IndexKindName(RecommendIndexKind(64))).c_str());
  return 0;
}
