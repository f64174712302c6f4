// Reproduces the 64-dimensional experiment mentioned in Section 7's
// introduction: color-histogram-like vectors (synthetic stand-in, see
// DESIGN.md section 4) form several clusters; LOF remains meaningful in 64
// dimensions, assigning ~1 to cluster members and clearly elevated values
// (the paper saw up to ~7) to the planted cross-cluster blends.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "dataset/metric.h"
#include "dataset/scenarios.h"
#include "index/index_factory.h"
#include "lof/lof_computer.h"
#include "lof/lof_sweep.h"

using namespace lofkit;          // NOLINT
using namespace lofkit::bench;   // NOLINT

int main() {
  PrintHeader("Section 7 (64-d histograms, substituted data)",
              "LOF on 64-dimensional clustered vectors");
  Rng rng(64);
  auto scenario = CheckOk(scenarios::Make64DHistograms(rng),
                          "Make64DHistograms");
  const Dataset& ds = scenario.data;

  // Any exact engine yields the same M; the experiment is about LOF values.
  auto index = CreateIndex(RecommendIndexKind(ds.dimension()));
  CheckOk(index->Build(ds, Euclidean()), "Build");
  auto m = CheckOk(NeighborhoodMaterializer::Materialize(ds, *index, 20),
                   "Materialize");
  auto sweep = CheckOk(LofSweep::Run(m, 10, 20), "Sweep");

  double cluster_max = 0.0;
  for (size_t i = 0; i < ds.size(); ++i) {
    const std::string& label = ds.label(i);
    if (label == "tennis" || label == "news" || label == "sports") {
      cluster_max = std::max(cluster_max, sweep.aggregated[i]);
    }
  }
  std::printf("max LOF among the 600 cluster members: %.3f\n\n",
              cluster_max);
  std::printf("%-16s %-10s\n", "planted blend", "max LOF");
  for (int i = 0; i < 5; ++i) {
    const std::string name = "hist_outlier_" + std::to_string(i);
    std::printf("%-16s %-10.3f\n", name.c_str(),
                sweep.aggregated[scenario.named.at(name)]);
  }

  auto ranked = RankDescending(sweep.aggregated, 10);
  std::printf("\nTop 10 overall:\n");
  for (size_t i = 0; i < ranked.size(); ++i) {
    std::printf("%2zu. LOF %-8.3f %s\n", i + 1, ranked[i].score,
                ds.label(ranked[i].index).c_str());
  }
  std::printf("\nShape check: definitions stay reasonable in 64 dimensions "
              "— cluster members near 1,\nplanted local outliers clearly "
              "above (paper reported values up to ~7).\n");
  return 0;
}
