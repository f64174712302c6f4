// Reproduces Figure 9 / Section 7.1: the synthetic 2-d dataset with one
// low-density Gaussian cluster (200), one dense Gaussian (500), two uniform
// clusters of different densities (500 each) and seven planted outliers.
// At MinPts = 40, uniform-cluster members have LOF ~ 1, Gaussian members
// ~ 1 with weak outliers at the fringe, and the seven planted objects get
// the largest LOF values, scaled by the density of the cluster they are
// outlying relative to.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "common/random.h"
#include "dataset/metric.h"
#include "dataset/scenarios.h"
#include "index/index_factory.h"
#include "lof/lof_computer.h"

using namespace lofkit;          // NOLINT
using namespace lofkit::bench;   // NOLINT

int main() {
  PrintHeader("Figure 9 / Section 7.1", "synthetic dataset, MinPts = 40");
  Rng rng(9);
  auto scenario = CheckOk(scenarios::MakeFig9Dataset(rng),
                          "MakeFig9Dataset");
  const Dataset& ds = scenario.data;
  // Any exact engine yields the same M; the figure is about LOF values.
  auto index = CreateIndex(RecommendIndexKind(ds.dimension()));
  CheckOk(index->Build(ds, Euclidean()), "Build");
  auto m = CheckOk(NeighborhoodMaterializer::Materialize(ds, *index, 40),
                   "Materialize");
  auto scores = CheckOk(LofComputer::Compute(m, 40), "Compute");

  // Per-cluster LOF statistics.
  std::map<std::string, std::vector<double>> by_label;
  for (size_t i = 0; i < ds.size(); ++i) {
    std::string label = ds.label(i);
    if (label.rfind("outlier_", 0) == 0) label = "planted outliers";
    by_label[label].push_back(scores.lof[i]);
  }
  std::printf("%-18s %-8s %-8s %-8s %-8s\n", "group", "count", "min",
              "mean", "max");
  for (const auto& [label, values] : by_label) {
    double lo = values[0], hi = values[0], sum = 0;
    for (double v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    std::printf("%-18s %-8zu %-8.3f %-8.3f %-8.3f\n", label.c_str(),
                values.size(), lo, sum / values.size(), hi);
  }

  std::printf("\nPlanted outliers (cf. the seven spikes of figure 9):\n");
  std::printf("%-12s %-12s %-10s\n", "name", "position", "LOF");
  for (int i = 0; i < 7; ++i) {
    const std::string name = "outlier_" + std::to_string(i);
    const size_t index_of = scenario.named.at(name);
    std::printf("%-12s (%5.1f,%5.1f) %-10.3f\n", name.c_str(),
                ds.point(index_of)[0], ds.point(index_of)[1],
                scores.lof[index_of]);
  }
  std::printf("\nShape check: uniform clusters pinned at LOF ~ 1, planted "
              "outliers clearly above,\nwith magnitude depending on the "
              "neighboring cluster's density, as in figure 9.\n");
  return 0;
}
