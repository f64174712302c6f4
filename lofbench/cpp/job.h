#ifndef LOFBENCH_CPP_JOB_H_
#define LOFBENCH_CPP_JOB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "dataset/dataset.h"
#include "index/knn_index.h"
#include "index/neighborhood_materializer.h"
#include "lof/lof_computer.h"
#include "trace.h"

namespace lofbench {

/// Length of the ranking every job returns (lofkit_cli's --top default).
inline constexpr size_t kTopN = 10;

/// What one job computes: LOF over MinPts in [lb, ub] (k_max = ub), max
/// aggregation, L2, the top kTopN outliers, on `threads` workers.
struct JobConfig {
  size_t lb = 10;
  size_t ub = 20;
  size_t threads = 0;
  /// False stops a CSV job after step 1 (the re-sweep preparation).
  bool sweep = true;
};

/// Layer measurements of a traced job. Wall seconds per layer call, process
/// CPU seconds around the parallel calls, resident growth across the calls
/// that allocate, and the query-cost counters of step 1.
struct LayerSample {
  double load_s = 0.0;
  double build_s = 0.0;
  double build_rss_mb = 0.0;
  double materialize_s = 0.0;
  double materialize_cpu_s = 0.0;
  double materialize_rss_mb = 0.0;
  double map_s = 0.0;
  double sweep_s = 0.0;
  double sweep_cpu_s = 0.0;
  double rank_s = 0.0;
  lofkit::QueryStats stats;
  lofkit::LofPhaseTimes phases;
};

/// Result of one job. The dataset, index and M stay alive so the output
/// checks can run after the timed interval, and are freed with the output.
struct JobOutput {
  lofkit::Status status;
  double total_s = 0.0;  ///< input file to ranked top list
  double setup_s = 0.0;  ///< before the first kNN query or sweep
  double score_s = 0.0;  ///< ready index or M to ranked top list
  std::string engine;
  LayerSample layers;  ///< filled only for traced jobs
  std::vector<lofkit::RankedOutlier> top;
  std::vector<double> aggregated;
  std::unique_ptr<lofkit::Dataset> data;
  std::unique_ptr<lofkit::KnnIndex> index;
  std::unique_ptr<lofkit::NeighborhoodMaterializer> m;
};

/// The default lofkit_cli job, made as public calls: DatasetFromCsvFile,
/// the engine RecommendIndexKind picks, CreateIndex + Build,
/// MaterializeParallel at k_max = ub, LofSweep::Run, RankDescending. With a
/// non-null `log` the job is traced: spans around every call under job id
/// `job`, plus the layer measurements of JobOutput::layers.
JobOutput RunCsvJob(const std::string& csv_path, const JobConfig& config,
                    SpanLog* log, uint64_t job);

/// The re-sweep job over a stored M: MapFromFile, LofSweep::Run, rank.
JobOutput RunResweepJob(const std::string& m_path, const JobConfig& config,
                        SpanLog* log, uint64_t job);

}  // namespace lofbench

#endif  // LOFBENCH_CPP_JOB_H_
