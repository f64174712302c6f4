#include "job.h"

#include <utility>

#include "dataset/loaders.h"
#include "dataset/metric.h"
#include "index/index_factory.h"
#include "lof/lof_sweep.h"

namespace lofbench {
namespace {

/// Times one call into a layer. Both modes read the same clock at the same
/// points; a traced job additionally records the interval as a span.
class Timed {
 public:
  Timed(SpanLog* log, const char* name, uint64_t job, uint32_t parent)
      : log_(log), start_ns_(NowNs()) {
    if (log_ != nullptr) id_ = log_->Begin(name, job, parent, start_ns_);
  }

  /// Closes the interval; returns its end timestamp.
  int64_t End() {
    end_ns_ = NowNs();
    if (log_ != nullptr) log_->End(id_, end_ns_);
    return end_ns_;
  }

  uint32_t id() const { return id_; }
  int64_t start_ns() const { return start_ns_; }
  double seconds() const {
    return 1e-9 * static_cast<double>(end_ns_ - start_ns_);
  }

 private:
  SpanLog* log_;
  uint32_t id_ = 0;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
};

const lofkit::Metric& L2() {
  static const lofkit::Metric* metric = *lofkit::MetricByName("euclidean");
  return *metric;
}

/// Step 2 and the ranking, shared by both job shapes. Returns the end
/// timestamp of the ranking.
int64_t SweepAndRank(JobOutput& out, const JobConfig& config, SpanLog* log,
                     uint64_t job, uint32_t root) {
  LayerSample& layers = out.layers;
  const double cpu0 = log != nullptr ? ProcessCpuSeconds() : 0.0;
  Timed sweep_call(log, "lof.sweep", job, root);
  auto sweep = lofkit::LofSweep::Run(*out.m, config.lb, config.ub,
                                     lofkit::LofAggregation::kMax,
                                     /*keep_per_min_pts=*/false,
                                     config.threads);
  int64_t end = sweep_call.End();
  layers.sweep_s = sweep_call.seconds();
  if (log != nullptr) layers.sweep_cpu_s = ProcessCpuSeconds() - cpu0;
  if (!sweep.ok()) {
    out.status = sweep.status();
    return end;
  }
  layers.phases = sweep->phase_times;
  out.aggregated = std::move(sweep->aggregated);

  Timed rank_call(log, "lof.rank", job, root);
  out.top = lofkit::RankDescending(out.aggregated, kTopN);
  end = rank_call.End();
  layers.rank_s = rank_call.seconds();
  return end;
}

void Finish(JobOutput& out, Timed& whole, int64_t ready_ns, int64_t end_ns) {
  whole.End();
  out.total_s = 1e-9 * static_cast<double>(end_ns - whole.start_ns());
  out.setup_s = 1e-9 * static_cast<double>(ready_ns - whole.start_ns());
  out.score_s = 1e-9 * static_cast<double>(end_ns - ready_ns);
}

}  // namespace

JobOutput RunCsvJob(const std::string& csv_path, const JobConfig& config,
                    SpanLog* log, uint64_t job) {
  JobOutput out;
  LayerSample& layers = out.layers;
  const bool traced = log != nullptr;
  Timed whole(log, "job", job, 0);

  Timed load_call(log, "dataset.load", job, whole.id());
  auto data = lofkit::DatasetFromCsvFile(csv_path);
  int64_t ready = load_call.End();
  layers.load_s = load_call.seconds();
  if (!data.ok()) {
    out.status = data.status();
    Finish(out, whole, ready, ready);
    return out;
  }
  out.data = std::make_unique<lofkit::Dataset>(std::move(data).value());

  const double rss0 = traced ? CurrentRssMb() : 0.0;
  Timed build_call(log, "index.build", job, whole.id());
  out.index = lofkit::CreateIndex(
      lofkit::RecommendIndexKind(out.data->dimension()));
  out.status = out.index->Build(*out.data, L2());
  ready = build_call.End();
  layers.build_s = build_call.seconds();
  if (traced) layers.build_rss_mb = CurrentRssMb() - rss0;
  out.engine = std::string(out.index->name());
  if (!out.status.ok()) {
    Finish(out, whole, ready, ready);
    return out;
  }

  lofkit::PipelineObserver observer;
  if (traced) observer.query_stats = &layers.stats;
  const double cpu0 = traced ? ProcessCpuSeconds() : 0.0;
  const double rss1 = traced ? CurrentRssMb() : 0.0;
  Timed materialize_call(log, "index.materialize", job, whole.id());
  auto m = lofkit::NeighborhoodMaterializer::MaterializeParallel(
      *out.data, *out.index, config.ub, config.threads,
      /*distinct_neighbors=*/false, observer);
  int64_t end = materialize_call.End();
  layers.materialize_s = materialize_call.seconds();
  if (traced) {
    layers.materialize_cpu_s = ProcessCpuSeconds() - cpu0;
    layers.materialize_rss_mb = CurrentRssMb() - rss1;
  }
  if (!m.ok()) {
    out.status = m.status();
    Finish(out, whole, ready, end);
    return out;
  }
  out.m = std::make_unique<lofkit::NeighborhoodMaterializer>(
      std::move(m).value());
  if (config.sweep) end = SweepAndRank(out, config, log, job, whole.id());
  Finish(out, whole, ready, end);
  return out;
}

JobOutput RunResweepJob(const std::string& m_path, const JobConfig& config,
                        SpanLog* log, uint64_t job) {
  JobOutput out;
  Timed whole(log, "job", job, 0);
  Timed map_call(log, "common.container_map", job, whole.id());
  auto m = lofkit::NeighborhoodMaterializer::MapFromFile(m_path, nullptr);
  const int64_t ready = map_call.End();
  out.layers.map_s = map_call.seconds();
  if (!m.ok()) {
    out.status = m.status();
    Finish(out, whole, ready, ready);
    return out;
  }
  out.m = std::make_unique<lofkit::NeighborhoodMaterializer>(
      std::move(m).value());
  const int64_t end = SweepAndRank(out, config, log, job, whole.id());
  Finish(out, whole, ready, end);
  return out;
}

}  // namespace lofbench
