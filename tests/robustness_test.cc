// End-to-end robustness coverage: the armed-fail-point error sweep (every
// planted point must propagate a clean Status out of its public entry
// point), pipeline cancellation/deadline behavior, and the memory-budget
// degradation path (bit-identical scores via re-query).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/container_file.h"
#include "common/fail_point.h"
#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/loaders.h"
#include "dataset/metric.h"
#include "index/incremental_materializer.h"
#include "index/index_factory.h"
#include "index/linear_scan_index.h"
#include "lof/lof_sweep.h"
#include "lof/spill.h"

namespace lofkit {
namespace {

Dataset MakeClusteredData(size_t n) {
  Rng rng(20260805);
  auto ds = Dataset::Create(2);
  EXPECT_TRUE(ds.ok());
  Dataset data = std::move(ds).value();
  const std::vector<double> center = {0.0, 0.0};
  EXPECT_TRUE(
      generators::AppendGaussianCluster(data, rng, center, 1.0, n - 2).ok());
  EXPECT_TRUE(data.Append(std::vector<double>{8.0, 8.0}).ok());
  EXPECT_TRUE(data.Append(std::vector<double>{-7.0, 9.0}).ok());
  return data;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/lofkit_robustness_" + name;
}

class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FailPoints::DisarmAll();
    ASSERT_FALSE(FailPoints::AnyArmed());
  }
};

// ---------------------------------------------------------------------------
// Error-path sweep: one driver per planted fail point. Arming the point must
// surface the injected status (same code, message preserved) from the public
// API, with no crash and no partial result.
// ---------------------------------------------------------------------------

struct FailPointDriver {
  const char* point;
  std::function<Status()> run;  // Reaches the point; returns its status.
};

TEST_F(RobustnessTest, EveryPlantedFailPointPropagatesCleanly) {
  const Dataset data = MakeClusteredData(64);
  const std::string csv_path = TempPath("sweep.csv");
  const std::string mat_path = TempPath("sweep.lofm");
  {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("1,2\n3,4\n5,6\n", f);
    std::fclose(f);
  }
  {
    LinearScanIndex index;
    ASSERT_TRUE(index.Build(data, Euclidean()).ok());
    auto m = NeighborhoodMaterializer::Materialize(data, index, 5);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(m->SaveToFile(mat_path).ok());
  }

  const FailPointDriver kDrivers[] = {
      {"csv.read",
       [&] { return DatasetFromCsvFile(csv_path).status(); }},
      {"csv.write",
       [&] {
         CsvTable table;
         table.rows = {{1.0, 2.0}};
         return WriteCsvFile(TempPath("out.csv"), table);
       }},
      {"loaders.row",
       [&] { return DatasetFromCsvFile(csv_path).status(); }},
      {"index.build",
       [&] {
         LinearScanIndex index;
         return index.Build(data, Euclidean());
       }},
      {"materializer.query",
       [&] {
         LinearScanIndex index;
         Status built = index.Build(data, Euclidean());
         if (!built.ok()) return built;
         return NeighborhoodMaterializer::Materialize(data, index, 5)
             .status();
       }},
      {"materialization.save",
       [&] {
         auto m = NeighborhoodMaterializer::LoadFromFile(mat_path, &data);
         if (!m.ok()) return m.status();
         return m->SaveToFile(TempPath("resave.lofm"));
       }},
      {"materialization.load",
       [&] {
         return NeighborhoodMaterializer::LoadFromFile(mat_path, &data)
             .status();
       }},
      {"incremental.insert",
       [&] {
         auto inc = IncrementalMaterializer::Create(MakeClusteredData(16),
                                                    Euclidean(), 3);
         if (!inc.ok()) return inc.status();
         return inc->Insert(std::vector<double>{0.5, 0.5}, "");
       }},
      {"parallel.worker",
       [&] {
         LofComputeOptions options;
         options.threads = 4;
         return LofComputer::ComputeFromScratch(data, Euclidean(), 5,
                                                IndexKind::kLinearScan,
                                                /*distinct=*/false, options)
             .status();
       }},
      {"container.write",
       [&] {
         auto writer = ContainerWriter::Create(TempPath("cw.lofc"), 99, 1);
         if (!writer.ok()) return writer.status();
         Status section = writer->AddSection("payload", "abc", 3);
         if (!section.ok()) return section;
         return writer->Finish();
       }},
      {"container.fsync",
       [&] {
         auto writer = ContainerWriter::Create(TempPath("cw.lofc"), 99, 1);
         if (!writer.ok()) return writer.status();
         Status section = writer->AddSection("payload", "abc", 3);
         if (!section.ok()) return section;
         return writer->Finish();
       }},
      {"container.rename",
       [&] {
         auto writer = ContainerWriter::Create(TempPath("cw.lofc"), 99, 1);
         if (!writer.ok()) return writer.status();
         Status section = writer->AddSection("payload", "abc", 3);
         if (!section.ok()) return section;
         return writer->Finish();
       }},
      {"container.mmap",
       [&] {
         return NeighborhoodMaterializer::MapFromFile(mat_path, &data)
             .status();
       }},
      {"container.verify",
       [&] {
         return NeighborhoodMaterializer::MapFromFile(mat_path, &data)
             .status();
       }},
      {"materialization.map",
       [&] {
         return NeighborhoodMaterializer::MapFromFile(mat_path, &data)
             .status();
       }},
      {"materialization.spill",
       [&] {
         LinearScanIndex index;
         Status built = index.Build(data, Euclidean());
         if (!built.ok()) return built;
         return NeighborhoodMaterializer::MaterializeToFile(
             data, index, 5, /*threads=*/1, /*distinct_neighbors=*/false,
             TempPath("spill.lofc"));
       }},
  };

  for (const FailPointDriver& driver : kDrivers) {
    SCOPED_TRACE(driver.point);
    // Unarmed: the driver must succeed (proves the driver actually works
    // and the injected failure below really comes from the fail point).
    ASSERT_TRUE(driver.run().ok());
    {
      ScopedFailPoint armed(
          driver.point,
          Status::IoError(std::string("injected@") + driver.point));
      Status status = driver.run();
      EXPECT_EQ(status.code(), StatusCode::kIoError);
      EXPECT_NE(status.message().find("injected@"), std::string::npos)
          << "actual message: " << status.message();
      EXPECT_GE(FailPoints::FireCount(driver.point), 1u);
    }
    // Disarmed again: clean.
    EXPECT_TRUE(driver.run().ok());
  }
  std::remove(csv_path.c_str());
  std::remove(mat_path.c_str());
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines through the whole pipeline.
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, PreCancelledTokenStopsComputeFromScratch) {
  const Dataset data = MakeClusteredData(128);
  StopSource source;
  source.RequestStop();
  LofComputeOptions options;
  options.stop = source.token();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    options.threads = threads;
    auto scores = LofComputer::ComputeFromScratch(data, Euclidean(), 5,
                                                  IndexKind::kLinearScan,
                                                  false, options);
    ASSERT_FALSE(scores.ok());
    EXPECT_EQ(scores.status().code(), StatusCode::kCancelled);
  }
}

TEST_F(RobustnessTest, ExpiredDeadlineStopsTheSweep) {
  const Dataset data = MakeClusteredData(128);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 10);
  ASSERT_TRUE(m.ok());
  StopSource source = StopSource::AfterTimeout(std::chrono::nanoseconds(0));
  auto sweep = LofSweep::Run(*m, 2, 10, LofAggregation::kMax,
                             /*keep_per_min_pts=*/false, /*threads=*/2,
                             PipelineObserver{}, source.token());
  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(RobustnessTest, MaterializeHonorsDeadline) {
  const Dataset data = MakeClusteredData(256);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  StopSource source = StopSource::AfterTimeout(std::chrono::nanoseconds(0));
  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto m = NeighborhoodMaterializer::MaterializeParallel(
        data, index, 10, threads, false, PipelineObserver{}, source.token());
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(RobustnessTest, FarDeadlineChangesNothing) {
  const Dataset data = MakeClusteredData(96);
  StopSource source = StopSource::AfterTimeout(std::chrono::hours(1));
  LofComputeOptions plain;
  LofComputeOptions guarded;
  guarded.stop = source.token();
  auto baseline = LofComputer::ComputeFromScratch(
      data, Euclidean(), 5, IndexKind::kLinearScan, false, plain);
  auto watched = LofComputer::ComputeFromScratch(
      data, Euclidean(), 5, IndexKind::kLinearScan, false, guarded);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(watched.ok());
  EXPECT_EQ(baseline->lof, watched->lof);  // bit-identical, not just close
  EXPECT_EQ(baseline->lrd, watched->lrd);
}

// ---------------------------------------------------------------------------
// Budgeted graceful degradation: re-query path equivalence.
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, RequeryMatchesMaterializedBitForBit) {
  const Dataset data = MakeClusteredData(150);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  for (size_t min_pts : {size_t{2}, size_t{7}, size_t{20}}) {
    SCOPED_TRACE(min_pts);
    auto m = NeighborhoodMaterializer::Materialize(data, index, min_pts);
    ASSERT_TRUE(m.ok());
    for (size_t threads : {size_t{1}, size_t{4}}) {
      LofComputeOptions options;
      options.threads = threads;
      auto materialized = LofComputer::Compute(*m, min_pts, options);
      auto requeried =
          LofComputer::ComputeRequery(data, index, min_pts, options);
      ASSERT_TRUE(materialized.ok());
      ASSERT_TRUE(requeried.ok());
      EXPECT_EQ(materialized->lof, requeried->lof);
      EXPECT_EQ(materialized->lrd, requeried->lrd);
      EXPECT_EQ(materialized->has_infinite_lrd,
                requeried->has_infinite_lrd);
    }
  }
}

TEST_F(RobustnessTest, BudgetForcesRequeryWithIdenticalScores) {
  const Dataset data = MakeClusteredData(150);
  LofComputeOptions unbudgeted;
  unbudgeted.threads = 2;
  auto baseline = LofComputer::ComputeFromScratch(
      data, Euclidean(), 8, IndexKind::kLinearScan, false, unbudgeted);
  ASSERT_TRUE(baseline.ok());
  EXPECT_FALSE(baseline->degraded_to_requery);

  LofComputeOptions budgeted = unbudgeted;
  budgeted.memory_budget_bytes = 1024;  // Far below the projected M.
  ASSERT_LT(budgeted.memory_budget_bytes,
            NeighborhoodMaterializer::ProjectedBytes(data.size(), 8));
  auto degraded = LofComputer::ComputeFromScratch(
      data, Euclidean(), 8, IndexKind::kLinearScan, false, budgeted);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded_to_requery);
  EXPECT_EQ(baseline->lof, degraded->lof);
  EXPECT_EQ(baseline->lrd, degraded->lrd);
}

TEST_F(RobustnessTest, GenerousBudgetStaysOnTheMaterializedPath) {
  const Dataset data = MakeClusteredData(64);
  LofComputeOptions options;
  options.memory_budget_bytes = size_t{1} << 30;
  auto scores = LofComputer::ComputeFromScratch(
      data, Euclidean(), 5, IndexKind::kLinearScan, false, options);
  ASSERT_TRUE(scores.ok());
  EXPECT_FALSE(scores->degraded_to_requery);
}

TEST_F(RobustnessTest, RankOutliersDegradesToIdenticalTopN) {
  const Dataset data = MakeClusteredData(150);
  auto baseline = LofSweep::RankOutliers(data, Euclidean(), 3, 9,
                                         /*top_n=*/10);
  ASSERT_TRUE(baseline.ok());

  bool degraded = false;
  LofPipelineOptions pipeline;
  pipeline.memory_budget_bytes = 1024;
  pipeline.degraded_to_requery = &degraded;
  auto budgeted = LofSweep::RankOutliers(
      data, Euclidean(), 3, 9, /*top_n=*/10, IndexKind::kLinearScan,
      LofAggregation::kMax, /*threads=*/2, pipeline);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_TRUE(degraded);
  ASSERT_EQ(baseline->size(), budgeted->size());
  for (size_t i = 0; i < baseline->size(); ++i) {
    EXPECT_EQ((*baseline)[i].index, (*budgeted)[i].index);
    EXPECT_EQ((*baseline)[i].score, (*budgeted)[i].score);
  }
}

TEST_F(RobustnessTest, DistinctModeUnderBudgetIsResourceExhausted) {
  const Dataset data = MakeClusteredData(64);
  LofComputeOptions options;
  options.memory_budget_bytes = 64;  // Guaranteed overflow.
  auto scores = LofComputer::ComputeFromScratch(
      data, Euclidean(), 5, IndexKind::kLinearScan, /*distinct=*/true,
      options);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(RobustnessTest, MaterializerBudgetRefusalIsResourceExhausted) {
  const Dataset data = MakeClusteredData(64);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(
      data, index, 5, false, PipelineObserver{}, StopToken{},
      /*memory_budget_bytes=*/64);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(RobustnessTest, RequeryRejectsDegenerateArguments) {
  const Dataset data = MakeClusteredData(16);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  EXPECT_EQ(LofComputer::ComputeRequery(data, index, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      LofComputer::ComputeRequery(data, index, data.size()).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lofkit
