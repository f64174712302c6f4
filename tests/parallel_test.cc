#include "common/parallel.h"

#include <sched.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/linear_scan_index.h"
#include "lof/lof_sweep.h"

namespace lofkit {
namespace {

TEST(ResolveThreadCountTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(5), 5u);
}

TEST(ResolveThreadCountTest, ZeroMeansTheAffinityMaskCount) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(ResolveThreadCount(0), static_cast<size_t>(CPU_COUNT(&allowed)));

  // Pin a helper thread to one allowed CPU, as taskset or a cpuset cgroup
  // would: the default thread count must follow the mask, not the machine.
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &allowed)) ++first_cpu;
  bool pinned = false;
  size_t pinned_count = 0;
  std::thread helper([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first_cpu, &one);
    pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
    if (pinned) pinned_count = ResolveThreadCount(0);
  });
  helper.join();
  if (!pinned) GTEST_SKIP() << "sched_setaffinity is not permitted here";
  EXPECT_EQ(pinned_count, 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {0u, 1u, 2u, 3u, 16u}) {
    for (size_t n : {0u, 1u, 2u, 7u, 100u}) {
      std::vector<int> hits(n, 0);
      Status status = ParallelFor(n, threads, [&](size_t i) -> Status {
        ++hits[i];  // slot i is owned by exactly one worker
        return Status::OK();
      });
      ASSERT_TRUE(status.ok()) << "threads=" << threads << " n=" << n;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i], 1) << "threads=" << threads << " n=" << n
                              << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, PropagatesAnErrorABodyActuallyReturned) {
  // Every index fails; whichever failure wins the race, the returned error
  // must be one a body really produced (never OK, never synthesized).
  Status status = ParallelFor(100, 4, [&](size_t i) -> Status {
    return Status::Internal("failed at " + std::to_string(i));
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message().rfind("failed at ", 0), 0u) << status;
}

TEST(ParallelForTest, SequentialPathReturnsTheFirstError) {
  // With one worker there is no race: the scan stops at the first failing
  // index and returns exactly its error.
  std::vector<int> hits(100, 0);
  Status status = ParallelFor(100, 1, [&](size_t i) -> Status {
    ++hits[i];
    if (i >= 30) return Status::Internal("failed at " + std::to_string(i));
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "failed at 30");
  for (size_t i = 31; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 0) << i;
  }
}

TEST(ParallelForTest, SingleFailureIsPropagatedFromAnyChunk) {
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    Status status = ParallelFor(100, threads, [&](size_t i) -> Status {
      if (i == 57) return Status::OutOfRange("boom");
      return Status::OK();
    });
    ASSERT_FALSE(status.ok()) << threads;
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << threads;
  }
}

TEST(ParallelForTest, ErrorAbortsTheOtherWorkersEarly) {
  // Worker 0 fails instantly at index 0; every other index sleeps. Without
  // the abort flag the remaining workers would grind through ~4000 slow
  // items; with it they stop at their next index boundary.
  std::atomic<size_t> executed{0};
  const size_t n = 4000;
  Status status = ParallelFor(n, 4, [&](size_t i) -> Status {
    if (i == 0) return Status::Internal("instant failure");
    executed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "instant failure");
  EXPECT_LT(executed.load(), n / 2);
}

// ---------------------------------------------------------------------------
// Cancellation and deadline tokens.
// ---------------------------------------------------------------------------

TEST(ParallelForCancellationTest, PreStoppedTokenRunsNothing) {
  for (size_t threads : {1u, 2u, 4u}) {
    StopSource source;
    source.RequestStop();
    std::atomic<size_t> executed{0};
    Status status =
        ParallelFor(1000, threads, source.token(), [&](size_t) -> Status {
          executed.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        });
    EXPECT_EQ(status.code(), StatusCode::kCancelled) << threads;
    EXPECT_EQ(executed.load(), 0u) << threads;
  }
}

TEST(ParallelForCancellationTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  for (size_t threads : {1u, 2u, 4u}) {
    StopSource source = StopSource::AfterTimeout(std::chrono::nanoseconds(0));
    Status status = ParallelFor(1000, threads, source.token(),
                                [&](size_t) -> Status {
                                  return Status::OK();
                                });
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << threads;
  }
}

TEST(ParallelForCancellationTest, FarDeadlineDoesNotTrip) {
  StopSource source = StopSource::AfterTimeout(std::chrono::hours(1));
  std::vector<int> hits(100, 0);
  Status status = ParallelFor(100, 4, source.token(), [&](size_t i) -> Status {
    ++hits[i];
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelForCancellationTest, MidRunStopAbortsWorkersEarly) {
  StopSource source;
  std::atomic<size_t> executed{0};
  const size_t n = 4000;
  std::thread canceller([&] {
    // Wait for the loop to actually start, then pull the plug.
    while (executed.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    source.RequestStop();
  });
  Status status = ParallelFor(n, 4, source.token(), [&](size_t) -> Status {
    executed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Status::OK();
  });
  canceller.join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_LT(executed.load(), n / 2);
}

TEST(ParallelForCancellationTest, BodyErrorBeatsRacingCancellation) {
  // The body both requests the stop and fails, so a cancellation and a
  // worker error are guaranteed to race; the deterministic choice is the
  // body's error (precedence rule 1 in the parallel.h contract).
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    for (int rep = 0; rep < 20; ++rep) {
      StopSource source;
      Status status =
          ParallelFor(200, threads, source.token(), [&](size_t i) -> Status {
            source.RequestStop();
            return Status::Internal("real failure at " + std::to_string(i));
          });
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInternal)
          << "threads=" << threads << " rep=" << rep
          << " got: " << status.ToString();
    }
  }
}

TEST(ParallelForCancellationTest, CancelledCauseIsLatchedNotMixed) {
  // Once a cause latches (here: explicit cancel), a later deadline expiry
  // must not change the reported code mid-run.
  StopSource source = StopSource::AfterTimeout(std::chrono::milliseconds(5));
  source.RequestStop();  // wins the latch before the deadline can expire
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Status status = ParallelFor(100, 2, source.token(),
                              [&](size_t) -> Status { return Status::OK(); });
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Bit-identical determinism sweep: every stage of the pipeline must produce
// exactly the same results at every thread count, in both neighbor modes.
// ---------------------------------------------------------------------------

class ParallelPipelineTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {
 protected:
  static Dataset MakeWorkload() {
    Rng rng(42);
    auto ds = generators::MakePerformanceWorkload(rng, 3, 400, 4);
    EXPECT_TRUE(ds.ok());
    Dataset data = std::move(ds).value();
    // A few exact duplicates so distinct mode actually diverges from the
    // standard mode (and standard mode exercises infinite-lrd slots).
    std::vector<double> dup(data.point(0).begin(), data.point(0).end());
    EXPECT_TRUE(generators::AppendDuplicates(data, dup, 4).ok());
    return data;
  }

  static void ExpectSameScores(const LofScores& a, const LofScores& b) {
    ASSERT_EQ(a.lrd.size(), b.lrd.size());
    for (size_t i = 0; i < a.lrd.size(); ++i) {
      ASSERT_EQ(a.lrd[i], b.lrd[i]) << "lrd " << i;  // exact, inf included
      ASSERT_EQ(a.lof[i], b.lof[i]) << "lof " << i;
    }
    EXPECT_EQ(a.has_infinite_lrd, b.has_infinite_lrd);
  }
};

TEST_P(ParallelPipelineTest, MaterializeParallelIsBitIdentical) {
  const auto [threads, distinct] = GetParam();
  Dataset data = MakeWorkload();
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto serial =
      NeighborhoodMaterializer::Materialize(data, index, 12, distinct);
  auto parallel = NeighborhoodMaterializer::MaterializeParallel(
      data, index, 12, threads, distinct);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial->total_neighbor_count(), parallel->total_neighbor_count());
  for (size_t i = 0; i < serial->size(); ++i) {
    auto a = serial->neighbors(i);
    auto b = parallel->neighbors(i);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].index, b[j].index);
      ASSERT_EQ(a[j].distance, b[j].distance);
    }
  }
}

TEST_P(ParallelPipelineTest, ComputeIsBitIdentical) {
  const auto [threads, distinct] = GetParam();
  Dataset data = MakeWorkload();
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 12, distinct);
  ASSERT_TRUE(m.ok());
  for (bool use_reachability : {true, false}) {
    auto sequential = LofComputer::Compute(
        *m, 8, {.use_reachability = use_reachability, .threads = 1});
    auto parallel = LofComputer::Compute(
        *m, 8, {.use_reachability = use_reachability, .threads = threads});
    ASSERT_TRUE(sequential.ok() && parallel.ok());
    ExpectSameScores(*sequential, *parallel);
  }
}

TEST_P(ParallelPipelineTest, SweepRunIsBitIdentical) {
  const auto [threads, distinct] = GetParam();
  Dataset data = MakeWorkload();
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 12, distinct);
  ASSERT_TRUE(m.ok());
  // The mean aggregation is the most order-sensitive accumulation; max is
  // the paper's default; a single-step range routes threads into the scans.
  for (LofAggregation aggregation :
       {LofAggregation::kMax, LofAggregation::kMean}) {
    for (auto [lb, ub] : {std::pair<size_t, size_t>{4, 12},
                          std::pair<size_t, size_t>{9, 9}}) {
      auto sequential = LofSweep::Run(*m, lb, ub, aggregation,
                                      /*keep_per_min_pts=*/true, 1);
      auto parallel = LofSweep::Run(*m, lb, ub, aggregation,
                                    /*keep_per_min_pts=*/true, threads);
      ASSERT_TRUE(sequential.ok() && parallel.ok());
      ASSERT_EQ(sequential->aggregated.size(), parallel->aggregated.size());
      for (size_t i = 0; i < sequential->aggregated.size(); ++i) {
        ASSERT_EQ(sequential->aggregated[i], parallel->aggregated[i])
            << "aggregated " << i;
      }
      ASSERT_EQ(sequential->per_min_pts.size(), parallel->per_min_pts.size());
      for (size_t s = 0; s < sequential->per_min_pts.size(); ++s) {
        ExpectSameScores(sequential->per_min_pts[s], parallel->per_min_pts[s]);
      }
    }
  }
}

TEST_P(ParallelPipelineTest, EndToEndPipelinesAreBitIdentical) {
  const auto [threads, distinct] = GetParam();
  Dataset data = MakeWorkload();
  auto sequential = LofComputer::ComputeFromScratch(
      data, Euclidean(), 8, IndexKind::kLinearScan, distinct, {.threads = 1});
  auto parallel = LofComputer::ComputeFromScratch(
      data, Euclidean(), 8, IndexKind::kLinearScan, distinct,
      {.threads = threads});
  ASSERT_TRUE(sequential.ok() && parallel.ok());
  ExpectSameScores(*sequential, *parallel);

  auto ranked_sequential =
      LofSweep::RankOutliers(data, Euclidean(), 4, 12, 0,
                             IndexKind::kLinearScan, LofAggregation::kMax, 1);
  auto ranked_parallel = LofSweep::RankOutliers(
      data, Euclidean(), 4, 12, 0, IndexKind::kLinearScan,
      LofAggregation::kMax, threads);
  ASSERT_TRUE(ranked_sequential.ok() && ranked_parallel.ok());
  ASSERT_EQ(ranked_sequential->size(), ranked_parallel->size());
  for (size_t i = 0; i < ranked_sequential->size(); ++i) {
    ASSERT_EQ((*ranked_sequential)[i].index, (*ranked_parallel)[i].index);
    ASSERT_EQ((*ranked_sequential)[i].score, (*ranked_parallel)[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndModes, ParallelPipelineTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 7),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ParallelPipelineTest::ParamType>& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_distinct" : "_standard");
    });

// ---------------------------------------------------------------------------
// Error propagation through the parallel materialization.
// ---------------------------------------------------------------------------

/// Delegates to a LinearScanIndex but fails every query whose excluded
/// (self) index is >= fail_from — a deterministic mid-run failure.
class FailingIndex : public KnnIndex {
 public:
  explicit FailingIndex(uint32_t fail_from) : fail_from_(fail_from) {}

  Status Build(const Dataset& data, const Metric& metric) override {
    return inner_.Build(data, metric);
  }

  using KnnIndex::Query;
  using KnnIndex::QueryRadius;
  Status Query(std::span<const double> query, size_t k,
               std::optional<uint32_t> exclude,
               KnnSearchContext& ctx) const override {
    if (exclude.has_value() && *exclude >= fail_from_) {
      return Status::Internal("synthetic query failure");
    }
    return inner_.Query(query, k, exclude, ctx);
  }

  Status QueryRadius(std::span<const double> query, double radius,
                     std::optional<uint32_t> exclude,
                     KnnSearchContext& ctx) const override {
    return inner_.QueryRadius(query, radius, exclude, ctx);
  }

  const Dataset* dataset() const override { return inner_.dataset(); }

  std::string_view name() const override { return "failing"; }

 private:
  LinearScanIndex inner_;
  uint32_t fail_from_;
};

TEST(MaterializeParallelTest, WorkerFailureIsPropagatedNotSwallowed) {
  Rng rng(13);
  auto ds = generators::MakePerformanceWorkload(rng, 2, 200, 2);
  ASSERT_TRUE(ds.ok());
  FailingIndex index(/*fail_from=*/150);
  ASSERT_TRUE(index.Build(*ds, Euclidean()).ok());
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    auto m = NeighborhoodMaterializer::MaterializeParallel(*ds, index, 10,
                                                           threads);
    ASSERT_FALSE(m.ok()) << threads;
    EXPECT_EQ(m.status().code(), StatusCode::kInternal) << threads;
    EXPECT_EQ(m.status().message(), "synthetic query failure") << threads;
  }
}

}  // namespace
}  // namespace lofkit
