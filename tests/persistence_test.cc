// Crash-safety and spill coverage for the persistence subsystem: the
// corruption matrix over saved materializations (truncations and bit
// flips must surface clean typed Statuses, never crashes), bit-identity
// of every M route (in-RAM, reloaded, mmap'ed, spill-built) and of the
// LOF scores computed over them at several thread counts, the
// spill-and-keep-going rung of the memory-budget ladder, and the VA-file
// signature-table round trip.

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/fail_point.h"
#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/linear_scan_index.h"
#include "index/neighborhood_materializer.h"
#include "lof/lof_computer.h"
#include "lof/lof_sweep.h"
#include "lof/spill.h"

namespace lofkit {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/lofkit_persistence_" + name;
}

Dataset MakeClusteredData(size_t n, uint64_t seed = 20260809) {
  Rng rng(seed);
  auto ds = Dataset::Create(3);
  EXPECT_TRUE(ds.ok());
  Dataset data = std::move(ds).value();
  const std::vector<double> center = {0.0, 0.0, 0.0};
  EXPECT_TRUE(
      generators::AppendGaussianCluster(data, rng, center, 1.0, n - 2).ok());
  EXPECT_TRUE(data.Append(std::vector<double>{9.0, 9.0, 9.0}).ok());
  EXPECT_TRUE(data.Append(std::vector<double>{-8.0, 7.0, -9.0}).ok());
  return data;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Bitwise comparison: the acceptance bar is bit-identical doubles, not
// approximate equality.
void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

void ExpectSameMaterialization(const NeighborhoodMaterializer& a,
                               const NeighborhoodMaterializer& b,
                               const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.k_max(), b.k_max()) << what;
  ASSERT_EQ(a.total_neighbor_count(), b.total_neighbor_count()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    auto la = a.neighbors(i);
    auto lb = b.neighbors(i);
    ASSERT_EQ(la.size(), lb.size()) << what << " point " << i;
    for (size_t j = 0; j < la.size(); ++j) {
      ASSERT_EQ(la[j].index, lb[j].index) << what << " point " << i;
      const double da = la[j].distance;
      const double db = lb[j].distance;
      ASSERT_EQ(std::memcmp(&da, &db, sizeof(double)), 0)
          << what << " point " << i << " slot " << j;
    }
  }
}

class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FailPoints::DisarmAll();
    ASSERT_FALSE(FailPoints::AnyArmed());
  }
};

// ---------------------------------------------------------------------------
// Every route to M serves the same bits.
// ---------------------------------------------------------------------------

TEST_F(PersistenceTest, AllRoutesToMAreBitIdentical) {
  const Dataset data = MakeClusteredData(200);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto in_ram = NeighborhoodMaterializer::Materialize(data, index, 10);
  ASSERT_TRUE(in_ram.ok());

  const std::string saved_path = TempPath("routes_saved.lofc");
  ASSERT_TRUE(in_ram->SaveToFile(saved_path).ok());
  auto reloaded = NeighborhoodMaterializer::LoadFromFile(saved_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_FALSE(reloaded->file_backed());
  ExpectSameMaterialization(*in_ram, *reloaded, "reloaded");

  auto mapped = NeighborhoodMaterializer::MapFromFile(saved_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->file_backed());
  ExpectSameMaterialization(*in_ram, *mapped, "mapped");

  // Spill-built files (streamed windows, any thread count) hold the same
  // bits as the in-RAM build.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    SCOPED_TRACE(threads);
    const std::string spill_path = TempPath("routes_spill.lofc");
    ASSERT_TRUE(NeighborhoodMaterializer::MaterializeToFile(
                    data, index, 10, threads, /*distinct_neighbors=*/false,
                    spill_path)
                    .ok());
    auto spilled = NeighborhoodMaterializer::MapFromFile(spill_path);
    ASSERT_TRUE(spilled.ok()) << spilled.status();
    ExpectSameMaterialization(*in_ram, *spilled, "spill-built");
    std::remove(spill_path.c_str());
  }
  std::remove(saved_path.c_str());
}

TEST_F(PersistenceTest, MappedMServesBitIdenticalLofScores) {
  const Dataset data = MakeClusteredData(180);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto in_ram = NeighborhoodMaterializer::Materialize(data, index, 12);
  ASSERT_TRUE(in_ram.ok());
  const std::string path = TempPath("scores.lofc");
  ASSERT_TRUE(in_ram->SaveToFile(path).ok());
  auto mapped = NeighborhoodMaterializer::MapFromFile(path);
  ASSERT_TRUE(mapped.ok());

  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    SCOPED_TRACE(threads);
    LofComputeOptions options;
    options.threads = threads;
    auto ram_scores = LofComputer::Compute(*in_ram, 8, options);
    auto map_scores = LofComputer::Compute(*mapped, 8, options);
    ASSERT_TRUE(ram_scores.ok() && map_scores.ok());
    ExpectBitIdentical(ram_scores->lof, map_scores->lof, "lof");
    ExpectBitIdentical(ram_scores->lrd, map_scores->lrd, "lrd");
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The spill rung of the memory-budget ladder.
// ---------------------------------------------------------------------------

TEST_F(PersistenceTest, SpillRungMatchesInRamScoresAtEveryThreadCount) {
  const Dataset data = MakeClusteredData(220);
  LofComputeOptions unbudgeted;
  auto want = LofComputer::ComputeFromScratch(data, Euclidean(), 9,
                                              IndexKind::kLinearScan,
                                              /*distinct=*/false, unbudgeted);
  ASSERT_TRUE(want.ok());

  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    SCOPED_TRACE(threads);
    LofComputeOptions options;
    options.threads = threads;
    options.memory_budget_bytes = 1;  // everything overflows
    options.spill_directory = ::testing::TempDir();
    auto got = LofComputer::ComputeFromScratch(data, Euclidean(), 9,
                                               IndexKind::kLinearScan,
                                               /*distinct=*/false, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->spilled_to_disk);
    EXPECT_FALSE(got->degraded_to_requery);
    ExpectBitIdentical(want->lof, got->lof, "lof");
    ExpectBitIdentical(want->lrd, got->lrd, "lrd");
  }
}

TEST_F(PersistenceTest, SpillRungServesDistinctMode) {
  // Distinct-neighbors mode has no re-query fallback; the spill rung is
  // the only way a budgeted distinct run can proceed.
  auto ds = Dataset::Create(2);
  ASSERT_TRUE(ds.ok());
  Dataset data = std::move(ds).value();
  const double p[2] = {1.0, 1.0};
  ASSERT_TRUE(generators::AppendDuplicates(data, p, 6).ok());
  Rng rng(11);
  const double lo[2] = {0, 0};
  const double hi[2] = {10, 10};
  ASSERT_TRUE(generators::AppendUniformBox(data, rng, lo, hi, 80).ok());

  LofComputeOptions unbudgeted;
  auto want = LofComputer::ComputeFromScratch(data, Euclidean(), 5,
                                              IndexKind::kLinearScan,
                                              /*distinct=*/true, unbudgeted);
  ASSERT_TRUE(want.ok());

  LofComputeOptions options;
  options.memory_budget_bytes = 1;
  auto refused = LofComputer::ComputeFromScratch(data, Euclidean(), 5,
                                                 IndexKind::kLinearScan,
                                                 /*distinct=*/true, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  options.spill_directory = ::testing::TempDir();
  auto got = LofComputer::ComputeFromScratch(data, Euclidean(), 5,
                                             IndexKind::kLinearScan,
                                             /*distinct=*/true, options);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->spilled_to_disk);
  ExpectBitIdentical(want->lof, got->lof, "lof");
}

TEST_F(PersistenceTest, FailedSpillFallsBackToRequeryWithSameBits) {
  const Dataset data = MakeClusteredData(150);
  LofComputeOptions unbudgeted;
  auto want = LofComputer::ComputeFromScratch(data, Euclidean(), 6,
                                              IndexKind::kLinearScan,
                                              /*distinct=*/false, unbudgeted);
  ASSERT_TRUE(want.ok());

  LofComputeOptions options;
  options.memory_budget_bytes = 1;
  options.spill_directory = ::testing::TempDir();
  {
    ScopedFailPoint armed("materialization.spill",
                          Status::IoError("injected disk full"));
    auto got = LofComputer::ComputeFromScratch(data, Euclidean(), 6,
                                               IndexKind::kLinearScan,
                                               /*distinct=*/false, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(got->spilled_to_disk);
    EXPECT_TRUE(got->degraded_to_requery);
    ExpectBitIdentical(want->lof, got->lof, "lof");
  }
  // Cancellation during the spill is a real stop request, not a disk
  // problem: it must propagate, not silently restart on the requery rung.
  {
    ScopedFailPoint armed("materialization.spill", Status::Cancelled("stop"));
    auto got = LofComputer::ComputeFromScratch(data, Euclidean(), 6,
                                               IndexKind::kLinearScan,
                                               /*distinct=*/false, options);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  }
}

TEST_F(PersistenceTest, RankOutliersSpillRungKeepsPruneAndRanking) {
  const Dataset data = MakeClusteredData(240);
  auto want = LofSweep::RankOutliers(data, Euclidean(), 4, 9, /*top_n=*/10);
  ASSERT_TRUE(want.ok());

  for (const bool prune : {false, true}) {
    SCOPED_TRACE(prune ? "pruned" : "unpruned");
    LofPipelineOptions pipeline;
    pipeline.memory_budget_bytes = 1;
    pipeline.spill_directory = ::testing::TempDir();
    pipeline.prune = prune;
    bool spilled = false;
    bool degraded = false;
    pipeline.spilled_to_disk = &spilled;
    pipeline.degraded_to_requery = &degraded;
    LofSweepResult::PruneSummary summary;
    pipeline.prune_summary = &summary;
    auto got = LofSweep::RankOutliers(data, Euclidean(), 4, 9, /*top_n=*/10,
                                      IndexKind::kLinearScan,
                                      LofAggregation::kMax, /*threads=*/2,
                                      pipeline);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(spilled);
    EXPECT_FALSE(degraded);
    // The §5 prune stage ran on the spill rung — the whole point of
    // keeping a real (file-backed) M instead of falling to re-query.
    EXPECT_EQ(summary.applied, prune);
    ASSERT_EQ(got->size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].index, (*want)[i].index) << i;
      const double a = (*got)[i].score;
      const double b = (*want)[i].score;
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Corruption matrix: a hostile file can refuse to load, never crash.
// ---------------------------------------------------------------------------

TEST_F(PersistenceTest, CorruptionMatrixTruncationsAndFlips) {
  const Dataset data = MakeClusteredData(120);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 8);
  ASSERT_TRUE(m.ok());
  const std::string path = TempPath("matrix.lofc");
  ASSERT_TRUE(m->SaveToFile(path).ok());
  const std::vector<char> full = ReadAll(path);
  const std::string hostile = TempPath("matrix_hostile.lofc");

  // Truncation at every byte: both the copying loader and the mmap loader
  // must return a clean InvalidArgument (magic sniffing of a <4-byte file
  // is also InvalidArgument), never crash or OOM.
  for (size_t cut = 0; cut < full.size(); cut += 1) {
    WriteAll(hostile, std::vector<char>(full.begin(), full.begin() + cut));
    auto loaded = NeighborhoodMaterializer::LoadFromFile(hostile);
    ASSERT_FALSE(loaded.ok()) << "cut " << cut;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "cut " << cut << ": " << loaded.status();
    auto mapped = NeighborhoodMaterializer::MapFromFile(hostile);
    ASSERT_FALSE(mapped.ok()) << "cut " << cut;
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument)
        << "cut " << cut;
  }

  // One flipped bit in every byte: caught by a seal (InvalidArgument) or,
  // for the uncovered alignment padding, harmless — the load must then
  // succeed with the original bits.
  for (size_t byte = 0; byte < full.size(); ++byte) {
    std::vector<char> corrupt = full;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x04);
    WriteAll(hostile, corrupt);
    auto loaded = NeighborhoodMaterializer::LoadFromFile(hostile);
    if (loaded.ok()) {
      ASSERT_EQ(full[byte], 0) << "undetected flip in byte " << byte;
      ExpectSameMaterialization(*m, *loaded, "padding flip");
      continue;
    }
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "byte " << byte << ": " << loaded.status();
  }

  // The clean file still loads after the whole gauntlet.
  auto reloaded = NeighborhoodMaterializer::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok());
  ExpectSameMaterialization(*m, *reloaded, "clean reload");
  std::remove(path.c_str());
  std::remove(hostile.c_str());
}

// ---------------------------------------------------------------------------
// Spill helper hygiene.
// ---------------------------------------------------------------------------

TEST_F(PersistenceTest, SpillMaterializeLeavesNoFilesBehind) {
  const Dataset data = MakeClusteredData(100);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  // A private spill directory so the file census is exact.
  const std::string dir = TempPath("spill_dir");
  std::remove(dir.c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);

  auto spilled = internal_lof::SpillMaterialize(data, index, 6, /*threads=*/2,
                                                /*distinct_neighbors=*/false,
                                                dir);
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_TRUE(spilled->file_backed());
  EXPECT_EQ(spilled->size(), data.size());
  // The backing file is unlinked immediately after mmap (POSIX keeps the
  // mapping alive), so the directory is already empty while the
  // materializer is still serving neighborhoods.
  auto in_ram = NeighborhoodMaterializer::Materialize(data, index, 6);
  ASSERT_TRUE(in_ram.ok());
  ExpectSameMaterialization(*in_ram, *spilled, "post-unlink serving");
  EXPECT_EQ(::rmdir(dir.c_str()), 0)
      << "spill directory not empty: " << std::strerror(errno);
}

}  // namespace
}  // namespace lofkit
