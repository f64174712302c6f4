#include "index/neighborhood_materializer.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "common/container_file.h"
#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/linear_scan_index.h"

namespace lofkit {
namespace {

Dataset MakeLine(size_t n) {
  // Points at x = 0, 1, 2, ..., n-1 — hand-checkable neighborhoods.
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  auto ds = Dataset::FromRowMajor(1, std::move(values));
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

NeighborhoodMaterializer MaterializeLine(const Dataset& data, size_t k,
                                         bool distinct = false) {
  static LinearScanIndex index;  // rebuilt per call below
  EXPECT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, k, distinct);
  EXPECT_TRUE(m.ok()) << m.status();
  return std::move(m).value();
}

TEST(MaterializerTest, RejectsDegenerateParameters) {
  Dataset data = MakeLine(10);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  EXPECT_FALSE(NeighborhoodMaterializer::Materialize(data, index, 0).ok());
  EXPECT_FALSE(NeighborhoodMaterializer::Materialize(data, index, 10).ok());
  EXPECT_TRUE(NeighborhoodMaterializer::Materialize(data, index, 9).ok());
}

TEST(MaterializerTest, StoresSortedNeighborhoods) {
  Dataset data = MakeLine(20);
  auto m = MaterializeLine(data, 5);
  EXPECT_EQ(m.size(), 20u);
  EXPECT_EQ(m.k_max(), 5u);
  for (size_t i = 0; i < m.size(); ++i) {
    auto list = m.neighbors(i);
    ASSERT_GE(list.size(), 5u);
    for (size_t j = 1; j < list.size(); ++j) {
      EXPECT_LE(list[j - 1].distance, list[j].distance);
    }
  }
}

TEST(MaterializerTest, ViewMatchesHandComputedLine) {
  Dataset data = MakeLine(10);
  auto m = MaterializeLine(data, 4);
  // Point 0: neighbors 1,2,3,4 at distances 1,2,3,4.
  auto view = m.View(0, 3);
  ASSERT_TRUE(view.ok());
  EXPECT_DOUBLE_EQ(view->k_distance, 3.0);
  ASSERT_EQ(view->neighborhood.size(), 3u);
  EXPECT_EQ(view->neighborhood[0].index, 1u);
  // Point 5 (interior): 1-NN are 4 and 6 (tie at distance 1).
  view = m.View(5, 1);
  ASSERT_TRUE(view.ok());
  EXPECT_DOUBLE_EQ(view->k_distance, 1.0);
  EXPECT_EQ(view->neighborhood.size(), 2u);  // tie included (Definition 4)
}

TEST(MaterializerTest, TiesExtendNeighborhoodBeyondK) {
  Dataset data = MakeLine(11);
  auto m = MaterializeLine(data, 4);
  // Interior point 5: distances 1,1,2,2,3,3,... k=3 -> k-distance 2,
  // neighborhood holds 4 points.
  auto view = m.View(5, 3);
  ASSERT_TRUE(view.ok());
  EXPECT_DOUBLE_EQ(view->k_distance, 2.0);
  EXPECT_EQ(view->neighborhood.size(), 4u);
}

TEST(MaterializerTest, ViewErrorsOutOfRange) {
  Dataset data = MakeLine(10);
  auto m = MaterializeLine(data, 4);
  EXPECT_EQ(m.View(0, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m.View(0, 5).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m.View(99, 2).status().code(), StatusCode::kNotFound);
}

TEST(MaterializerTest, DuplicatesGiveZeroKDistanceInStandardMode) {
  auto data_or = Dataset::Create(2);
  ASSERT_TRUE(data_or.ok());
  Dataset data = std::move(data_or).value();
  const double p[2] = {1.0, 1.0};
  ASSERT_TRUE(generators::AppendDuplicates(data, p, 5).ok());
  const double q[2] = {5.0, 5.0};
  ASSERT_TRUE(data.Append(q).ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 3);
  ASSERT_TRUE(m.ok());
  auto view = m->View(0, 3);
  ASSERT_TRUE(view.ok());
  EXPECT_DOUBLE_EQ(view->k_distance, 0.0);  // three exact duplicates
}

TEST(MaterializerTest, DistinctModeSkipsDuplicatesForKDistance) {
  auto data_or = Dataset::Create(2);
  ASSERT_TRUE(data_or.ok());
  Dataset data = std::move(data_or).value();
  const double p[2] = {1.0, 1.0};
  ASSERT_TRUE(generators::AppendDuplicates(data, p, 5).ok());
  const double q[2] = {5.0, 5.0};
  const double r[2] = {6.0, 6.0};
  ASSERT_TRUE(data.Append(q).ok());
  ASSERT_TRUE(data.Append(r).ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 3,
                                                 /*distinct=*/true);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->distinct_neighbors());
  // For a duplicate of p: group 1 = the other duplicates (distance 0),
  // groups 2 and 3 = q and r. 3-distinct-distance = d(p, r).
  auto view = m->View(0, 3);
  ASSERT_TRUE(view.ok());
  EXPECT_GT(view->k_distance, 0.0);
  EXPECT_DOUBLE_EQ(view->k_distance, Euclidean().Distance(data.point(0),
                                                          data.point(6)));
  // The neighborhood still contains the duplicates.
  EXPECT_EQ(view->neighborhood.size(), 6u);
}

TEST(MaterializerTest, DistinctModeErrorsWhenTooFewDistinctPoints) {
  auto data_or = Dataset::Create(1);
  ASSERT_TRUE(data_or.ok());
  Dataset data = std::move(data_or).value();
  const double a[1] = {0.0};
  const double b[1] = {1.0};
  ASSERT_TRUE(generators::AppendDuplicates(data, a, 4).ok());
  ASSERT_TRUE(generators::AppendDuplicates(data, b, 4).ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 3,
                                                 /*distinct=*/true);
  ASSERT_TRUE(m.ok());
  // Only 2 distinct coordinate groups exist; k=3 distinct is impossible.
  EXPECT_EQ(m->View(0, 3).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(m->View(0, 2).ok());
}

TEST(MaterializerTest, ParallelMatchesSerial) {
  Rng rng(9);
  auto ds = generators::MakePerformanceWorkload(rng, 3, 400, 4);
  ASSERT_TRUE(ds.ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(*ds, Euclidean()).ok());
  auto serial = NeighborhoodMaterializer::Materialize(*ds, index, 12);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u, 7u}) {
    auto parallel = NeighborhoodMaterializer::MaterializeParallel(
        *ds, index, 12, threads);
    ASSERT_TRUE(parallel.ok()) << threads;
    ASSERT_EQ(parallel->total_neighbor_count(),
              serial->total_neighbor_count());
    for (size_t i = 0; i < serial->size(); ++i) {
      auto a = serial->neighbors(i);
      auto b = parallel->neighbors(i);
      ASSERT_EQ(a.size(), b.size()) << "threads " << threads;
      for (size_t j = 0; j < a.size(); ++j) {
        ASSERT_EQ(a[j].index, b[j].index);
        ASSERT_DOUBLE_EQ(a[j].distance, b[j].distance);
      }
    }
  }
}

TEST(MaterializerTest, ParallelDistinctModeMatchesSerial) {
  auto data_or = Dataset::Create(2);
  ASSERT_TRUE(data_or.ok());
  Dataset data = std::move(data_or).value();
  const double p[2] = {1.0, 1.0};
  ASSERT_TRUE(generators::AppendDuplicates(data, p, 6).ok());
  Rng rng(10);
  const double lo[2] = {0, 0};
  const double hi[2] = {10, 10};
  ASSERT_TRUE(generators::AppendUniformBox(data, rng, lo, hi, 60).ok());
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto serial = NeighborhoodMaterializer::Materialize(data, index, 5, true);
  auto parallel = NeighborhoodMaterializer::MaterializeParallel(
      data, index, 5, 3, true);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial->total_neighbor_count(),
            parallel->total_neighbor_count());
}

TEST(MaterializerTest, SaveLoadRoundTrip) {
  Dataset data = MakeLine(30);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 6);
  ASSERT_TRUE(m.ok());
  const std::string path = ::testing::TempDir() + "/lofkit_m_roundtrip.bin";
  ASSERT_TRUE(m->SaveToFile(path).ok());
  auto loaded = NeighborhoodMaterializer::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), m->size());
  EXPECT_EQ(loaded->k_max(), m->k_max());
  EXPECT_EQ(loaded->total_neighbor_count(), m->total_neighbor_count());
  for (size_t i = 0; i < m->size(); ++i) {
    auto original = m->neighbors(i);
    auto restored = loaded->neighbors(i);
    ASSERT_EQ(original.size(), restored.size());
    for (size_t j = 0; j < original.size(); ++j) {
      EXPECT_EQ(original[j].index, restored[j].index);
      EXPECT_DOUBLE_EQ(original[j].distance, restored[j].distance);
    }
  }
  std::remove(path.c_str());
}

TEST(MaterializerTest, LoadedFileDrivesStepTwoWithoutTheDataset) {
  // The core claim of section 7.4: step 2 needs only M, not D.
  Dataset data = MakeLine(40);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 8);
  ASSERT_TRUE(m.ok());
  const std::string path = ::testing::TempDir() + "/lofkit_m_step2.bin";
  ASSERT_TRUE(m->SaveToFile(path).ok());
  auto loaded = NeighborhoodMaterializer::LoadFromFile(path);  // no dataset
  ASSERT_TRUE(loaded.ok());
  auto view_orig = m->View(5, 4);
  auto view_loaded = loaded->View(5, 4);
  ASSERT_TRUE(view_orig.ok() && view_loaded.ok());
  EXPECT_DOUBLE_EQ(view_orig->k_distance, view_loaded->k_distance);
  EXPECT_EQ(view_orig->neighborhood.size(), view_loaded->neighborhood.size());
  std::remove(path.c_str());
}

TEST(MaterializerTest, LoadRejectsGarbageAndMismatches) {
  const std::string path = ::testing::TempDir() + "/lofkit_m_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a materialization";
  }
  EXPECT_EQ(NeighborhoodMaterializer::LoadFromFile(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  EXPECT_EQ(NeighborhoodMaterializer::LoadFromFile("/no/such/file")
                .status()
                .code(),
            StatusCode::kIoError);

  // Distinct-mode files require the dataset; size mismatches are rejected.
  Dataset data = MakeLine(20);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 4,
                                                 /*distinct=*/true);
  ASSERT_TRUE(m.ok());
  const std::string distinct_path =
      ::testing::TempDir() + "/lofkit_m_distinct.bin";
  ASSERT_TRUE(m->SaveToFile(distinct_path).ok());
  EXPECT_FALSE(NeighborhoodMaterializer::LoadFromFile(distinct_path).ok());
  Dataset other = MakeLine(7);
  EXPECT_FALSE(
      NeighborhoodMaterializer::LoadFromFile(distinct_path, &other).ok());
  auto restored =
      NeighborhoodMaterializer::LoadFromFile(distinct_path, &data);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->distinct_neighbors());
  std::remove(distinct_path.c_str());
}

// Writes a sealed materialization container with SaveToFile's sections
// (meta, offsets, neighbors) but arbitrary, possibly invalid, neighbor lists.
// The CRCs are valid, so only the structural validation can reject the file.
// `claimed_n` / `claimed_entries` replace the true counts in the meta section.
void WriteRawMaterialization(
    const std::string& path, uint64_t k_max,
    const std::vector<std::vector<Neighbor>>& lists,
    std::optional<uint64_t> claimed_n = std::nullopt,
    std::optional<uint64_t> claimed_entries = std::nullopt) {
  auto writer = ContainerWriter::Create(path, /*file_type=*/1,
                                        /*file_version=*/2);
  ASSERT_TRUE(writer.ok()) << writer.status();
  std::vector<uint64_t> offsets = {0};
  std::vector<unsigned char> records;
  for (const auto& list : lists) {
    for (const Neighbor& neighbor : list) {
      unsigned char record[16] = {};
      std::memcpy(record, &neighbor.index, 4);
      std::memcpy(record + 8, &neighbor.distance, 8);
      records.insert(records.end(), record, record + 16);
    }
    offsets.push_back(offsets.back() + list.size());
  }
  // meta: k_max u64 | n u64 | entry_count u64 | distinct u8 | 7 zero bytes.
  const uint64_t meta_words[3] = {k_max, claimed_n.value_or(lists.size()),
                                  claimed_entries.value_or(offsets.back())};
  unsigned char meta[32] = {};
  std::memcpy(meta, meta_words, sizeof(meta_words));
  ASSERT_TRUE(writer->AddSection("meta", meta, sizeof(meta)).ok());
  ASSERT_TRUE(writer
                  ->AddSection("offsets", offsets.data(),
                               offsets.size() * sizeof(uint64_t))
                  .ok());
  ASSERT_TRUE(
      writer->AddSection("neighbors", records.data(), records.size()).ok());
  ASSERT_TRUE(writer->Finish().ok());
}

// Both load routes must reject `path` with kInvalidArgument and a message
// containing `needle`.
void ExpectBothLoadsReject(const std::string& path, std::string_view needle) {
  auto loaded = NeighborhoodMaterializer::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
      << loaded.status();
  auto mapped = NeighborhoodMaterializer::MapFromFile(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mapped.status().message(), loaded.status().message());
}

TEST(MaterializerTest, LoadRejectsUnsortedNeighborLists) {
  // Regression: a structurally decodable file with an unsorted list used to
  // load fine and then silently break View()'s equal-distance-run walk.
  const std::string path = ::testing::TempDir() + "/lofkit_m_unsorted.bin";
  WriteRawMaterialization(path, 2,
                          {{{1, 2.0}, {2, 1.0}},    // distances out of order
                           {{0, 1.0}, {2, 2.0}},
                           {{0, 1.0}, {1, 2.0}}});
  ExpectBothLoadsReject(path, "not sorted");

  // Equal distances must also be ordered by ascending index.
  WriteRawMaterialization(path, 2,
                          {{{2, 1.0}, {1, 1.0}},
                           {{0, 1.0}, {2, 2.0}},
                           {{0, 1.0}, {1, 2.0}}});
  ExpectBothLoadsReject(path, "not sorted");
  std::remove(path.c_str());
}

TEST(MaterializerTest, LoadRejectsNonFiniteDistances) {
  const std::string path = ::testing::TempDir() + "/lofkit_m_nonfinite.bin";
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0};
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    WriteRawMaterialization(path, 2,
                            {{{1, 1.0}, {2, bad}},
                             {{0, 1.0}, {2, 2.0}},
                             {{0, 1.0}, {1, 2.0}}});
    ExpectBothLoadsReject(path, "non-finite or negative distance");
  }
  std::remove(path.c_str());
}

TEST(MaterializerTest, LoadStillRejectsOutOfRangeNeighborIndexes) {
  const std::string path = ::testing::TempDir() + "/lofkit_m_badindex.bin";
  WriteRawMaterialization(path, 2,
                          {{{1, 1.0}, {9, 2.0}},    // index 9 of n=3
                           {{0, 1.0}, {2, 2.0}},
                           {{0, 1.0}, {1, 2.0}}});
  ExpectBothLoadsReject(path, "out-of-range index 9");
  std::remove(path.c_str());
}

const std::vector<std::vector<Neighbor>> kValidLists = {
    {{1, 1.0}, {2, 2.0}}, {{0, 1.0}, {2, 1.0}}, {{1, 1.0}, {0, 2.0}}};

TEST(MaterializerTest, HostileHeaderCountsAreBoundedByTheFileSize) {
  // A sealed file whose meta claims n = 2^61 points is refused by comparing
  // the claim with the offsets section's real size, before any allocation
  // is sized from it.
  const std::string path = ::testing::TempDir() + "/lofkit_m_hostile_n.bin";
  WriteRawMaterialization(path, 2, kValidLists, uint64_t{1} << 61);
  ExpectBothLoadsReject(path, "offsets section size disagrees");

  // n + 1 overflowing to zero must not sneak past the bound either.
  WriteRawMaterialization(path, 2, kValidLists, ~uint64_t{0});
  ExpectBothLoadsReject(path, "offsets section size disagrees");

  // The untouched lists load, so the claims above are what was refused.
  WriteRawMaterialization(path, 2, kValidLists);
  EXPECT_TRUE(NeighborhoodMaterializer::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(MaterializerTest, HostileOffsetsAreBoundedByTheFileSize) {
  // The sibling hole: an entry count far beyond what the neighbors section
  // holds, including one whose byte size overflows 64 bits.
  const std::string path =
      ::testing::TempDir() + "/lofkit_m_hostile_offsets.bin";
  for (uint64_t entries : {uint64_t{1} << 40, uint64_t{1} << 61}) {
    SCOPED_TRACE(entries);
    WriteRawMaterialization(path, 2, kValidLists, std::nullopt, entries);
    ExpectBothLoadsReject(path, "neighbors section size disagrees");
  }
  std::remove(path.c_str());
}

TEST(MaterializerTest, LoadRejectsTheRetiredLofmFormat) {
  // The pre-container "LOFM" blob is no longer read: its magic fails the
  // sniff like any other foreign file, before any header count is trusted.
  const std::string path = ::testing::TempDir() + "/lofkit_m_lofm.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("LOFM", 4);
    const uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const uint64_t k_max = 4;
    out.write(reinterpret_cast<const char*>(&k_max), sizeof(k_max));
    const uint8_t distinct = 0;
    out.write(reinterpret_cast<const char*>(&distinct), sizeof(distinct));
    const uint64_t n = uint64_t{1} << 61;
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  auto loaded = NeighborhoodMaterializer::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(
      loaded.status().message().find("not a lofkit materialization file"),
      std::string::npos)
      << loaded.status();
  EXPECT_FALSE(NeighborhoodMaterializer::MapFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(MaterializerTest, SavedFilesUseTheContainerFormatNow) {
  // SaveToFile writes the checksummed container ("LFKC" magic), the only
  // format LoadFromFile and MapFromFile read.
  Dataset data = MakeLine(25);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(data, Euclidean()).ok());
  auto m = NeighborhoodMaterializer::Materialize(data, index, 5);
  ASSERT_TRUE(m.ok());
  const std::string path = ::testing::TempDir() + "/lofkit_m_container.bin";
  ASSERT_TRUE(m->SaveToFile(path).ok());
  std::ifstream in(path, std::ios::binary);
  char magic[4];
  in.read(magic, 4);
  ASSERT_TRUE(in.good());
  EXPECT_EQ(std::string(magic, 4), "LFKC");
  // Both loaders accept it; the mmap route reports file_backed().
  auto copied = NeighborhoodMaterializer::LoadFromFile(path);
  ASSERT_TRUE(copied.ok());
  EXPECT_FALSE(copied->file_backed());
  auto mapped = NeighborhoodMaterializer::MapFromFile(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(mapped->file_backed());
  EXPECT_EQ(mapped->size(), 25u);
  std::remove(path.c_str());
}

TEST(MaterializerTest, SizeOfMIsDimensionIndependent) {
  // Section 7.4: |M| = n * MinPtsUB entries regardless of dimension.
  for (size_t dim : {2u, 8u}) {
    Rng rng(7);
    auto ds = generators::MakePerformanceWorkload(rng, dim, 200, 3);
    ASSERT_TRUE(ds.ok());
    LinearScanIndex index;
    ASSERT_TRUE(index.Build(*ds, Euclidean()).ok());
    auto m = NeighborhoodMaterializer::Materialize(*ds, index, 10);
    ASSERT_TRUE(m.ok());
    // Ties can add entries, but with continuous random data they are
    // essentially impossible: expect exactly n * k entries.
    EXPECT_EQ(m->total_neighbor_count(), 200u * 10u);
  }
}

TEST(MaterializerTest, SizeIsZeroAfterMoveNotUnderflowed) {
  // Regression: size() used to compute offsets_.size() - 1 unguarded, so a
  // moved-from materializer (empty offsets table) reported SIZE_MAX points
  // and any loop over [0, size()) walked off the end.
  Dataset data = MakeLine(12);
  auto m = MaterializeLine(data, 3);
  EXPECT_EQ(m.size(), 12u);
  NeighborhoodMaterializer stolen = std::move(m);
  EXPECT_EQ(stolen.size(), 12u);
  EXPECT_EQ(m.size(), 0u);  // NOLINT(bugprone-use-after-move): on purpose
  EXPECT_EQ(m.total_neighbor_count(), 0u);
}

}  // namespace
}  // namespace lofkit
