// Microbench for CSV ingest: DatasetFromCsvFile on files written by
// WriteCsvFile (%.17g) in the lofbench input shapes. Reports the min-of-N
// load time and the throughput in MiB/s of file, and checks that every load
// gives back the written doubles bit for bit (roundtrip_ok = 1). Writes
// BENCH_ingest.json; LOFKIT_BENCH_SMOKE=1 keeps the shapes but times a
// single repetition.

#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/bench_report.h"
#include "common/csv.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "dataset/loaders.h"

using namespace lofkit;         // NOLINT
using namespace lofkit::bench;  // NOLINT

namespace {

struct Shape {
  const char* name;
  size_t n;
  size_t d;
};

// True when `data` holds exactly the rows of `table`, bit for bit.
bool SameBits(const Dataset& data, const CsvTable& table) {
  if (data.size() != table.rows.size()) return false;
  for (size_t i = 0; i < data.size(); ++i) {
    const auto p = data.point(i);
    if (p.size() != table.rows[i].size()) return false;
    for (size_t c = 0; c < p.size(); ++c) {
      if (std::bit_cast<uint64_t>(p[c]) !=
          std::bit_cast<uint64_t>(table.rows[i][c])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const int repetitions = smoke ? 1 : 15;
  const Shape kShapes[] = {
      {"n2k_d5", 2000, 5},
      {"n2k_d64", 2000, 64},
      {"n100k_d5", 100000, 5},
  };
  BenchReport report("ingest");
  report.SetManifest("format", "%.17g");
  report.SetManifest("repetitions", static_cast<double>(repetitions));
  report.SetManifest("threads", 1.0);

  PrintHeader("CSV ingest",
              "DatasetFromCsvFile on WriteCsvFile output, min of N loads");
  std::printf("%-10s %8s %4s %10s %12s %10s %10s\n", "case", "n", "d",
              "file MiB", "min load ms", "MiB/s", "roundtrip");

  bool all_ok = true;
  for (const Shape& shape : kShapes) {
    Rng rng(1000 + shape.d);
    CsvTable table;
    table.rows.resize(shape.n);
    for (auto& row : table.rows) {
      row.resize(shape.d);
      for (double& x : row) x = rng.Gaussian(50.0, 20.0);
    }
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("lofkit_bench_ingest_" + std::string(shape.name) + ".csv"))
            .string();
    CheckOk(WriteCsvFile(path, table), "WriteCsvFile");
    const double file_mib =
        static_cast<double>(std::filesystem::file_size(path)) / (1 << 20);

    double best = 0.0;
    bool roundtrip_ok = true;
    for (int rep = 0; rep < repetitions; ++rep) {
      Stopwatch watch;
      Dataset data = CheckOk(DatasetFromCsvFile(path), "DatasetFromCsvFile");
      const double seconds = watch.ElapsedSeconds();
      if (rep == 0 || seconds < best) best = seconds;
      roundtrip_ok = roundtrip_ok && SameBits(data, table);
    }
    std::filesystem::remove(path);
    all_ok = all_ok && roundtrip_ok;

    const double mib_per_s = best > 0.0 ? file_mib / best : 0.0;
    std::printf("%-10s %8zu %4zu %10.2f %12.3f %10.1f %10s\n", shape.name,
                shape.n, shape.d, file_mib, best * 1e3, mib_per_s,
                roundtrip_ok ? "ok" : "MISMATCH");
    report.Add(shape.name, {{"n", static_cast<double>(shape.n)},
                            {"d", static_cast<double>(shape.d)},
                            {"file_mib", file_mib},
                            {"load_seconds", best},
                            {"load_mib_per_s", mib_per_s},
                            {"roundtrip_ok", roundtrip_ok ? 1.0 : 0.0}});
  }
  CheckOk(report.Write(), "BenchReport::Write");
  if (!all_ok) {
    std::fprintf(stderr, "FATAL: a load did not give back the written bits\n");
    return 1;
  }
  return 0;
}
