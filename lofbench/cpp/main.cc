// lofbench: the timed half of the lofkit benchmark.
//
//   lofbench gen --workload W --seed S --dir DIR
//       Writes workload W's inputs for seed S into DIR (and, for the
//       re-sweep workload, builds and saves its M). Nothing here is timed.
//   lofbench run --workload W --seed S --dir DIR --seconds T
//                       --trace 0|1 [--trace-out FILE]
//       Runs one warm-up job, then jobs back to back for T seconds over the
//       inputs in DIR, checks every output, and prints the metrics. The
//       last stdout line is one JSON object (see README.md).
//
// run.py builds this program, calls `gen` and `run` in separate processes
// and checks results across runs of the same seed.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/csv.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/random.h"
#include "dataset/generators.h"
#include "dataset/metric.h"
#include "index/index_factory.h"
#include "job.h"
#include "trace.h"

namespace lofbench {
namespace {

namespace fs = std::filesystem;

enum class Shape { kCsvJob, kResweep };

struct Workload {
  const char* name;
  Shape shape;
  size_t n;
  size_t d;
  size_t intrinsic_d;  ///< 0 = plain mixture in d coordinates
  double noise;
  size_t clusters;
  size_t inputs;  ///< distinct inputs; a run gives each at least one job
  size_t lb;
  size_t ub;
  /// Draw each input's cluster layout from a seed fixed in the benchmark
  /// and only its points from the run seed. The section-7.4 workloads do
  /// this: with the layout drawn from the run seed, the default index's
  /// build time moved by a third between seeds at identical n and d.
  bool fixed_layout;
};

constexpr Workload kWorkloads[] = {
    {"batch_100k_d5", Shape::kCsvJob, 100000, 5, 0, 0.0, 10, 3, 10, 20, true},
    {"highdim_10k_d64", Shape::kCsvJob, 10000, 64, 6, 0.05, 10, 1, 10, 20,
     false},
    {"resweep_200k_k50", Shape::kResweep, 200000, 2, 0, 0.0, 10, 1, 10, 50,
     true},
    {"small_jobs_2k", Shape::kCsvJob, 2000, 5, 0, 0.0, 10, 200, 10, 20,
     false},
    {"highdim_2k_d64", Shape::kCsvJob, 2000, 64, 6, 0.05, 10, 20, 10, 20,
     false},
};

/// Seed of the fixed cluster layouts (Workload::fixed_layout).
constexpr uint64_t kLayoutSeed = 74;

/// Fewest timed jobs that leave ten samples beyond the 95th percentile.
constexpr size_t kMinP95Samples = 200;

/// Points per input whose neighbor lists and LOF values are re-derived.
constexpr size_t kCheckSample = 50;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t InputSeed(uint64_t seed, const Workload& w, size_t input) {
  uint64_t h = SplitMix(seed);
  for (const char* c = w.name; *c != '\0'; ++c) h = SplitMix(h ^ uint64_t(*c));
  return SplitMix(h ^ input);
}

std::string InputPath(const std::string& dir, size_t input) {
  char name[32];
  std::snprintf(name, sizeof(name), "input_%03zu.csv", input);
  return dir + "/" + name;
}

std::string MPath(const std::string& dir) { return dir + "/m.lfkcont"; }

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

/// The library default (0 = one worker per hardware thread), unless that
/// would exceed the CPUs this process may run on.
size_t ThreadArg() {
  return lofkit::ResolveThreadCount(0) <= Nproc() ? 0 : Nproc();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mib(double bytes) { return bytes / (1024.0 * 1024.0); }

double MBytes(const lofkit::NeighborhoodMaterializer& m) {
  return Mib(static_cast<double>(m.total_neighbor_count() *
                                     sizeof(lofkit::Neighbor) +
                                 (m.size() + 1) * sizeof(size_t)));
}

/// Bytes of M one pass over every point's k-distance neighborhood reads,
/// summed over the MinPts steps of the sweep (computed, not measured).
double SweepReadMb(const lofkit::NeighborhoodMaterializer& m, size_t lb,
                   size_t ub) {
  double entries = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    for (size_t k = lb; k <= ub; ++k) {
      entries += static_cast<double>(m.View(i, k)->neighborhood.size());
    }
  }
  return Mib(entries * sizeof(lofkit::Neighbor));
}

struct Args {
  std::string command;
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return std::nullopt;
    args.values[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return std::nullopt;
  return args;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

lofkit::Result<lofkit::Dataset> MakeInput(const Workload& w, uint64_t seed,
                                          size_t input) {
  lofkit::Rng rng(InputSeed(seed, w, input));
  if (w.fixed_layout) {
    // The section-7.4 recipe of MakePerformanceWorkload: centers uniform in
    // [0, 100]^d, stddev uniform in [0.5, 5], sizes split evenly.
    lofkit::Rng layout(InputSeed(kLayoutSeed, w, input));
    std::vector<lofkit::generators::GaussianSpec> specs(w.clusters);
    for (size_t c = 0; c < w.clusters; ++c) {
      specs[c].center.resize(w.d);
      for (double& x : specs[c].center) x = layout.Uniform(0.0, 100.0);
      specs[c].stddev = layout.Uniform(0.5, 5.0);
      specs[c].count = w.n / w.clusters + (c < w.n % w.clusters ? 1 : 0);
    }
    return lofkit::generators::MakeGaussianMixture(rng, w.d, specs);
  }
  if (w.intrinsic_d != 0) {
    return lofkit::generators::MakeEmbeddedWorkload(
        rng, w.d, w.intrinsic_d, w.n, w.clusters, w.noise);
  }
  return lofkit::generators::MakePerformanceWorkload(rng, w.d, w.n,
                                                     w.clusters);
}

lofkit::Status WriteInput(const lofkit::Dataset& data,
                          const std::string& path) {
  lofkit::CsvTable table;
  table.rows.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    const auto p = data.point(i);
    table.rows.emplace_back(p.begin(), p.end());
  }
  return lofkit::WriteCsvFile(path, table);
}

/// What the re-sweep preparation measured, handed from `gen` to `run` as
/// "name value" lines: the engine, and the dataset and index layers that
/// the re-sweep job itself never exercises.
struct PrepRecord {
  std::string engine;
  double input_mb = 0.0;
  double m_mb = 0.0;
  LayerSample layers;
};

constexpr std::pair<const char*, double LayerSample::*> kPrepTimes[] = {
    {"load_s", &LayerSample::load_s},
    {"build_s", &LayerSample::build_s},
    {"build_rss_mb", &LayerSample::build_rss_mb},
    {"materialize_s", &LayerSample::materialize_s},
    {"materialize_cpu_s", &LayerSample::materialize_cpu_s},
    {"materialize_rss_mb", &LayerSample::materialize_rss_mb},
};

constexpr std::pair<const char*, uint64_t lofkit::QueryStats::*>
    kPrepCounts[] = {
        {"queries", &lofkit::QueryStats::queries},
        {"distance_evals", &lofkit::QueryStats::distance_evals},
        {"rank_prune_hits", &lofkit::QueryStats::rank_prune_hits},
        {"node_visits", &lofkit::QueryStats::node_visits},
        {"leaf_visits", &lofkit::QueryStats::leaf_visits},
        {"heap_pushes", &lofkit::QueryStats::heap_pushes},
        {"va_refinements", &lofkit::QueryStats::va_refinements},
};

std::string PrepPath(const std::string& dir) { return dir + "/prep.txt"; }

bool WritePrep(const std::string& dir, const PrepRecord& prep) {
  std::ofstream out(PrepPath(dir));
  out.precision(17);
  out << "engine " << prep.engine << "\ninput_mb " << prep.input_mb
      << "\nm_mb " << prep.m_mb << "\n";
  for (const auto& [name, field] : kPrepTimes) {
    out << name << " " << prep.layers.*field << "\n";
  }
  for (const auto& [name, field] : kPrepCounts) {
    out << name << " " << prep.layers.stats.*field << "\n";
  }
  out.close();
  return static_cast<bool>(out);
}

std::optional<PrepRecord> ReadPrep(const std::string& dir) {
  std::ifstream in(PrepPath(dir));
  std::map<std::string, std::string> values;
  std::string key, value;
  while (in >> key >> value) values[key] = value;
  auto number = [&values](const char* name) -> std::optional<double> {
    auto it = values.find(name);
    if (it == values.end()) return std::nullopt;
    return std::strtod(it->second.c_str(), nullptr);
  };
  PrepRecord prep;
  prep.engine = values["engine"];
  const auto input_mb = number("input_mb");
  const auto m_mb = number("m_mb");
  if (prep.engine.empty() || !input_mb || !m_mb) return std::nullopt;
  prep.input_mb = *input_mb;
  prep.m_mb = *m_mb;
  for (const auto& [name, field] : kPrepTimes) {
    const auto v = number(name);
    if (!v) return std::nullopt;
    prep.layers.*field = *v;
  }
  for (const auto& [name, field] : kPrepCounts) {
    auto it = values.find(name);
    if (it == values.end()) return std::nullopt;
    prep.layers.stats.*field = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  return prep;
}

int Gen(const Workload& w, uint64_t seed, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (size_t input = 0; input < w.inputs; ++input) {
    auto data = MakeInput(w, seed, input);
    if (!data.ok()) {
      std::fprintf(stderr, "gen: %s\n", data.status().ToString().c_str());
      return 1;
    }
    if (auto s = WriteInput(*data, InputPath(dir, input)); !s.ok()) {
      std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (w.shape != Shape::kResweep) return 0;

  // The re-sweep workload's input is M itself: step 1 with the default
  // engine at k_max = ub, saved once. The preparation is traced so the
  // traced run can report the dataset and index layers it exercised.
  JobConfig config;
  config.lb = w.lb;
  config.ub = w.ub;
  config.threads = ThreadArg();
  config.sweep = false;
  SpanLog log;
  JobOutput prep = RunCsvJob(InputPath(dir, 0), config, &log, 0);
  if (!prep.status.ok()) {
    std::fprintf(stderr, "gen: preparing M failed: %s\n",
                 prep.status.ToString().c_str());
    return 1;
  }
  if (auto s = prep.m->SaveToFile(MPath(dir)); !s.ok()) {
    std::fprintf(stderr, "gen: saving M failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // The brute-force neighbor check runs once, on the saved M as the jobs
  // will map it.
  auto mapped = lofkit::NeighborhoodMaterializer::MapFromFile(MPath(dir));
  if (!mapped.ok()) {
    std::fprintf(stderr, "gen: mapping M failed: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  const auto sample =
      SamplePoints(prep.data->size(), kCheckSample, InputSeed(seed, w, 0));
  const std::string error = CheckNeighborLists(
      *prep.data, **lofkit::MetricByName("euclidean"), *mapped, sample);
  if (!error.empty()) {
    std::fprintf(stderr, "gen: check failed on the prepared M: %s\n",
                 error.c_str());
    return 1;
  }
  PrepRecord record;
  record.engine = prep.engine;
  record.input_mb =
      Mib(static_cast<double>(fs::file_size(InputPath(dir, 0))));
  record.m_mb = MBytes(*prep.m);
  record.layers = prep.layers;
  return WritePrep(dir, record) ? 0 : 1;
}

/// Everything a run gathers, turned into metrics at the end.
struct RunState {
  const Workload* w = nullptr;
  size_t threads = 0;
  size_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<std::string> digests;  ///< first top-list digest per input
  std::vector<std::optional<lofkit::QueryStats>> counts;  ///< per input
  std::vector<double> total_s, setup_s, score_s;  ///< untraced timed jobs
  double points = 0.0;                            ///< untraced timed jobs
  std::vector<double> traced_total_s;
  std::vector<LayerSample> traced_layers;
  std::vector<uint64_t> traced_jobs;
  std::vector<double> m_mb, m_read_mb, input_mb;
  double point_steps = 0.0;  ///< n * MinPts steps over traced jobs
  std::string engine;
  std::optional<PrepRecord> prep;          ///< re-sweep workload only
  std::unique_ptr<JobOutput> last_traced;  ///< kept for the map probe
};

/// The exact work counts of one step 1, as text.
std::string CountsText(const lofkit::QueryStats& s) {
  return std::to_string(s.queries) + "," + std::to_string(s.distance_evals) +
         "," + std::to_string(s.rank_prune_hits) + "," +
         std::to_string(s.node_visits) + "," + std::to_string(s.leaf_visits) +
         "," + std::to_string(s.heap_pushes) + "," +
         std::to_string(s.va_refinements) + "," +
         std::to_string(s.checks_used);
}

/// Checks one finished job; returns its failure, or "" when it is correct.
std::string CheckJob(RunState& st, uint64_t seed, size_t input,
                     const JobOutput& out, bool traced) {
  const Workload& w = *st.w;
  if (!out.status.ok()) return out.status.ToString();
  const auto sample =
      SamplePoints(out.m->size(), kCheckSample, InputSeed(seed, w, input));
  if (out.data != nullptr) {
    std::string error = CheckNeighborLists(
        *out.data, **lofkit::MetricByName("euclidean"), *out.m, sample);
    if (!error.empty()) return error;
  }
  std::string error = CheckLofScores(*out.m, w.lb, w.ub, out.aggregated,
                                     sample);
  if (!error.empty()) return error;
  const std::string digest = RankingDigest(out.top);
  if (st.digests[input].empty()) {
    st.digests[input] = digest;
  } else if (st.digests[input] != digest) {
    return "top-" + std::to_string(kTopN) + " ranking of input " +
           std::to_string(input) + " differs between jobs (" +
           st.digests[input] + " vs " + digest + ")";
  }
  if (traced && out.data != nullptr) {
    if (!st.counts[input].has_value()) {
      st.counts[input] = out.layers.stats;
    } else if (CountsText(*st.counts[input]) !=
               CountsText(out.layers.stats)) {
      return "query-cost counters of input " + std::to_string(input) +
             " drifted between traced jobs";
    }
  }
  return "";
}

/// Runs one job on `input`, checks it and files its numbers. `timed`
/// false is the warm-up.
void RunOne(RunState& st, uint64_t seed, const std::string& dir,
            size_t input, bool traced, bool timed, SpanLog& log,
            uint64_t& next_job) {
  const Workload& w = *st.w;
  JobConfig config;
  config.lb = w.lb;
  config.ub = w.ub;
  config.threads = st.threads;
  malloc_trim(0);
  const uint64_t job = next_job++;
  SpanLog* span_log = traced ? &log : nullptr;
  auto out = std::make_unique<JobOutput>(
      w.shape == Shape::kResweep
          ? RunResweepJob(MPath(dir), config, span_log, job)
          : RunCsvJob(InputPath(dir, input), config, span_log, job));
  ++st.attempted;
  if (!out->engine.empty()) st.engine = out->engine;
  const std::string error = CheckJob(st, seed, input, *out, traced);
  if (!error.empty()) {
    st.failures.push_back(std::string(timed ? "" : "warm-up ") + "job " +
                          std::to_string(job) + ": " + error);
    return;
  }
  if (!timed) return;
  const double n = static_cast<double>(out->m->size());
  st.m_mb.push_back(MBytes(*out->m));
  if (!traced) {
    st.total_s.push_back(out->total_s);
    st.setup_s.push_back(out->setup_s);
    st.score_s.push_back(out->score_s);
    st.points += n;
    return;
  }
  st.traced_total_s.push_back(out->total_s);
  st.traced_layers.push_back(out->layers);
  st.traced_jobs.push_back(job);
  st.m_read_mb.push_back(SweepReadMb(*out->m, w.lb, w.ub));
  st.point_steps += n * static_cast<double>(w.ub - w.lb + 1);
  if (w.shape == Shape::kCsvJob) {
    st.input_mb.push_back(
        Mib(static_cast<double>(fs::file_size(InputPath(dir, input)))));
  }
  st.last_traced = std::move(out);
}

struct MetricValue {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};
using Metrics = std::vector<MetricValue>;

double MedianOf(const std::vector<LayerSample>& samples,
                double LayerSample::*field) {
  std::vector<double> v;
  for (const LayerSample& l : samples) v.push_back(l.*field);
  return Median(v);
}

double SumOf(const std::vector<LayerSample>& samples,
             double LayerSample::*field) {
  double sum = 0.0;
  for (const LayerSample& l : samples) sum += l.*field;
  return sum;
}

/// Times MapFromFile on the last traced job's M, saved outside every job,
/// and checks that the mapped copy serves the same lists. For workloads
/// whose job never maps a container.
std::string MapProbe(const RunState& st, const std::string& dir,
                     double& map_s, double& map_mb) {
  const std::string probe = dir + "/probe.lfkcont";
  const lofkit::NeighborhoodMaterializer& m = *st.last_traced->m;
  if (auto s = m.SaveToFile(probe); !s.ok()) {
    return "map probe: " + s.ToString();
  }
  const int64_t t0 = NowNs();
  auto mapped = lofkit::NeighborhoodMaterializer::MapFromFile(probe);
  map_s = 1e-9 * static_cast<double>(NowNs() - t0);
  map_mb = Mib(static_cast<double>(fs::file_size(probe)));
  bool same = mapped.ok() && mapped->size() == m.size();
  for (size_t i = 0; same && i < m.size(); ++i) {
    same = std::ranges::equal(mapped->neighbors(i), m.neighbors(i));
  }
  fs::remove(probe);
  return same ? "" : "map probe: the mapped M differs from the in-RAM M";
}

/// Per-layer metrics of a traced run.
Metrics LayerMetrics(RunState& st, const std::string& dir, const SpanLog& log) {
  const Workload& w = *st.w;
  const std::vector<LayerSample>& traced = st.traced_layers;
  const size_t samples = traced.size();
  // The dataset and index layers come from the traced jobs, except on the
  // re-sweep workload, whose job never loads, builds or runs step 1: there
  // they come from the preparation of the same input.
  const bool resweep = w.shape == Shape::kResweep;
  const std::vector<LayerSample> job_layers =
      resweep ? std::vector<LayerSample>{st.prep->layers} : traced;
  const double input_mb =
      resweep ? st.prep->input_mb
              : std::accumulate(st.input_mb.begin(), st.input_mb.end(), 0.0);
  const double m_mb = resweep ? st.prep->m_mb : Median(st.m_mb);
  // The work counts take one step 1 per input, so they do not depend on how
  // many jobs fit in the run (CheckJob holds every job on an input to the
  // same counts).
  lofkit::QueryStats stats;
  if (resweep) {
    stats = st.prep->layers.stats;
  } else {
    for (const auto& counts : st.counts) {
      if (counts) stats.Add(*counts);
    }
  }
  lofkit::QueryStats job_stats;  // over every job in job_layers
  for (const LayerSample& l : job_layers) job_stats.Add(l.stats);

  double map_s = 0.0;
  double map_mb = 0.0;
  if (resweep) {
    map_s = MedianOf(traced, &LayerSample::map_s);
    map_mb = Mib(static_cast<double>(fs::file_size(MPath(dir))));
  } else if (std::string error = MapProbe(st, dir, map_s, map_mb);
             !error.empty()) {
    st.failures.push_back(error);
  }

  auto per_query = [&stats](uint64_t count) {
    return stats.queries == 0 ? 0.0
                              : static_cast<double>(count) /
                                    static_cast<double>(stats.queries);
  };
  const double hits = static_cast<double>(stats.rank_prune_hits);
  const double evals = static_cast<double>(stats.distance_evals);
  const double job_evals = static_cast<double>(job_stats.distance_evals);
  const double threads = static_cast<double>(st.threads);
  const auto self = log.SelfSeconds(st.traced_jobs);
  const double job_wall = std::accumulate(st.traced_total_s.begin(),
                                          st.traced_total_s.end(), 0.0);
  std::vector<double> k_distance, lrd, lof;
  for (const LayerSample& l : traced) {
    k_distance.push_back(l.phases.k_distance_seconds);
    lrd.push_back(l.phases.lrd_seconds);
    lof.push_back(l.phases.lof_seconds);
  }

  const size_t job_samples = job_layers.size();
  const Metrics metrics = {
      {"dataset.load_s", MedianOf(job_layers, &LayerSample::load_s), "s",
       job_samples},
      {"dataset.load_mb_per_s",
       input_mb / SumOf(job_layers, &LayerSample::load_s), "MiB/s",
       job_samples},
      {"index.build_s", MedianOf(job_layers, &LayerSample::build_s), "s",
       job_samples},
      {"index.build_rss_mb", MedianOf(job_layers, &LayerSample::build_rss_mb),
       "MiB", job_samples},
      {"index.materialize_s",
       MedianOf(job_layers, &LayerSample::materialize_s), "s", job_samples},
      {"index.materialize_cpu_s",
       MedianOf(job_layers, &LayerSample::materialize_cpu_s), "s",
       job_samples},
      {"index.materialize_par_eff",
       SumOf(job_layers, &LayerSample::materialize_cpu_s) /
           (SumOf(job_layers, &LayerSample::materialize_s) * threads),
       "ratio", job_samples},
      {"index.materialize_rss_mb",
       MedianOf(job_layers, &LayerSample::materialize_rss_mb), "MiB",
       job_samples},
      {"index.m_mb", m_mb, "MiB", job_samples},
      {"index.evals_per_query", per_query(stats.distance_evals), "count",
       job_samples},
      {"index.node_visits_per_query", per_query(stats.node_visits), "count",
       job_samples},
      {"index.leaf_visits_per_query", per_query(stats.leaf_visits), "count",
       job_samples},
      {"index.heap_pushes_per_query", per_query(stats.heap_pushes), "count",
       job_samples},
      {"index.va_refinements_per_query", per_query(stats.va_refinements),
       "count", job_samples},
      {"index.prune_hit_ratio", hits + evals == 0 ? 0.0 : hits / (hits + evals),
       "ratio", job_samples},
      {"index.ns_per_eval",
       job_evals == 0
           ? 0.0
           : 1e9 * SumOf(job_layers, &LayerSample::materialize_cpu_s) /
                 job_evals,
       "ns", job_samples},
      {"lof.sweep_s", MedianOf(traced, &LayerSample::sweep_s), "s", samples},
      {"lof.sweep_cpu_s", MedianOf(traced, &LayerSample::sweep_cpu_s), "s",
       samples},
      {"lof.sweep_par_eff",
       SumOf(traced, &LayerSample::sweep_cpu_s) /
           (SumOf(traced, &LayerSample::sweep_s) * threads),
       "ratio", samples},
      {"lof.k_distance_s", Median(k_distance), "s", samples},
      {"lof.lrd_s", Median(lrd), "s", samples},
      {"lof.lof_s", Median(lof), "s", samples},
      {"lof.ns_per_point_step",
       1e9 * SumOf(traced, &LayerSample::sweep_cpu_s) / st.point_steps, "ns",
       samples},
      {"lof.m_mb_read", Median(st.m_read_mb), "MiB", samples},
      {"lof.rank_s", MedianOf(traced, &LayerSample::rank_s), "s", samples},
      {"common.container_map_s", map_s, "s", resweep ? samples : 1},
      {"common.container_map_mb_per_s", map_mb / map_s, "MiB/s",
       resweep ? samples : 1},
      {"trace.unaccounted_frac",
       (self.count("job") != 0 ? self.at("job") : 0.0) / job_wall, "ratio",
       samples},
      {"trace.overhead_frac",
       Median(st.traced_total_s) / Median(st.total_s) - 1.0, "ratio",
       samples},
  };

  std::printf("self time per layer over %zu traced jobs (s):\n", samples);
  for (const auto& [name, seconds] : self) {
    std::printf("  %-22s %.6f\n",
                name == "job" ? "(unaccounted)" : name.c_str(), seconds);
  }
  return metrics;
}

int Run(const Workload& w, uint64_t seed, const std::string& dir,
        double seconds, bool traced, const std::string& trace_out) {
  RunState st;
  st.w = &w;
  st.threads = lofkit::ResolveThreadCount(ThreadArg());
  st.digests.assign(w.inputs, "");
  st.counts.assign(w.inputs, std::nullopt);

  const bool resweep = w.shape == Shape::kResweep;
  if (resweep) {
    st.prep = ReadPrep(dir);
    if (!st.prep) {
      std::fprintf(stderr, "run: no preparation record in %s\n", dir.c_str());
      return 1;
    }
    st.engine = st.prep->engine;
  }
  double input_bytes = 0.0;
  for (size_t i = 0; i < w.inputs; ++i) {
    input_bytes += static_cast<double>(
        fs::file_size(resweep ? MPath(dir) : InputPath(dir, i)));
  }

  SpanLog log;
  uint64_t next_job = 1;
  // Warm-up: untimed, checked, traced in a traced run so its counters can
  // be compared with the timed traced job on the same input.
  RunOne(st, seed, dir, 0, traced, /*timed=*/false, log, next_job);
  log = SpanLog{};

  // Closed loop, one client: job after job, cycling over the inputs, until
  // the run's time is up and every input has had a job. A traced run pairs
  // every traced job with an untraced one on the same input, alternating
  // which goes first.
  const int64_t start = NowNs();
  size_t slot = 0;
  for (; st.failures.empty() &&
         (slot < w.inputs ||
          1e-9 * static_cast<double>(NowNs() - start) < seconds);
       ++slot) {
    const size_t input = slot % w.inputs;
    if (!traced) {
      RunOne(st, seed, dir, input, false, true, log, next_job);
      continue;
    }
    const bool traced_first = slot % 2 == 1;
    RunOne(st, seed, dir, input, traced_first, true, log, next_job);
    RunOne(st, seed, dir, input, !traced_first, true, log, next_job);
  }

  std::printf("manifest: seed=%llu nproc=%zu hardware_threads=%zu "
              "threads=%zu compiler=\"%s\" build_type=%s%s\n",
              static_cast<unsigned long long>(seed), Nproc(),
              lofkit::ResolveThreadCount(0), st.threads, __VERSION__,
              LOFBENCH_BUILD_TYPE,
              std::string(LOFBENCH_BUILD_TYPE) == "Release"
                  ? ""
                  : " WARNING: not a Release build, timings are not "
                    "comparable");
  std::printf("workload: %s n=%zu d=%zu k_max=%zu minpts=[%zu,%zu] "
              "inputs=%zu input_bytes=%.0f engine=%s jobs=%zu\n",
              w.name, w.n, w.d, w.ub, w.lb, w.ub, w.inputs, input_bytes,
              st.engine.c_str(), st.attempted);
  if (resweep) {
    std::printf("note: the mapped M (%.0f bytes) is served from the OS page "
                "cache of this machine, not read from a disk\n",
                input_bytes);
  }
  std::printf("M bytes (computed): %.0f\n", Median(st.m_mb) * 1024.0 * 1024.0);
  if (st.total_s.size() <= 20) {
    std::printf("untraced job walls (s):");
    for (double t : st.total_s) std::printf(" %.4f", t);
    std::printf("\n");
  }

  Metrics metrics;
  const size_t samples = st.total_s.size();
  if (!st.failures.empty() || samples == 0 ||
      (traced && st.traced_total_s.empty())) {
    if (st.failures.empty()) st.failures.push_back("no timed job completed");
  } else if (!traced) {
    const double wall =
        std::accumulate(st.total_s.begin(), st.total_s.end(), 0.0);
    metrics = {
        {"total_s", Median(st.total_s), "s", samples},
        {"setup_s", Median(st.setup_s), "s", st.setup_s.size()},
        {"score_s", Median(st.score_s), "s", samples},
        {"points_per_s", st.points / wall, "points/s", samples},
        {"peak_rss_mb", Mib(static_cast<double>(lofkit::PeakRssBytes())),
         "MiB", 1},
    };
  } else {
    metrics = LayerMetrics(st, dir, log);
    if (!trace_out.empty() && !log.WriteChromeTrace(trace_out)) {
      st.failures.push_back("cannot write the trace to " + trace_out);
    }
  }
  const double failed_frac =
      static_cast<double>(st.failures.size()) /
      static_cast<double>(std::max<size_t>(st.attempted, 1));
  for (const MetricValue& m : metrics) {
    std::printf("  %-34s %.6g %s (%zu samples)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  // A tail percentile is reported only where at least ten samples lie
  // beyond it.
  if (!traced && samples >= kMinP95Samples) {
    std::printf("  %-34s %.6g s (%zu samples)\n", "job_p95_s",
                Percentile(st.total_s, 0.95), samples);
  }
  std::printf("  %-34s %.6g ratio (%zu jobs attempted)\n", "failed_frac",
              failed_frac, st.attempted);
  for (const std::string& f : st.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  // Machine-readable summary for run.py.
  std::string digests;
  for (const std::string& d : st.digests) digests += d;
  std::string counts;
  if (resweep) {
    counts = CountsText(st.prep->layers.stats);
  } else {
    for (const auto& c : st.counts) counts += (c ? CountsText(*c) : "") + ";";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"top_digests\": \"%s\", \"work_counts\": \"%s\", "
              "\"metrics\": {",
              st.failures.empty() ? "true" : "false", st.attempted,
              st.failures.size(), digests.c_str(), counts.c_str());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return st.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lofbench

int main(int argc, char** argv) {
  using namespace lofbench;
  const auto args = ParseArgs(argc, argv);
  const Workload* w = args ? FindWorkload(args->Get("workload", "")) : nullptr;
  const std::string dir = args ? args->Get("dir", "") : "";
  if (w == nullptr || dir.empty() ||
      (args->command != "gen" && args->command != "run")) {
    std::fprintf(stderr,
                 "usage: lofbench gen|run --workload NAME --seed N "
                 "--dir DIR [--seconds S --trace 0|1 --trace-out FILE]\n");
    return 2;
  }
  const uint64_t seed =
      std::strtoull(args->Get("seed", "1").c_str(), nullptr, 10);
  if (args->command == "gen") return Gen(*w, seed, dir);
  return Run(*w, seed, dir,
             std::strtod(args->Get("seconds", "30").c_str(), nullptr),
             args->Get("trace", "0") == "1", args->Get("trace-out", ""));
}
