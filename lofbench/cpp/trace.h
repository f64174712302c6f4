#ifndef LOFBENCH_CPP_TRACE_H_
#define LOFBENCH_CPP_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lofbench {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();

/// Current resident set of this process in MiB (/proc/self/statm).
double CurrentRssMb();

/// One timed interval of a job. Spans of one job share `job`; `parent` is
/// the id of the enclosing span (0 for a job's root span).
struct Span {
  std::string name;
  uint64_t job = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store. Spans are recorded only around calls into the
/// library from the benchmark's own code; nothing inside lofkit is touched.
/// Written out once, as Chrome trace-event JSON, when the run ends.
class SpanLog {
 public:
  /// Opens a span that started at `start_ns` and returns its id (ids start
  /// at 1).
  uint32_t Begin(const std::string& name, uint64_t job, uint32_t parent,
                 int64_t start_ns);

  /// Closes span `id` at `end_ns`.
  void End(uint32_t id, int64_t end_ns);

  /// Self time per span name in seconds (span duration minus the part its
  /// direct children cover), summed over the spans of the given jobs.
  std::map<std::string, double> SelfSeconds(
      const std::vector<uint64_t>& jobs) const;

  /// Writes every span as a Chrome trace-event "X" event. Returns false
  /// when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace lofbench

#endif  // LOFBENCH_CPP_TRACE_H_
