#include "trace.h"

#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <unordered_map>

namespace lofbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint32_t SpanLog::Begin(const std::string& name, uint64_t job,
                        uint32_t parent, int64_t start_ns) {
  Span span;
  span.name = name;
  span.job = job;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start_ns = start_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::End(uint32_t id, int64_t end_ns) {
  spans_[id - 1].end_ns = end_ns;
}

std::map<std::string, double> SpanLog::SelfSeconds(
    const std::vector<uint64_t>& jobs) const {
  const std::set<uint64_t> wanted(jobs.begin(), jobs.end());
  std::unordered_map<uint32_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0 && wanted.count(s.job) != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (wanted.count(s.job) == 0) continue;
    const int64_t own = s.end_ns - s.start_ns - child_ns[s.id];
    self[s.name] += 1e-9 * static_cast<double>(own);
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"job\":%llu,\"span\":%u,\"parent\":%u}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(),
                 1e-3 * static_cast<double>(s.start_ns - origin),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                 static_cast<unsigned long long>(s.job), s.id, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace lofbench
