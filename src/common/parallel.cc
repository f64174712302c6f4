#include "common/parallel.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace lofkit {

size_t ResolveThreadCount(size_t threads) {
  if (threads != 0) return threads;
#ifdef __linux__
  // Under taskset or a cpuset cgroup the process may run on fewer CPUs than
  // the machine has; one worker per allowed CPU avoids oversubscription.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return static_cast<size_t>(count);
  }
#endif
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<size_t>(hardware);
}

}  // namespace lofkit
