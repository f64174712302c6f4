#ifndef LOFKIT_COMMON_PARALLEL_H_
#define LOFKIT_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/fail_point.h"
#include "common/status.h"

namespace lofkit {

/// Resolves a user-facing thread-count knob: 0 means "one worker per CPU
/// the calling thread may run on" (the sched_getaffinity mask on Linux,
/// else std::thread::hardware_concurrency; never less than 1); any other
/// value passes through unchanged. Every `threads` parameter in lofkit
/// follows this convention.
size_t ResolveThreadCount(size_t threads);

/// How often a worker pays a monotonic-clock read for deadline expiry: the
/// cheap latched-flag check runs every index, the clock read every stride.
/// 32 keeps the overhead invisible for microsecond bodies while bounding
/// how far past a deadline a worker can run to one stride of work.
inline constexpr size_t kStopCheckStride = 32;

/// Runs body(worker, i) for every i in [0, n) sharded over `threads`
/// workers, where `worker` is the stable id in [0, resolved_threads) of the
/// worker executing index i — the hook per-worker state (e.g. a
/// KnnSearchContext per worker) needs to stay race-free without locks.
///
/// Chunking is deterministic and contiguous: worker t owns
/// [n*t/T, n*(t+1)/T), the same split for every run with the same (n, T).
/// `threads` is resolved via ResolveThreadCount and clamped to n; a resolved
/// count of 1 runs inline on the calling thread with no pool at all, so the
/// sequential path stays allocation- and synchronization-free.
///
/// `stop` is polled at every index boundary (latched-flag load) and its
/// deadline every kStopCheckStride indexes (clock read); an empty token
/// costs a null-pointer test. On a stop the other workers abort at their
/// next boundary, exactly like the error path.
///
/// `body` must return Status and be safe to invoke concurrently for
/// distinct i (the usual shape: read shared state, write only slot i and
/// worker-local state). On the first error the other workers stop at their
/// next index boundary (early abort) instead of running their chunks to
/// completion.
///
/// Error choice is deterministic, in this precedence order:
///   1. A body (or injected fail-point) error always beats a cancellation
///      or deadline stop, even when the two race — a worker that observes
///      the stop token records nothing, so it can never mask a real error.
///   2. Among body errors recorded by several workers, the one from the
///      lowest-index failing chunk wins: chunks are contiguous and
///      ascending in worker id, so the scan over worker ids below returns
///      the error of the lowest failing index that was actually reached.
///      (A failure a higher-index worker reported first can still suppress
///      a lower-index failure that the early abort prevented from running;
///      the returned error is always one some body actually produced.)
///   3. With no body error, a tripped stop token yields its latched
///      kCancelled / kDeadlineExceeded status.
///
/// Workers never see an index twice and the calling thread always
/// participates as worker 0. The "parallel.worker" fail point is planted
/// at every index boundary and injects through the body-error path.
template <typename Body>
Status ParallelForWorker(size_t n, size_t threads, const StopToken& stop,
                         const Body& body) {
  threads = std::min(ResolveThreadCount(threads), n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) {
      if (stop.stop_possible()) {
        LOFKIT_RETURN_IF_ERROR(i % kStopCheckStride == 0
                                   ? stop.CheckDeadline()
                                   : stop.status());
      }
      LOFKIT_FAIL_POINT("parallel.worker");
      LOFKIT_RETURN_IF_ERROR(body(size_t{0}, i));
    }
    return Status::OK();
  }

  std::atomic<bool> abort{false};
  std::vector<Status> worker_status(threads);
  auto worker = [&](size_t t) {
    const size_t begin = n * t / threads;
    const size_t end = n * (t + 1) / threads;
    for (size_t i = begin; i < end; ++i) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (stop.stop_possible()) {
        Status stopped = (i - begin) % kStopCheckStride == 0
                             ? stop.CheckDeadline()
                             : stop.status();
        if (!stopped.ok()) {
          // Deliberately not recorded in worker_status: a cancellation
          // must never outrank a real body error (precedence rule 1);
          // the caller re-reads the latched token status after the join.
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
      Status status;
      if (__builtin_expect(FailPoints::AnyArmed(), 0)) {
        status = FailPoints::Check("parallel.worker");
      }
      if (status.ok()) status = body(t, i);
      if (!status.ok()) {
        worker_status[t] = std::move(status);
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (size_t t = 1; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }
  worker(0);
  for (std::thread& t : pool) t.join();
  for (Status& status : worker_status) {
    if (!status.ok()) return std::move(status);
  }
  // No body error anywhere: a tripped token is the only remaining cause.
  return stop.status();
}

/// Token-free form: identical semantics with a never-stopping token.
template <typename Body>
Status ParallelForWorker(size_t n, size_t threads, const Body& body) {
  return ParallelForWorker(n, threads, StopToken(), body);
}

/// Runs body(i) for every i in [0, n) sharded over `threads` workers — the
/// worker-id-free convenience form of ParallelForWorker; all semantics
/// (chunking, resolution, early abort, stop polling, error choice) are
/// identical.
template <typename Body>
Status ParallelFor(size_t n, size_t threads, const StopToken& stop,
                   const Body& body) {
  return ParallelForWorker(
      n, threads, stop,
      [&body](size_t /*worker*/, size_t i) { return body(i); });
}

template <typename Body>
Status ParallelFor(size_t n, size_t threads, const Body& body) {
  return ParallelFor(n, threads, StopToken(), body);
}

}  // namespace lofkit

#endif  // LOFKIT_COMMON_PARALLEL_H_
