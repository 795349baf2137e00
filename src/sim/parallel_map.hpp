// Deterministic indexed parallel map — TrialRunner's scheduling contract for
// arbitrary result types.
//
// results[i] = fn(i) for i in [0, count): indices are claimed dynamically
// from a shared counter (load balancing for uneven work items), every result
// lands in its own preallocated slot, and the caller folds slots in index
// order — so the returned vector is a pure function of (count, fn),
// independent of thread count and scheduling. Exceptions from fn are
// captured and the one with the smallest index is rethrown on the caller's
// thread after the batch drains, mirroring TrialRunner::run.
//
// The census sweeps its edge-code chunks through this. It runs on the same
// process-wide engine pool as TrialRunner (sim/pool.hpp), with the same
// rules: a call from inside a pool batch runs inline, and threads == 1
// starts no thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <vector>

#include "sim/pool.hpp"
#include "sim/trial_runner.hpp"

namespace dip::sim {

// R must be default-constructible; fn must be safe to invoke concurrently
// from several threads (give each invocation its own workspace, or key all
// state off the index). threads == 0 resolves via DIP_THREADS / hardware
// concurrency, like TrialConfig.
template <typename R, typename Fn>
std::vector<R> parallelMap(std::size_t count, unsigned threads, Fn&& fn) {
  std::vector<R> results(count);
  std::atomic<std::size_t> next{0};

  std::mutex failureLock;
  std::size_t failureIndex = count;
  std::exception_ptr failure;

  auto worker = [&] {
    for (;;) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      try {
        results[index] = fn(index);
      } catch (...) {
        std::lock_guard<std::mutex> guard(failureLock);
        if (index < failureIndex) {
          failureIndex = index;
          failure = std::current_exception();
        }
      }
    }
  };

  runOnPool(static_cast<unsigned>(std::min<std::size_t>(resolveThreads(threads), count)),
            worker);

  if (failure) std::rethrow_exception(failure);
  return results;
}

}  // namespace dip::sim
