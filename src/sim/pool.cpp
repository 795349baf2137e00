#include "sim/pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace dip::sim {
namespace {

// How many times an idle helper (or a caller waiting on helpers) polls
// before it sleeps on the condition variable: long enough to catch the
// next batch of a back-to-back series, short enough that an idle pool
// costs no CPU.
constexpr int kSpinPolls = 2048;

thread_local unsigned tlsBatchDepth = 0;

struct BatchScope {
  BatchScope() { ++tlsBatchDepth; }
  ~BatchScope() { --tlsBatchDepth; }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;
};

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class Pool {
 public:
  // One batch at a time. The fork prepare handler holds it across fork().
  std::mutex batchLock;

  // Caller side; batchLock is held. An exception from `work`, on this
  // thread or on a helper, is rethrown here once every started helper has
  // finished, so no helper outlives the batch's stack frame.
  void run(unsigned helpers, void (*call)(void*), void* work) {
    grow(helpers);
    call_ = call;
    work_ = work;
    finished_.store(0, std::memory_order_relaxed);
    open_.store(static_cast<int>(helpers), std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(m_);
      generation_.fetch_add(1, std::memory_order_release);
      const unsigned wake = std::min(helpers, parked_);
      for (unsigned i = 0; i < wake; ++i) wake_.notify_one();
    }
    std::exception_ptr failure;
    try {
      BatchScope scope;
      call(work);
    } catch (...) {
      failure = std::current_exception();
    }
    // Every item is claimed now: close the slots nobody took, then wait for
    // the helpers that did start to finish their last items.
    const int unclaimed = open_.exchange(0, std::memory_order_acq_rel);
    const unsigned started = helpers - static_cast<unsigned>(std::max(unclaimed, 0));
    for (int poll = 0; poll < kSpinPolls && !allFinished(started); ++poll) cpuRelax();
    std::unique_lock<std::mutex> lock(m_);
    callerWaiting_ = true;
    done_.wait(lock, [&] { return allFinished(started); });
    callerWaiting_ = false;
    if (!failure) failure = std::exchange(helperFailure_, nullptr);
    helperFailure_ = nullptr;
    lock.unlock();
    if (failure) std::rethrow_exception(failure);
  }

 private:
  bool allFinished(unsigned started) const {
    return finished_.load(std::memory_order_acquire) >= started;
  }

  // Starts helpers up to `helpers`. Each new helper remembers the
  // generation before this batch's bump, so it joins this batch.
  void grow(unsigned helpers) {
    const std::uint64_t seen = generation_.load(std::memory_order_relaxed);
    for (; helperCount_ < helpers; ++helperCount_) {
      std::thread([this, seen] { helperLoop(seen); }).detach();
    }
  }

  void helperLoop(std::uint64_t seen) {
    for (;;) {
      std::uint64_t now = generation_.load(std::memory_order_acquire);
      for (int poll = 0; now == seen && poll < kSpinPolls; ++poll) {
        cpuRelax();
        now = generation_.load(std::memory_order_acquire);
      }
      if (now == seen) {
        std::unique_lock<std::mutex> lock(m_);
        ++parked_;
        wake_.wait(lock, [&] {
          return generation_.load(std::memory_order_acquire) != seen;
        });
        --parked_;
        now = generation_.load(std::memory_order_acquire);
      }
      seen = now;
      // A claim that finds no open slot (the batch wanted fewer helpers,
      // or its caller already closed it) goes back to waiting.
      if (open_.fetch_sub(1, std::memory_order_acq_rel) <= 0) continue;
      std::exception_ptr failure;
      try {
        BatchScope scope;
        call_(work_);
      } catch (...) {
        failure = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(m_);
      if (failure && !helperFailure_) helperFailure_ = failure;
      finished_.fetch_add(1, std::memory_order_release);
      if (callerWaiting_) done_.notify_one();
    }
  }

  // m_ guards parked_, callerWaiting_ and helperFailure_, and every change
  // to generation_ and finished_ (the two condition variables' predicates;
  // spinning threads also read those two without it).
  std::mutex m_;
  std::condition_variable wake_;
  std::condition_variable done_;
  unsigned parked_ = 0;
  bool callerWaiting_ = false;
  std::exception_ptr helperFailure_;
  std::atomic<std::uint64_t> generation_{0};  // Bumped once per batch.
  std::atomic<unsigned> finished_{0};  // Helpers of the current batch done.
  unsigned helperCount_ = 0;  // Helpers started so far (under batchLock).
  std::atomic<int> open_{0};  // Helper slots of the current batch not yet claimed.
  // The current batch; published before open_'s release store, read only
  // by a helper whose claim succeeded.
  void (*call_)(void*) = nullptr;
  void* work_ = nullptr;
};

// The pool is never destroyed and its helpers are detached, never joined.
// A fork child has none of the parent's helper threads, so it could not
// join them; and joining at exit would run helpers' thread-local
// destructors during static destruction. Parked helpers simply end with
// the process.
std::atomic<Pool*> gPool{nullptr};
std::once_flag gPoolOnce;

void prepareFork() {
  if (tlsBatchDepth == 0) gPool.load(std::memory_order_acquire)->batchLock.lock();
}

void afterForkParent() {
  if (tlsBatchDepth == 0) gPool.load(std::memory_order_acquire)->batchLock.unlock();
}

// The child has none of the parent's helpers, and the old pool's locks may
// be held by threads that do not exist here: start over with an empty pool
// (the old one is abandoned, not destroyed).
void afterForkChild() { gPool.store(new Pool, std::memory_order_release); }

Pool& pool() {
  std::call_once(gPoolOnce, [] {
    gPool.store(new Pool, std::memory_order_release);
    ::pthread_atfork(&prepareFork, &afterForkParent, &afterForkChild);
  });
  return *gPool.load(std::memory_order_acquire);
}

}  // namespace

void detail::runOnPool(unsigned threads, void (*call)(void*), void* work) {
  if (threads <= 1 || tlsBatchDepth > 0) {
    call(work);
    return;
  }
  Pool& engine = pool();
  std::lock_guard<std::mutex> batch(engine.batchLock);
  engine.run(threads - 1, call, work);
}

}  // namespace dip::sim
