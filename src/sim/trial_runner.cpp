#include "sim/trial_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/pool.hpp"

namespace dip::sim {

unsigned resolveThreads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("DIP_THREADS")) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0 && parsed <= 1024) {
      return static_cast<unsigned>(parsed);
    }
  }
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

TrialRunner::TrialRunner(TrialConfig config)
    : config_(config), threads_(resolveThreads(config.threads)) {}

namespace {

// The calling thread's trial arena at its current runner nesting depth. A
// runner nested inside a trial body leases the next depth's arena, so it
// never resets the arena the outer trial is still using. Capacity survives
// from batch to batch on the pool's long-lived threads.
class ArenaLease {
 public:
  ArenaLease() {
    if (arenas.size() <= depth) arenas.push_back(std::make_unique<util::Arena>());
    arena_ = arenas[depth].get();
    ++depth;
  }
  ~ArenaLease() { --depth; }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  util::Arena& arena() const { return *arena_; }

 private:
  static thread_local std::vector<std::unique_ptr<util::Arena>> arenas;
  static thread_local std::size_t depth;
  util::Arena* arena_;
};

thread_local std::vector<std::unique_ptr<util::Arena>> ArenaLease::arenas;
thread_local std::size_t ArenaLease::depth = 0;

// Runs count trials on the pool: trial i's context comes from
// contextOf(i, arena) and its outcome goes to store(i, outcome) on the
// thread that ran it (a failed trial stores a default outcome). The
// failure with the smallest i is rethrown once the batch drains.
template <typename ContextOf, typename Store>
void runTrials(unsigned threads, std::uint64_t count, ContextOf&& contextOf,
               const std::function<TrialOutcome(TrialContext&)>& body, Store&& store) {
  // Work is claimed from a shared counter (dynamic load balancing — trials
  // can have very different costs, e.g. adaptive-search provers), but every
  // per-trial input and output depends only on the claimed index.
  std::atomic<std::uint64_t> next{0};

  // First failure by trial index wins, so the surfaced error is stable
  // across schedules too.
  std::mutex failureLock;
  std::uint64_t failureIndex = count;
  std::exception_ptr failure;

  auto worker = [&] {
    const ArenaLease lease;
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      lease.arena().reset();
      TrialContext ctx = contextOf(i, lease.arena());
      TrialOutcome outcome;
      try {
        outcome = body(ctx);
      } catch (...) {
        std::lock_guard<std::mutex> guard(failureLock);
        if (i < failureIndex) {
          failureIndex = i;
          failure = std::current_exception();
        }
      }
      store(i, outcome);
    }
  };

  runOnPool(static_cast<unsigned>(std::min<std::uint64_t>(threads, count)), worker);

  if (failure) std::rethrow_exception(failure);
}

}  // namespace

std::vector<TrialOutcome> TrialRunner::runRange(
    std::uint64_t lo, std::uint64_t hi,
    const std::function<TrialOutcome(TrialContext&)>& body) const {
  const util::Rng master(config_.masterSeed);
  const std::uint64_t count = hi > lo ? hi - lo : 0;
  std::vector<TrialOutcome> results(count);
  runTrials(
      threads_, count,
      [&](std::uint64_t i, util::Arena& arena) {
        const std::uint64_t index = lo + i;
        return TrialContext{static_cast<std::size_t>(index), master.child(index), &arena};
      },
      body, [&](std::uint64_t i, const TrialOutcome& outcome) { results[i] = outcome; });
  return results;
}

void TrialRunner::runBatches(
    std::span<const std::uint64_t> seeds, std::size_t trialsEach,
    const std::function<TrialOutcome(TrialContext&)>& body,
    const std::function<void(std::size_t, std::span<const TrialOutcome>)>& fold) const {
  // Batch m's outcomes live only from its first claimed trial until its
  // fold. Trials are claimed in index order, so about one batch per thread
  // is held at a time, not the whole dispatch.
  struct Batch {
    util::Rng master{0};
    std::once_flag allocated;
    std::vector<TrialOutcome> outcomes;
    std::atomic<std::size_t> remaining{0};
  };
  const auto batches = std::make_unique<Batch[]>(seeds.size());
  for (std::size_t m = 0; m < seeds.size(); ++m) {
    batches[m].master = util::Rng(seeds[m]);
    batches[m].remaining.store(trialsEach, std::memory_order_relaxed);
  }
  runTrials(
      threads_, static_cast<std::uint64_t>(seeds.size()) * trialsEach,
      [&](std::uint64_t i, util::Arena& arena) {
        const std::size_t m = static_cast<std::size_t>(i / trialsEach);
        const std::size_t index = static_cast<std::size_t>(i % trialsEach);
        Batch& batch = batches[m];
        std::call_once(batch.allocated, [&] { batch.outcomes.resize(trialsEach); });
        return TrialContext{index, batch.master.child(index), &arena, m};
      },
      body,
      [&](std::uint64_t i, const TrialOutcome& outcome) {
        const std::size_t m = static_cast<std::size_t>(i / trialsEach);
        Batch& batch = batches[m];
        batch.outcomes[i % trialsEach] = outcome;
        // The thread that stores a batch's last outcome folds it; acq_rel
        // makes every other thread's stores to this batch visible to it.
        if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          fold(m, batch.outcomes);
          std::vector<TrialOutcome>().swap(batch.outcomes);
        }
      });
}

TrialStats TrialRunner::run(std::size_t trials,
                            const std::function<TrialOutcome(TrialContext&)>& body,
                            std::vector<TrialOutcome>* outcomes) const {
  const auto started = std::chrono::steady_clock::now();
  std::vector<TrialOutcome> results = runRange(0, trials, body);
  TrialStats stats = foldOutcomes(results);
  stats.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  if (outcomes) *outcomes = std::move(results);
  return stats;
}

}  // namespace dip::sim
