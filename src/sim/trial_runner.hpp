// The deterministic parallel trial engine.
//
// TrialRunner fans a batch of independent protocol trials across the
// process-wide engine pool (sim/pool.hpp). Determinism contract (see
// docs/SIMULATION.md):
//
//   1. Trial t draws all of its randomness from a counter-based stream
//      derived as Rng(masterSeed).child(t) — a pure function of
//      (masterSeed, t), independent of scheduling, thread count, and of
//      every other trial.
//   2. Each trial writes its TrialOutcome into its own slot of a
//      preallocated results array; after the batch drains, the runner folds
//      the slots in trial-index order into TrialStats. No accumulator is
//      shared between workers, so there is no merge-order race to get wrong.
//   3. Shared inputs (protocol, instance, hash family) are captured by
//      const reference and must not be mutated by trial bodies. Protocol
//      run() paths are const and allocate per-run state locally, so
//      concurrent trials are safe — the tsan preset guards this.
//
// Exceptions thrown by a trial body (including the DIP_AUDIT logic_error
// cross-checks, which stay armed inside workers) are captured, the batch is
// drained, and the first one (by trial index) is rethrown on the caller's
// thread.
//
// A runner called from inside a trial body runs its batch inline on the
// calling thread (the pool's nesting rule), which by contract 1 gives the
// same outcomes as any other thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/trial.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace dip::sim {

// Per-trial view handed to the body: the trial's index within its batch,
// which batch it belongs to (always 0 outside runBatches), its private
// counter-derived stream, and a scratch arena owned by the running thread.
// The arena is reset before every trial (so slices never leak between
// trials, and under ASan a stale cross-trial pointer faults); trial bodies
// may bump-allocate per-round scratch from it without touching the heap. A
// nested runner inside the body gets a different arena, so it never resets
// the outer trial's. It is never null inside run().
struct TrialContext {
  std::size_t index = 0;
  util::RngStream rng{0};
  util::Arena* arena = nullptr;
  std::size_t batch = 0;
};

struct TrialConfig {
  std::uint64_t masterSeed = 0;
  // 0 = resolve from the DIP_THREADS environment variable, falling back to
  // the hardware concurrency. Any positive value is taken as-is.
  unsigned threads = 0;
};

// The thread count a config resolves to (exposed so benches can report it).
// resolveThreads(0) consults DIP_THREADS, then std::thread::hardware_concurrency().
unsigned resolveThreads(unsigned requested);

class TrialRunner {
 public:
  explicit TrialRunner(TrialConfig config);

  unsigned threads() const { return threads_; }
  std::uint64_t masterSeed() const { return config_.masterSeed; }

  // Runs `trials` executions of `body` and folds the outcomes in index
  // order. If `outcomes` is non-null it receives the full per-trial vector
  // (the determinism tests compare these across thread counts).
  TrialStats run(std::size_t trials,
                 const std::function<TrialOutcome(TrialContext&)>& body,
                 std::vector<TrialOutcome>* outcomes = nullptr) const;

  // Runs the GLOBAL trial indices [lo, hi) and returns their outcomes, with
  // outcome i corresponding to global index lo + i. ctx.index and the
  // counter-derived stream both use the global index, so a range run is a
  // verbatim slice of the full run: run(n, body) is runRange(0, n, body)
  // folded through sim::foldOutcomes. This is the seed-range primitive the
  // distributed workers execute — any partition of [0, n) into ranges,
  // concatenated back in index order, reproduces the single-process fold
  // bit for bit.
  std::vector<TrialOutcome> runRange(
      std::uint64_t lo, std::uint64_t hi,
      const std::function<TrialOutcome(TrialContext&)>& body) const;

  // Runs seeds.size() batches of trialsEach trials as ONE pool dispatch.
  // Trial t of batch m sees ctx.batch = m, ctx.index = t and the stream
  // Rng(seeds[m]).child(t), exactly as run(trialsEach, body) on a runner
  // seeded with seeds[m] would; the runner's own masterSeed is not used.
  // When batch m's last trial finishes, fold(m, outcomes) receives its
  // trialsEach outcomes in index order, on whichever engine thread finished
  // it (folds of different batches may run concurrently; fold must not
  // throw). A batch's outcomes are released after its fold, so the engine
  // holds about one batch per thread, not the whole dispatch. A throwing
  // body surfaces the failure with the smallest (m, t) after every fold.
  void runBatches(
      std::span<const std::uint64_t> seeds, std::size_t trialsEach,
      const std::function<TrialOutcome(TrialContext&)>& body,
      const std::function<void(std::size_t, std::span<const TrialOutcome>)>& fold) const;

 private:
  TrialConfig config_;
  unsigned threads_;
};

}  // namespace dip::sim
