// Trial-level result types for the parallel simulation engine.
//
// A "trial" is one independent protocol execution (one prover instance, one
// Rng stream). The engine (trial_runner.hpp) runs batches of trials across
// a thread pool; everything here is the deterministic part of the contract:
// a TrialOutcome is a pure function of (master seed, trial index, instance),
// and TrialStats is the index-ordered fold of the outcomes — so both are
// bit-identical for every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/mathutil.hpp"

namespace dip::sim {

// What one trial reports back. `digest` is a 64-bit fingerprint of whatever
// per-trial detail the body wants regression-checked (transcript bits,
// message hashes, ...); the runner folds it into TrialStats::digest in trial
// index order, so any divergence across thread counts or code changes shows
// up as a digest change.
struct TrialOutcome {
  bool accepted = false;
  std::size_t maxPerNodeBits = 0;
  std::uint64_t digest = 0;

  bool operator==(const TrialOutcome& other) const = default;
};

// Aggregate over a batch. All fields except wallSeconds are deterministic
// (wall time is measurement, not simulation — exclude it when comparing).
struct TrialStats {
  std::size_t accepts = 0;
  std::size_t trials = 0;
  std::size_t maxPerNodeBits = 0;  // Max over trials of the per-trial max.
  std::uint64_t digest = 0;        // Index-ordered fold of trial digests.
  double wallSeconds = 0.0;

  double rate() const {
    return trials == 0 ? 0.0 : static_cast<double>(accepts) / static_cast<double>(trials);
  }
  util::WilsonInterval interval() const { return util::wilson95(accepts, trials); }

  // Equality of the deterministic fields only (the determinism contract).
  bool sameResults(const TrialStats& other) const {
    return accepts == other.accepts && trials == other.trials &&
           maxPerNodeBits == other.maxPerNodeBits && digest == other.digest;
  }
};

// Order-dependent 64-bit combiner used for the stats digest (Boost-style
// mixing; collisions are irrelevant here, divergence detection is the goal).
inline std::uint64_t digestCombine(std::uint64_t acc, std::uint64_t value) {
  acc ^= value + 0x9E3779B97F4A7C15ull + (acc << 6) + (acc >> 2);
  return acc;
}

// THE index-ordered deterministic merge. Both execution substrates — the
// in-process TrialRunner and the multi-process DistributedRunner — produce a
// per-trial outcome vector ordered by global trial index and fold it through
// this one function, so stats are byte-identical regardless of thread count,
// worker count, or arrival order. wallSeconds is measurement and is set by
// the caller, not here.
inline TrialStats foldOutcomes(std::span<const TrialOutcome> outcomes) {
  TrialStats stats;
  stats.trials = outcomes.size();
  for (const TrialOutcome& outcome : outcomes) {
    if (outcome.accepted) ++stats.accepts;
    if (outcome.maxPerNodeBits > stats.maxPerNodeBits) {
      stats.maxPerNodeBits = outcome.maxPerNodeBits;
    }
    stats.digest = digestCombine(stats.digest, outcome.digest);
    stats.digest = digestCombine(stats.digest, outcome.accepted ? 1 : 0);
    stats.digest = digestCombine(stats.digest, outcome.maxPerNodeBits);
  }
  return stats;
}

}  // namespace dip::sim
