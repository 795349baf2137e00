// The soundness stress tier: drives the standard mutator battery against a
// soundness instance of every protocol and certifies the paper's <= 1/3
// cheating bound with Wilson intervals.
//
// Each protocol entry builds its instance, its base (classically cheating
// or honest-on-NO) prover and its Mutant* adapter deterministically from
// StressOptions::masterSeed, then runs trialsPerMutator trials per mutator,
// all mutators in one TrialRunner::runBatches dispatch. Trial t of mutator
// m draws everything from
// Rng(digestCombine(digestCombine(masterSeed, protocolIndex), m)).child(t),
// so any accepting mutant is reproducible from the printed master seed
// alone — thread count never changes a report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trial.hpp"
#include "util/mathutil.hpp"

namespace dip::adv {

struct StressOptions {
  // 96 trials x 11 mutators = 1056 trials per protocol (the full profile);
  // CI's quick gate drops this to a handful per mutator.
  std::size_t trialsPerMutator = 96;
  std::uint64_t masterSeed = 0xE14;
  unsigned threads = 0;  // TrialConfig semantics: 0 = DIP_THREADS / hardware.
};

// One row of a report: the battery outcome for a single mutator.
struct MutatorCell {
  std::string mutator;             // MessageMutator::name().
  // accepts == verifier-fooling successes. wallSeconds is this cell's equal
  // share of the whole battery's wall time (one dispatch runs every cell).
  sim::TrialStats stats;
  std::size_t decodeRejected = 0;  // Mutants caught at the wire boundary.
};

struct SoundnessStressReport {
  std::string protocol;
  std::size_t numNodes = 0;
  std::uint64_t masterSeed = 0;
  std::vector<MutatorCell> cells;

  std::size_t totalTrials() const;
  std::size_t totalAccepts() const;
  std::size_t totalDecodeRejected() const;
  util::WilsonInterval overall() const {
    return util::wilson95(totalAccepts(), totalTrials());
  }
  // The certification the acceptance criteria ask for: the 95% Wilson upper
  // bound on overall mutant success stays under the soundness error.
  bool soundnessCertified(double bound = 1.0 / 3.0) const {
    return overall().high <= bound;
  }
};

using StressFn = SoundnessStressReport (*)(const StressOptions&);

struct StressProtocolEntry {
  const char* name;
  StressFn run;
};

// All six protocols, in a fixed order (the protocol index feeds the
// per-protocol seed derivation, so this order is part of the repro recipe).
const std::vector<StressProtocolEntry>& stressProtocols();

// Individual entries (exposed for targeted tests).
SoundnessStressReport stressSymDmam(const StressOptions& options);
SoundnessStressReport stressSymDam(const StressOptions& options);
SoundnessStressReport stressDSym(const StressOptions& options);
SoundnessStressReport stressSymInput(const StressOptions& options);
SoundnessStressReport stressGniAmam(const StressOptions& options);
SoundnessStressReport stressGniGeneral(const StressOptions& options);

}  // namespace dip::adv
