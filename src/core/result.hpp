// Shared result types for protocol executions.
#pragma once

#include <cstddef>

#include "net/transcript.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace dip::core {

// Outcome of one protocol execution against one prover.
struct RunResult {
  bool accepted = false;           // All nodes accepted.
  net::Transcript transcript{0};   // Exact bit accounting for the run.
};

// Empirical acceptance statistics over repeated independent executions.
struct AcceptanceStats {
  std::size_t accepts = 0;
  std::size_t trials = 0;
  util::WilsonInterval interval() const { return util::wilson95(accepts, trials); }
  double rate() const {
    return trials == 0 ? 0.0 : static_cast<double>(accepts) / static_cast<double>(trials);
  }
};

// Serial acceptance estimate: `trials` runs of protocol.run(instance,
// *proverFactory(), rng), one after another on the caller's rng. A factory
// may be stateful per run. sim::estimateAcceptance is the parallel, seeded
// form.
template <typename Protocol, typename Instance, typename ProverFactory>
AcceptanceStats estimateAcceptance(const Protocol& protocol, const Instance& instance,
                                   ProverFactory&& proverFactory, std::size_t trials,
                                   util::Rng& rng) {
  AcceptanceStats stats;
  stats.trials = trials;
  for (std::size_t t = 0; t < trials; ++t) {
    auto prover = proverFactory();
    if (protocol.run(instance, *prover, rng).accepted) ++stats.accepts;
  }
  return stats;
}

// Structural message-size breakdown of a protocol for a given instance
// size, independent of any actual execution (message schedules do not
// depend on the prover's search, so cost curves extend to large n).
struct CostBreakdown {
  std::size_t bitsToProverPerNode = 0;    // Challenge bits (charged, as the paper does).
  std::size_t bitsFromProverPerNode = 0;  // Response bits (max over nodes).
  std::size_t totalPerNode() const { return bitsToProverPerNode + bitsFromProverPerNode; }
};

}  // namespace dip::core
