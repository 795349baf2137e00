// dip::core high-level API — one-call entry points that bundle parameter
// choice, prover construction, and protocol execution. This is the facade a
// downstream user starts from; the per-protocol classes remain available
// for anything custom (adversarial provers, ablations, cost studies).
#pragma once

#include <cstdint>
#include <optional>

#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/result.hpp"
#include "graph/graph.hpp"

namespace dip::core {

// Outcome of a high-level decision call.
struct Decision {
  bool accepted = false;              // Did the interactive proof go through?
  std::size_t maxBitsPerNode = 0;     // The paper's cost measure, exact.
  std::size_t rounds = 0;             // Message rounds used.
  bool proverHadWitness = false;      // Honest prover found what it needed.
};

// Options common to the decision calls.
struct DecideOptions {
  std::uint64_t seed = 1;        // Verifier randomness (deterministic replay).
  std::size_t repetitions = 1;   // AND-amplification for one-sided protocols.
};

// Decides whether the network graph is symmetric with Protocol 1
// (dMAM[O(log n)]). The graph must be connected. Returns accepted = false
// with proverHadWitness = false when the graph is rigid (the honest prover
// cannot lie; this is the protocol refusing, not failing).
Decision decideSymmetry(const graph::Graph& network, const DecideOptions& options = {});

// Decides whether an INPUT graph (rows held by the nodes of `network`) is
// symmetric — the input-convention variant.
Decision decideInputSymmetry(const graph::Graph& network, const graph::Graph& input,
                             const DecideOptions& options = {});

// Decides Graph Non-Isomorphism with the distributed Goldwasser-Sipser
// protocol. Uses the rigid-input protocol when both graphs are rigid and
// the automorphism-compensated general protocol otherwise (the paper's
// composition). Exponential-time honest prover: intended for small n.
// Throws std::invalid_argument for n > 15, where the Goldwasser-Sipser field
// is wider than the prover's preimage search takes (core/gni_search.hpp).
Decision decideNonIsomorphism(const graph::Graph& g0, const graph::Graph& g1,
                              const DecideOptions& options = {});

}  // namespace dip::core
