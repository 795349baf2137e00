// Protocol 1 (Section 3.1): the O(log n)-bit dMAM protocol for Graph
// Symmetry — Theorem 1.1, Sym in dMAM[O(log n)].
//
// Round structure (Merlin-Arthur-Merlin):
//   M1  prover -> nodes:  broadcast root r; unicast (rho_v, t_v, d_v) —
//       the claimed automorphism image, spanning-tree parent and distance.
//   A   nodes -> prover:  each node sends a random hash index i_v in [|H|].
//   M2  prover -> nodes:  broadcast index i (supposedly i_r); unicast
//       subtree hash values a_v, b_v in [p].
// Each node then verifies (Protocol 1, lines 1-4):
//   1. spanning-tree local checks, broadcast consistency;
//   2. C(v) = children under the claimed tree;
//   3. a_v = h_i([v, N(v)]) + sum of children's a values, and
//      b_v = h_i([rho_v, rho(N(v))]) + sum of children's b values, where
//      rho(N(v)) is computable because v sees its neighbors' rho values;
//   4. root only: a_r = b_r, rho_r != r, i = i_r.
//
// Soundness hinges on the commit-then-challenge order: the hash seed is
// drawn AFTER the prover fixed rho, so if rho is not an automorphism the
// two matrix fingerprints collide with probability <= n^2/p <= 1/(10n).
#pragma once

#include <memory>
#include <tuple>
#include <vector>

#include "core/broadcast.hpp"
#include "core/prepared.hpp"
#include "core/result.hpp"
#include "core/sym_frame.hpp"
#include "graph/graph.hpp"
#include "hash/linear_hash.hpp"
#include "net/spanning.hpp"
#include "util/rng.hpp"

namespace dip::core {

// M1: the prover's commitment. Broadcast fields carry per-node overrides so
// that adversarial provers can attempt inconsistent "broadcasts" (which the
// neighbor-consistency check must catch).
struct SymDmamFirstMessage {
  Broadcast<graph::Vertex> rootPerNode;     // Broadcast: claimed root.
  std::vector<graph::Vertex> rho;           // Unicast: claimed image rho_v.
  std::vector<graph::Vertex> parent;        // Unicast: claimed parent t_v.
  std::vector<std::uint32_t> dist;          // Unicast: claimed distance d_v.

  static constexpr const char* kRound = "M1: root/rho/tree";
  static constexpr const char* kLabel = "SymDmam/M1";
  static constexpr auto fields() {
    using M = SymDmamFirstMessage;
    return std::tuple{SymField{&M::rootPerNode, SymWidth::kId}, SymField{&M::rho, SymWidth::kId},
                      SymField{&M::parent, SymWidth::kId}, SymField{&M::dist, SymWidth::kId}};
  }
};

// M2: the prover's response to the challenge.
struct SymDmamSecondMessage {
  Broadcast<util::BigUInt> indexPerNode;    // Broadcast: claimed root index i.
  std::vector<util::BigUInt> a;             // Unicast: subtree hash of sum [u, N(u)].
  std::vector<util::BigUInt> b;             // Unicast: subtree hash of sum [rho(u), rho(N(u))].

  static constexpr const char* kRound = "M2: index echo + chain values";
  static constexpr const char* kLabel = "SymDmam/M2";
  static constexpr auto fields() {
    using M = SymDmamSecondMessage;
    return std::tuple{SymField{&M::indexPerNode, SymWidth::kSeed},
                      SymField{&M::a, SymWidth::kValue}, SymField{&M::b, SymWidth::kValue}};
  }
};

class SymDmamProver {
 public:
  using Instance = graph::Graph;
  using First = SymDmamFirstMessage;
  using Second = SymDmamSecondMessage;

  virtual ~SymDmamProver() = default;
  virtual SymDmamFirstMessage firstMessage(const graph::Graph& g) = 0;
  virtual SymDmamSecondMessage secondMessage(
      const graph::Graph& g, const SymDmamFirstMessage& first,
      const std::vector<util::BigUInt>& challenges) = 0;
};

class SymDmamProtocol {
 public:
  // The family should come from makeProtocol1Family(n, rng) for the paper's
  // parameters; any family over dimension n^2 is accepted (ablations).
  explicit SymDmamProtocol(hash::LinearHashFamily family);

  const hash::LinearHashFamily& family() const { return family_; }

  // Executes one interaction. Node randomness derives from rng. The graph
  // must be connected (the model assumes a connected network).
  RunResult run(const graph::Graph& g, SymDmamProver& prover, util::Rng& rng) const;

  using Rounds = SymRounds<SymDmamFirstMessage, SymDmamSecondMessage>;
  // Structural per-node message sizes for an n-vertex instance (paper
  // parameters p in [10 n^3, 100 n^3]); no execution, no prime search.
  static CostBreakdown costModel(std::size_t n);
  // The widths costModel charges.
  static SymWidths modelWidths(std::size_t n);

  // Node v's decision function, exposed for white-box tests. Only v's local
  // view is consulted: its closed neighborhood, its own challenge, and the
  // M1/M2 fields of itself and its neighbors.
  bool nodeDecision(const graph::Graph& g, graph::Vertex v,
                    const SymDmamFirstMessage& first,
                    const util::BigUInt& ownChallenge,
                    const SymDmamSecondMessage& second) const;

 private:
  hash::LinearHashFamily family_;
};

// ---- Provers ----

// The honest prover of Theorem 3.4: finds a non-trivial automorphism, roots
// a BFS tree at a moved vertex, echoes the root's challenge, and aggregates
// subtree hashes exactly as equation (1) prescribes. The graph-only part
// comes from the thread's prepared instance (core/prepared.hpp), so
// secondMessage answers for the first message this prover sends on g and
// does not read `first`.
class HonestSymDmamProver : public SymDmamProver {
 public:
  explicit HonestSymDmamProver(const hash::LinearHashFamily& family);
  SymDmamFirstMessage firstMessage(const graph::Graph& g) override;
  SymDmamSecondMessage secondMessage(const graph::Graph& g,
                                     const SymDmamFirstMessage& first,
                                     const std::vector<util::BigUInt>& challenges) override;

 private:
  const hash::LinearHashFamily& family_;
};

// Cheating prover for NON-symmetric graphs: commits to a fake rho produced
// by a pluggable strategy, then plays the rest of the protocol honestly
// (correct tree, correct chain sums for its fake rho). This is the optimal
// cheating strategy class — every other deviation is caught
// deterministically by a local check — so its acceptance rate measures the
// soundness error <= n^2/p directly.
class CheatingRhoProver : public SymDmamProver {
 public:
  enum class Strategy {
    kRandomPermutation,   // Uniform non-identity permutation.
    kTransposition,       // Swap two same-degree vertices (best effort).
    kIdentity,            // rho = id: must be caught by the rho_r != r check.
  };
  CheatingRhoProver(const hash::LinearHashFamily& family, Strategy strategy,
                    std::uint64_t seed);
  SymDmamFirstMessage firstMessage(const graph::Graph& g) override;
  SymDmamSecondMessage secondMessage(const graph::Graph& g,
                                     const SymDmamFirstMessage& first,
                                     const std::vector<util::BigUInt>& challenges) override;

 private:
  const hash::LinearHashFamily& family_;
  Strategy strategy_;
  util::Rng rng_;
};

// Corrupts one subtree hash value of an otherwise honest run; the local
// chain check at the corrupted node's parent (or the node itself) must
// catch this deterministically.
class HashChainLiarProver : public SymDmamProver {
 public:
  HashChainLiarProver(const hash::LinearHashFamily& family, std::uint64_t seed);
  SymDmamFirstMessage firstMessage(const graph::Graph& g) override;
  SymDmamSecondMessage secondMessage(const graph::Graph& g,
                                     const SymDmamFirstMessage& first,
                                     const std::vector<util::BigUInt>& challenges) override;

 private:
  const hash::LinearHashFamily& family_;
  HonestSymDmamProver inner_;
  util::Rng rng_;
};

}  // namespace dip::core
