// Protocol 2 (Section 3.2): the O(n log n)-bit dAM protocol for Graph
// Symmetry — Theorem 1.3, Sym in dAM[O(n log n)].
//
// In dAM the challenge comes FIRST, so the prover cannot be forced to
// commit to the permutation before seeing the hash seed. The paper's fix is
// twofold: broadcast the ENTIRE mapping rho (n ceil(log n) bits), and use a
// hash over a prime p in [10 n^(n+2), 100 n^(n+2)] — large enough that a
// union bound over all n^n candidate mappings still leaves collision
// probability < 1/3 (proof of Theorem 3.5). Note the verifiers never check
// that rho is a permutation: by Lemma 3.1, equality of the two matrix
// fingerprint sums already forces rho to be an automorphism (and in
// particular a permutation).
//
// Round structure (Arthur-Merlin):
//   A   nodes -> prover:  random hash index i_v in [p]  (O(n log n) bits).
//   M   prover -> nodes:  broadcast (rho : V -> V, index i, root r);
//                         unicast (t_v, d_v, a_v, b_v).
// Verification is Protocol 2 lines 1-4 (same chains as Protocol 1, but each
// node evaluates rho itself from the broadcast copy).
//
// The AdaptiveCollisionProver implements the attack this protocol must
// resist: it sees the seed BEFORE choosing rho and searches mappings for a
// fingerprint collision. With the paper's parameters the search is hopeless;
// with a short (Protocol 1-sized) hash it succeeds easily — the E8 ablation.
#pragma once

#include <tuple>
#include <vector>

#include "core/broadcast.hpp"
#include "core/result.hpp"
#include "core/sym_frame.hpp"
#include "graph/graph.hpp"
#include "hash/linear_hash.hpp"
#include "net/spanning.hpp"
#include "util/rng.hpp"

namespace dip::core {

struct SymDamMessage {
  // Broadcast fields (per-node overrides so cheaters can try inconsistency;
  // an honest message holds one rho).
  Broadcast<std::vector<graph::Vertex>> rhoPerNode;  // The full mapping.
  Broadcast<util::BigUInt> indexPerNode;
  Broadcast<graph::Vertex> rootPerNode;
  // Unicast fields.
  std::vector<graph::Vertex> parent;
  std::vector<std::uint32_t> dist;
  std::vector<util::BigUInt> a;
  std::vector<util::BigUInt> b;

  static constexpr const char* kRound = "M: rho/index/root/tree/chains";
  static constexpr const char* kLabel = "SymDam/M";
  static constexpr auto fields() {
    using M = SymDamMessage;
    return std::tuple{SymField{&M::rhoPerNode, SymWidth::kId, SymCount::kNodes},
                      SymField{&M::indexPerNode, SymWidth::kSeed},
                      SymField{&M::rootPerNode, SymWidth::kId},
                      SymField{&M::parent, SymWidth::kId},
                      SymField{&M::dist, SymWidth::kId},
                      SymField{&M::a, SymWidth::kValue},
                      SymField{&M::b, SymWidth::kValue}};
  }
};

class SymDamProver {
 public:
  using Message = SymDamMessage;

  virtual ~SymDamProver() = default;
  virtual SymDamMessage respond(const graph::Graph& g,
                                const std::vector<util::BigUInt>& challenges) = 0;
};

class SymDamProtocol {
 public:
  // Use makeProtocol2Family(n, rng) for the paper's parameters, or
  // makeProtocol1Family for the E8 "short hash" ablation.
  explicit SymDamProtocol(hash::LinearHashFamily family);

  const hash::LinearHashFamily& family() const { return family_; }

  RunResult run(const graph::Graph& g, SymDamProver& prover, util::Rng& rng) const;

  using Rounds = SymRounds<SymDamMessage>;
  // Structural cost with the paper's p in [10 n^(n+2), 100 n^(n+2)]:
  // Theta(n log n) bits per node.
  static CostBreakdown costModel(std::size_t n);
  // The widths costModel charges.
  static SymWidths modelWidths(std::size_t n);

  bool nodeDecision(const graph::Graph& g, graph::Vertex v, const SymDamMessage& msg,
                    const util::BigUInt& ownChallenge) const;

 private:
  hash::LinearHashFamily family_;
};

// Honest prover: real automorphism (from the thread's prepared instance),
// echoes the root's index.
class HonestSymDamProver : public SymDamProver {
 public:
  explicit HonestSymDamProver(const hash::LinearHashFamily& family);
  SymDamMessage respond(const graph::Graph& g,
                        const std::vector<util::BigUInt>& challenges) override;

 private:
  const hash::LinearHashFamily& family_;
};

// Adaptive cheater for NON-symmetric graphs: sees the seed, then samples up
// to `searchBudget` random non-identity mappings sigma : V -> V looking for
// h_i(sum [v, N(v)]) == h_i(sum [sigma(v), sigma(N(v))]); falls back to the
// best-effort mapping if none found. Measures how much adaptivity buys
// against a given hash size.
class AdaptiveCollisionProver : public SymDamProver {
 public:
  AdaptiveCollisionProver(const hash::LinearHashFamily& family, std::size_t searchBudget,
                          std::uint64_t seed);
  SymDamMessage respond(const graph::Graph& g,
                        const std::vector<util::BigUInt>& challenges) override;

  // True if the last respond() found a genuine fingerprint collision.
  bool lastSearchSucceeded() const { return lastSearchSucceeded_; }

 private:
  const hash::LinearHashFamily& family_;
  std::size_t searchBudget_;
  util::Rng rng_;
  bool lastSearchSucceeded_ = false;
};

// Fingerprint of sum_v [sigma(v), sigma(N(v))] under h_index — the quantity
// both sides of the root equality check reduce to (exposed for tests and
// for the adaptive search).
util::BigUInt mappedMatrixFingerprint(const graph::Graph& g,
                                      const hash::LinearHashFamily& family,
                                      const util::BigUInt& index,
                                      const std::vector<graph::Vertex>& sigma);

}  // namespace dip::core
