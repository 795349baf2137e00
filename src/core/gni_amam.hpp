// The O(n log n)-bit dAMAM protocol for Graph Non-Isomorphism (Section 4,
// Theorem 1.5) — a distributed version of the Goldwasser-Sipser set-size
// lower bound protocol [15].
//
// Setting (Definition 4): the network graph is G0; each node v additionally
// receives its row N_G1(v) of a second graph G1 as input. Both graphs are
// assumed RIGID (asymmetric) — the paper makes the same restriction and
// handles general graphs by composing with the Sym protocol of Section 3.2.
//
// Idea: let S = { sigma(G_b) : sigma a permutation, b in {0,1} } (all
// matrices taken with self-loops). If G0 !~ G1 then |S| = 2 n!; if G0 ~ G1
// then |S| = n! (rigidity makes sigma -> sigma(G_b) injective per side).
// The verifiers estimate |S|: they choose a hash H into {0,1}^ell with
// 2^ell ~ 4 n! and a target y, and the prover must exhibit x in S with
// H(x) = y. Averaged over uniform y, each candidate is hit with probability
// exactly 2^-ell, so
//     Pr[exists x in S : H(x) = y]  >=  2q - 2 q^2 (1 + eps)   (G0 !~ G1)
//     Pr[exists x in S : H(x) = y]  <=  q                      (G0 ~ G1)
// where q = n!/2^ell and eps is the hash's almost-pairwise-independence
// slack — a constant multiplicative gap, amplified to 2/3 vs 1/3 by k
// parallel repetitions with a threshold count.
//
// Round structure (Arthur-Merlin-Arthur-Mertin; tree root fixed at node 0):
//   A1  every node sends, per repetition: an eps-API seed (A, alpha, beta)
//       and a target y — the prover uses node 0's copies. O(k n log n) bits.
//   M1  prover: broadcasts the echo of node 0's challenges, a claimed bit
//       per repetition, and b_j; unicasts the spanning tree (t_v, d_v) and,
//       per claimed repetition, sigma_j(v) POINTWISE plus, when b_j = 1,
//       the claimed images of v's G1-neighbors (v cannot see those nodes'
//       commitments — G1 edges are not communication links).
//   A2  every node sends a fresh linear-hash index for the commitment
//       checks (the prover is now committed to every sigma_j).
//   M2  prover: broadcasts the echo of node 0's check index; unicasts per
//       claimed repetition the subtree sums for (i) the Goldwasser-Sipser
//       inner hash of sigma_j(G_b), (ii) the permutation check, and
//       (iii) when b_j = 1, the claimed-image consistency check.
//
// The two M2 commitment checks are what the extra Arthur round buys:
//   * permutation check — fingerprint of sum_v [v, e_v] (the identity
//     matrix, locally known) vs sum_v [sigma(v), e_sigma(v)]; equal iff
//     sigma is a permutation (a missing row stays zero on one side);
//   * consistency check (b = 1) — fingerprint of the "claims" matrix
//     sum_v sum_{u in N1(v)} [u, e_claim(v,u)] vs the reference
//     sum_u (deg1(u)+1) [u, e_sigma(u)]; entries are counts < n, so over
//     Z_p' equality holds iff every claim matches the owner's commitment.
// Both hashes use the FRESH A2 seed, so each check fails to catch a lie
// with probability <= n^2/p' — chosen negligible.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/result.hpp"
#include "graph/graph.hpp"
#include "hash/eps_api.hpp"
#include "hash/linear_hash.hpp"
#include "net/spanning.hpp"
#include "util/rng.hpp"

namespace dip::core {

// A Graph Non-Isomorphism instance. g0 must be connected (it is the
// network); g1 arrives row-by-row as node inputs.
struct GniInstance {
  graph::Graph g0;
  graph::Graph g1;
};

// YES-instance: two rigid, connected, non-isomorphic graphs on n vertices.
GniInstance gniYesInstance(std::size_t n, util::Rng& rng);
// NO-instance: g1 is a scrambled isomorphic copy of a rigid connected g0.
GniInstance gniNoInstance(std::size_t n, util::Rng& rng);

// Protocol parameters, derived from n (see DESIGN.md 4.5 for the math).
struct GniParams {
  std::size_t n = 0;
  std::size_t ell = 0;          // Output bits, 2^ell in [4 n!, 8 n!).
  std::size_t repetitions = 0;  // k.
  std::size_t threshold = 0;    // Accept iff >= threshold repetitions claimed+verified.
  double perRoundYesLb = 0.0;
  double perRoundNoUb = 0.0;
  hash::EpsApiHash gsHash;           // Goldwasser-Sipser hash (shared; fresh seeds/rep).
  hash::LinearHashFamily checkFamily;  // Fresh-seed commitment checks.

  // Throws std::invalid_argument for n < 2 and for n > 15, whose field is
  // wider than the honest prover's search takes (kMaxSearchFieldBits).
  static GniParams choose(std::size_t n, util::Rng& rng);
};

// One node's A1 challenge content for one repetition.
struct GniChallenge {
  hash::EpsApiHash::Seed seed;
  util::BigUInt y;

  bool operator==(const GniChallenge& other) const {
    return seed.a == other.seed.a && seed.alpha == other.seed.alpha &&
           seed.beta == other.seed.beta && y == other.y;
  }
};

// What one node receives in M1. Broadcast fields are per-node copies so
// that adversarial provers can attempt inconsistent broadcasts.
struct GniM1PerNode {
  graph::Vertex root = 0;                 // Broadcast (must be 0).
  graph::Vertex parent = 0;               // Unicast.
  std::uint32_t dist = 0;                 // Unicast.
  std::vector<GniChallenge> echo;         // Broadcast copy, [rep].
  std::vector<std::uint8_t> claimed;      // Broadcast copy, [rep].
  std::vector<std::uint8_t> b;            // Broadcast copy, [rep].
  std::vector<graph::Vertex> s;           // Unicast: own sigma_j(v), [rep].
  // Unicast, only for claimed reps with b = 1: claimed images of v's CLOSED
  // G1-neighborhood, aligned with the sorted closed neighbor list
  // (claims[rep][i] = claimed sigma of the i-th closed G1-neighbor of v).
  std::vector<std::vector<graph::Vertex>> claims;
};

struct GniM2PerNode {
  util::BigUInt checkSeed;                // Broadcast copy of node 0's A2 index.
  // Per repetition (entries for unclaimed reps are ignored / zero):
  std::vector<util::BigUInt> h;           // GS inner subtree sums.
  std::vector<util::BigUInt> permI;       // Identity-matrix side subtree sums.
  std::vector<util::BigUInt> permS;       // sigma-side subtree sums.
  std::vector<util::BigUInt> consC;       // Claims-matrix side (b=1 only).
  std::vector<util::BigUInt> consT;       // Reference side (b=1 only).
};

struct GniFirstMessage {
  std::vector<GniM1PerNode> perNode;
};
struct GniSecondMessage {
  std::vector<GniM2PerNode> perNode;
};

class GniProver {
 public:
  virtual ~GniProver() = default;
  virtual GniFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) = 0;
  virtual GniSecondMessage secondMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges,
      const GniFirstMessage& first,
      const std::vector<util::BigUInt>& checkChallenges) = 0;
};

class GniAmamProtocol {
 public:
  explicit GniAmamProtocol(GniParams params);

  const GniParams& params() const { return params_; }

  RunResult run(const GniInstance& instance, GniProver& prover, util::Rng& rng) const;

  template <typename ProverFactory>
  AcceptanceStats estimateAcceptance(const GniInstance& instance,
                                     ProverFactory&& proverFactory, std::size_t trials,
                                     util::Rng& rng) const {
    AcceptanceStats stats;
    stats.trials = trials;
    for (std::size_t t = 0; t < trials; ++t) {
      auto prover = proverFactory();
      if (run(instance, *prover, rng).accepted) ++stats.accepts;
    }
    return stats;
  }

  // Single-repetition variant: Pr[prover can claim one repetition] — the
  // quantity with the 2q vs q gap; cheaper to estimate than the amplified
  // protocol and what E5 reports alongside it.
  AcceptanceStats estimatePerRoundHit(const GniInstance& instance, std::size_t trials,
                                      util::Rng& rng) const;

  // One per-repetition hit trial (the loop body of estimatePerRoundHit),
  // exposed so the trial engine can run hits as independent seeded trials.
  bool perRoundHitOnce(const GniInstance& instance, util::Rng& rng) const;

  // Structural cost model (bits per node) for instance size n with k
  // repetitions; no prime search. Theta(k * n log n).
  static CostBreakdown costModel(std::size_t n, std::size_t repetitions);

  bool nodeDecision(const GniInstance& instance, graph::Vertex v,
                    const GniFirstMessage& first, const GniSecondMessage& second,
                    const std::vector<GniChallenge>& ownChallenges,
                    const util::BigUInt& ownCheckChallenge) const;

 private:
  GniParams params_;
};

// The honest (computationally unbounded) prover: decides isomorphism
// outright, and per repetition enumerates all 2 n! candidates (sigma, b)
// searching for a preimage of y; claims exactly the repetitions where one
// exists.
class HonestGniProver : public GniProver {
 public:
  explicit HonestGniProver(const GniParams& params);
  GniFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) override;
  GniSecondMessage secondMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges,
      const GniFirstMessage& first,
      const std::vector<util::BigUInt>& checkChallenges) override;

  // Exposed for analysis: did repetition j find a preimage in the last
  // firstMessage call?
  const std::vector<std::uint8_t>& lastClaims() const { return lastClaims_; }

 private:
  struct Found {
    graph::Permutation sigma;
    std::uint8_t b = 0;
  };
  const GniParams& params_;
  std::vector<std::uint8_t> lastClaims_;
  std::vector<std::optional<Found>> lastFound_;
  // The BFS tree of the last firstMessage call and its bottom-up order,
  // which secondMessage sums along.
  net::SpanningTreeAdvice tree_;
  std::vector<graph::Vertex> order_;
};

// The optimal cheating prover IS the honest prover (every message is forced
// given (sigma_j, b_j), and the honest search already maximizes the number
// of claimable repetitions); on isomorphic instances its claim rate is the
// soundness error. A separate adversary probes the commitment checks with a
// non-permutation sigma, which the permutation check must catch.
class NonPermutationGniProver : public GniProver {
 public:
  NonPermutationGniProver(const GniParams& params, std::uint64_t seed);
  GniFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) override;
  GniSecondMessage secondMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges,
      const GniFirstMessage& first,
      const std::vector<util::BigUInt>& checkChallenges) override;

 private:
  const GniParams& params_;
  util::Rng rng_;
};

}  // namespace dip::core
