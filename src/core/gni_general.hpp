// General-input GNI: the automorphism-compensated Goldwasser-Sipser
// protocol (Section 4's "fixed cleverly in [15]" remark, made distributed).
//
// The basic protocol (gni_amam.hpp) counts S = {sigma(G_b)} and needs
// |S| = 2 n! vs n!; if an input graph is symmetric, distinct permutations
// produce the same graph and the count shrinks by |Aut|. The classical fix
// has the prover exhibit, together with sigma(G_b), an AUTOMORPHISM alpha
// of it: over
//     S = { (H, alpha) : H = sigma(G_b), alpha in Aut(H) }
// each isomorphism class contributes exactly (n!/|Aut|) * |Aut| = n! pairs,
// so |S| = 2 n! iff G0 !~ G1 and n! otherwise — for ALL inputs.
//
// Distributed realization (four rounds, root fixed at node 0):
//   A1  per repetition: eps-API seed over (2n x 2n) matrices + target y.
//   M1  prover commits POINTWISE: s_v = sigma(v) and a_v = alpha(sigma(v));
//       for b = 1 it also claims the commitments of v's G1-neighbors
//       (their graph edges are not communication links).
//   A2  fresh linear-hash index for the commitment checks.
//   M2  subtree sums for: the Goldwasser-Sipser hash of the PAIR (H, alpha)
//       (H's rows at indices 0..n-1, alpha's permutation matrix at indices
//       n..2n-1); the sigma- and alpha-permutation checks; the
//       automorphism check  sum_u [u, H_u] == sum_u [alpha(u), alpha(H_u)]
//       (Lemma 3.1 applied to H); and, for b = 1, the claimed-commitment
//       consistency checks.
// Per-node cost stays O(n log n) per repetition.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gni_amam.hpp"  // GniInstance, GniChallenge, AcceptanceStats.
#include "core/gni_search.hpp"
#include "core/result.hpp"
#include "hash/eps_api.hpp"
#include "hash/linear_hash.hpp"
#include "util/rng.hpp"

namespace dip::core {

struct GniGeneralParams {
  std::size_t n = 0;
  std::size_t ell = 0;
  std::size_t repetitions = 0;
  std::size_t threshold = 0;
  double perRoundYesLb = 0.0;
  double perRoundNoUb = 0.0;
  hash::EpsApiHash gsHash;             // Over (2n) x (2n) matrices.
  hash::LinearHashFamily checkFamily;  // Dimension n^2, fresh-seed checks.

  static GniGeneralParams choose(std::size_t n, util::Rng& rng);
};

struct GniGenM1PerNode {
  graph::Vertex root = 0;
  graph::Vertex parent = 0;
  std::uint32_t dist = 0;
  std::vector<GniChallenge> echo;      // Broadcast copy, [rep].
  std::vector<std::uint8_t> claimed;   // Broadcast copy, [rep].
  std::vector<std::uint8_t> b;         // Broadcast copy, [rep].
  std::vector<graph::Vertex> s;        // Unicast: sigma(v), [rep].
  std::vector<graph::Vertex> a;        // Unicast: alpha(sigma(v)), [rep].
  // For claimed reps with b = 1, aligned with sorted closed G1 neighbors:
  std::vector<std::vector<graph::Vertex>> sClaims;  // [rep][idx].
  std::vector<std::vector<graph::Vertex>> aClaims;  // [rep][idx].
};

struct GniGenM2PerNode {
  util::BigUInt checkSeed;  // Broadcast copy.
  // Per repetition subtree sums (ignored for unclaimed reps):
  std::vector<util::BigUInt> h;         // GS hash of (H, alpha), field P.
  std::vector<util::BigUInt> identity;  // sum [v, e_v] chain (shared I side).
  std::vector<util::BigUInt> permS;     // sum [s_v, e_s_v].
  std::vector<util::BigUInt> permA;     // sum [a_v, e_a_v].
  std::vector<util::BigUInt> autL;      // sum [s_v, Hrow_v].
  std::vector<util::BigUInt> autR;      // sum [a_v, alpha(Hrow_v)].
  std::vector<util::BigUInt> consSC, consST;  // b=1: sigma-claim consistency.
  std::vector<util::BigUInt> consAC, consAT;  // b=1: alpha-claim consistency.
};

struct GniGenFirstMessage {
  std::vector<GniGenM1PerNode> perNode;
};
struct GniGenSecondMessage {
  std::vector<GniGenM2PerNode> perNode;
};

class GniGeneralProver {
 public:
  virtual ~GniGeneralProver() = default;
  virtual GniGenFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) = 0;
  virtual GniGenSecondMessage secondMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges,
      const GniGenFirstMessage& first,
      const std::vector<util::BigUInt>& checkChallenges) = 0;
};

class GniGeneralProtocol {
 public:
  explicit GniGeneralProtocol(GniGeneralParams params);

  const GniGeneralParams& params() const { return params_; }

  RunResult run(const GniInstance& instance, GniGeneralProver& prover,
                util::Rng& rng) const;

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

  // Pr[some (sigma, b, alpha) hits the target] per repetition — the 2q vs q
  // quantity, now valid for symmetric inputs too.
  AcceptanceStats estimatePerRoundHit(const GniInstance& instance, std::size_t trials,
                                      util::Rng& rng) const;

  // One hit trial against precomputed automorphism lists (compute them once
  // with graph::allAutomorphisms and share across the trial engine's
  // workers; the lists are read-only during trials).
  bool perRoundHitOnce(const GniInstance& instance,
                       const std::vector<graph::Permutation>& aut0,
                       const std::vector<graph::Permutation>& aut1,
                       util::Rng& rng) const;

  static CostBreakdown costModel(std::size_t n, std::size_t repetitions);

  bool nodeDecision(const GniInstance& instance, graph::Vertex v,
                    const GniGenFirstMessage& first, const GniGenSecondMessage& second,
                    const std::vector<GniChallenge>& ownChallenges,
                    const util::BigUInt& ownCheckChallenge) const;

 private:
  GniGeneralParams params_;
};

// Honest prover: precomputes Aut(G_0) and Aut(G_1), then per repetition
// enumerates (b, sigma, beta in Aut(G_b)) — with alpha = sigma beta
// sigma^{-1} — searching for a hash preimage of y.
class HonestGniGeneralProver : public GniGeneralProver {
 public:
  explicit HonestGniGeneralProver(const GniGeneralParams& params);
  GniGenFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) override;
  GniGenSecondMessage secondMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges,
      const GniGenFirstMessage& first,
      const std::vector<util::BigUInt>& checkChallenges) override;

 private:
  const GniGeneralParams& params_;
  GsSearchResult lastFound_;
};

// Instance generators for the general protocol's distinguishing feature:
// SYMMETRIC inputs (the basic protocol's counting breaks on these).
GniInstance gniGeneralYesInstance(std::size_t n, util::Rng& rng);  // Non-isomorphic, symmetric g0.
GniInstance gniGeneralNoInstance(std::size_t n, util::Rng& rng);   // Isomorphic, symmetric.

}  // namespace dip::core
