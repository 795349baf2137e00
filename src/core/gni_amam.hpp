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
// Round structure (Arthur-Merlin-Arthur-Merlin; tree root fixed at node 0):
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
//
// The rounds, checks, codecs and honest prover are the Goldwasser-Sipser
// frame's (core/gni_frame.hpp); this header defines the rigid shape.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/gni_frame.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dip::core {

// YES-instance: two rigid, connected, non-isomorphic graphs on n vertices.
GniInstance gniYesInstance(std::size_t n, util::Rng& rng);
// NO-instance: g1 is a scrambled isomorphic copy of a rigid connected g0.
GniInstance gniNoInstance(std::size_t n, util::Rng& rng);

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

// The rigid shape of the Goldwasser-Sipser frame (core/gni_frame.hpp): a
// candidate is sigma(G_b), a node commits sigma(v), and the chains are the
// GS hash plus the permutation check, with the claimed-image consistency
// check for b = 1.
struct RigidGsShape {
  using M1 = GniM1PerNode;
  using M2 = GniM2PerNode;
  using First = GniFirstMessage;
  using Second = GniSecondMessage;
  using Chain = std::vector<util::BigUInt> M2::*;

  static constexpr const char* kName = "GniAmam";
  static constexpr const char* kM1Round = "M1: echo + sigma commitments";
  static constexpr std::size_t kHashSide = 1;
  static constexpr bool kCompensated = false;
  static constexpr double kCheckSlack = 3.0;
  static constexpr std::uint64_t kCheckStream = 0x10000;
  static constexpr std::array kCommitted{&M1::s};
  static constexpr std::array kClaims{&M1::claims};
  static constexpr std::array kChains{&M2::h, &M2::permI, &M2::permS};
  static constexpr std::array kB1Chains{&M2::consC, &M2::consT};
  static constexpr std::array kRootEqualities{std::pair{&M2::permI, &M2::permS}};

  static std::array<graph::Vertex, 1> commitOf(const GsPreimage& found, graph::Vertex u) {
    return {found.sigma[u]};
  }
  // (i) the GS row sigma(v) of sigma(G_b); (ii) the permutation check, the
  // identity side [v, e_v] and the sigma side [sigma(v), e_sigma(v)].
  static void chainPieces(const GsPieceContext& ctx, graph::Vertex v,
                          std::span<const graph::Vertex, 1> own,
                          std::span<const util::DynBitset, 1> rows,
                          std::span<util::BigUInt, 3> out);
  static GsSearchResult search(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                               std::span<const GniChallenge> targets);
};

using GniParams = GsParams<RigidGsShape>;
using GniProver = GsProver<RigidGsShape>;
using GniAmamProtocol = GsProtocol<RigidGsShape>;
// Decides isomorphism outright and per repetition enumerates all 2 n!
// candidates (sigma, b) for a preimage of y.
using HonestGniProver = HonestGsProver<RigidGsShape>;

// The optimal cheating prover IS the honest prover (every message is forced
// given (sigma_j, b_j), and the honest search already maximizes the number
// of claimable repetitions); on isomorphic instances its claim rate is the
// soundness error. This adversary probes the commitment checks instead: it
// claims every repetition with b = 0 and a random NON-permutation sigma and
// sends the honest prover's consistent chains for it, so only the root's
// permutation equality can catch it (and must, w.h.p.).
class NonPermutationGniProver : public HonestGniProver {
 public:
  NonPermutationGniProver(const GniParams& params, std::uint64_t seed);
  GniFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) override;

 private:
  util::Rng rng_;
};

}  // namespace dip::core
