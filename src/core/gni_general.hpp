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
// Per-node cost stays O(n log n) per repetition. The rounds, checks, codecs
// and honest prover are the Goldwasser-Sipser frame's (core/gni_frame.hpp);
// this header defines the general shape, whose A2 stream, chain list and
// root equalities extend the rigid one's with the alpha track.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/gni_amam.hpp"  // The rigid shape and its generators.
#include "core/gni_frame.hpp"
#include "core/gni_search.hpp"

namespace dip::core {

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

// The general shape of the Goldwasser-Sipser frame: a candidate is the pair
// (H, alpha), a node commits (sigma(v), alpha(sigma(v))), and the chains
// add alpha's permutation check and the automorphism check to the rigid
// ones, with a consistency check per committed map for b = 1.
struct GeneralGsShape {
  using M1 = GniGenM1PerNode;
  using M2 = GniGenM2PerNode;
  using First = GniGenFirstMessage;
  using Second = GniGenSecondMessage;
  using Chain = std::vector<util::BigUInt> M2::*;

  static constexpr const char* kName = "GniGeneral";
  static constexpr const char* kM1Round = "M1: echo + (sigma, alpha) commitments";
  static constexpr std::size_t kHashSide = 2;
  static constexpr bool kCompensated = true;
  static constexpr double kCheckSlack = 6.0;
  static constexpr std::uint64_t kCheckStream = 0x20000;
  static constexpr std::array kCommitted{&M1::s, &M1::a};
  static constexpr std::array kClaims{&M1::sClaims, &M1::aClaims};
  static constexpr std::array kChains{&M2::h,     &M2::identity, &M2::permS,
                                      &M2::permA, &M2::autL,     &M2::autR};
  static constexpr std::array kB1Chains{&M2::consSC, &M2::consST, &M2::consAC, &M2::consAT};
  static constexpr std::array kRootEqualities{std::pair{&M2::identity, &M2::permS},  // sigma
                                              std::pair{&M2::identity, &M2::permA},  // alpha
                                              std::pair{&M2::autL, &M2::autR}};  // Aut(H)

  static std::array<graph::Vertex, 2> commitOf(const GsPreimage& found, graph::Vertex u) {
    return {found.sigma[u], found.alpha[found.sigma[u]]};
  }
  // (i) the GS piece of the pair (H, alpha): H's row sigma(v) plus alpha's
  // permutation-matrix row n + sigma(v); (ii) the permutation checks of
  // sigma and alpha against the identity; (iii) the automorphism check
  // sum_u [u, H_u] == sum_u [alpha(u), alpha(H_u)] (Lemma 3.1 applied to H).
  static void chainPieces(const GsPieceContext& ctx, graph::Vertex v,
                          std::span<const graph::Vertex, 2> own,
                          std::span<const util::DynBitset, 2> rows,
                          std::span<util::BigUInt, 6> out);
  // Enumerates (b, sigma, beta in Aut(G_b)), alpha = sigma beta sigma^-1.
  static GsSearchResult search(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                               std::span<const GniChallenge> targets);
};

using GniGeneralParams = GsParams<GeneralGsShape>;
using GniGeneralProver = GsProver<GeneralGsShape>;
using GniGeneralProtocol = GsProtocol<GeneralGsShape>;
// Precomputes Aut(G_0) and Aut(G_1) per first message, then searches.
using HonestGniGeneralProver = HonestGsProver<GeneralGsShape>;

// Instance generators for the general protocol's distinguishing feature:
// SYMMETRIC inputs (the basic protocol's counting breaks on these).
GniInstance gniGeneralYesInstance(std::size_t n, util::Rng& rng);  // Non-isomorphic, symmetric g0.
GniInstance gniGeneralNoInstance(std::size_t n, util::Rng& rng);   // Isomorphic, symmetric.

}  // namespace dip::core
