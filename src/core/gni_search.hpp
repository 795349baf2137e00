// The honest GNI provers' Goldwasser-Sipser preimage search (Section 4).
//
// Per repetition j the prover must exhibit some x in S with H_j(x) = y_j,
// where S is the set of candidates of the protocol:
//   rigid form (gni_amam):     S = { sigma(G_b) }
//   general form (gni_general): S = { (sigma(G_b), sigma beta sigma^-1) :
//                                     beta in Aut(G_b) }
// over all permutations sigma and b in {0, 1}. The search is exhaustive and
// returns the FIRST hit in a fixed order: b = 0 before b = 1, sigma in lex
// order (std::next_permutation from the identity), beta in the order of
// the given automorphism list. Every caller's transcript depends on that
// order.
//
// The search is a lane walk: all k repetitions of a call share ONE
// lex-order DFS over sigma[0..n-1]; each repetition is a lane with its own
// table of alpha-folded powers. Terms that are the same for every sigma
// (both diagonals) are in each lane's start value, so a DFS node adds, to
// every unresolved lane at once, one pair row per edge to an earlier vertex
// and, per beta, the alpha-block terms of the points beta moves
// (docs/PERFORMANCE.md, "Goldwasser-Sipser preimage walk"). It runs on
// 32-bit lanes (eight per AVX2 op) when P < 2^31 and ell < 32 and on 64-bit
// lanes otherwise. Fields it cannot hold (P >= 2^63, ell >= 64 or n > 32)
// are refused: GniParams::choose and GniGeneralParams::choose never build
// one, since they stop at n = 15 (kMaxSearchFieldBits), where a 2 n! search
// is already over 10^12 candidates. tests/gni_search_ref holds a
// per-repetition BigUInt search, the oracle the walk is checked against.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/gni_amam.hpp"
#include "graph/graph.hpp"
#include "hash/eps_api.hpp"

namespace dip::core {

// One candidate x in S with H(x) = y.
struct GsPreimage {
  graph::Permutation sigma;
  graph::Permutation alpha;  // sigma . beta . sigma^-1; empty in the rigid form.
  std::uint8_t b = 0;
};

using GsSearchResult = std::vector<std::optional<GsPreimage>>;

// The widest Goldwasser-Sipser field, in bits, that the search takes: every
// prime of at most 63 bits is below 2^63. The GNI parameter choices refuse
// an n whose EpsApiHash::create field would be wider (n >= 16: 65 bits
// rigid, 67 bits general).
inline constexpr std::size_t kMaxSearchFieldBits = 63;

// Rigid form: result[j] is the first hit for targets[j], or nullopt.
// Throws std::invalid_argument when laneWalkSupports(gsHash, n) is false.
GsSearchResult searchGsPreimages(const GniInstance& instance,
                                 const hash::EpsApiHash& gsHash,
                                 std::span<const GniChallenge> targets);

// General form: the hash is over 2n x 2n matrices [H; alpha], and aut0 /
// aut1 are the automorphism groups of g0 / g1 in the order to try them.
GsSearchResult searchGsPreimages(const GniInstance& instance,
                                 const hash::EpsApiHash& gsHash,
                                 std::span<const GniChallenge> targets,
                                 const std::vector<graph::Permutation>& aut0,
                                 const std::vector<graph::Permutation>& aut1);

// Whether the lane walk can run a search of `gsHash` over n-vertex graphs:
// on its widest lanes it adds two canonical residues in a u64 without a
// carry check (P < 2^63) and masks the outer layer in a u64 (ell < 64), and
// it keeps the used-vertex set in one 32-bit word (n <= 32).
bool laneWalkSupports(const hash::EpsApiHash& gsHash, std::size_t n);

// The width of the lane walk's lanes for such a search: 32 when the field
// and the outer layer fit a uint32_t the same carry-free way (P < 2^31,
// ell < 32), 64 for any other field laneWalkSupports() takes, 0 for a
// field the search refuses. Derived from the hash alone; both widths return
// the same hits.
std::size_t laneWalkLaneBits(const hash::EpsApiHash& gsHash, std::size_t n);

}  // namespace dip::core
