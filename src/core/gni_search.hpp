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
// order, so both search paths below honour it exactly.
//
// Two paths, one answer:
//   * the lane walk — all k repetitions of a call share ONE lex-order DFS
//     over sigma[0..n-1]; each repetition is a lane with its own table of
//     alpha-folded powers, and each DFS node adds its new matrix entries to
//     every lane at once (docs/PERFORMANCE.md, "Goldwasser-Sipser preimage
//     walk"). Runs when hash::batchEnabled() and laneWalkSupports();
//   * the BigUInt per-repetition loop — DIP_BATCH=0, and the fallback for
//     fields the lane walk cannot hold.
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

// Rigid form: result[j] is the first hit for targets[j], or nullopt.
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
// it adds two canonical residues in a u64 without a carry check (P < 2^63),
// masks the outer layer in a u64 (ell < 64), and keeps the used-vertex set
// in one 32-bit word (n <= 32).
bool laneWalkSupports(const hash::EpsApiHash& gsHash, std::size_t n);

}  // namespace dip::core
