// Graph isomorphism and automorphism search.
//
// The prover (Merlin) in the paper is computationally unbounded: the honest
// prover for Protocol 1/2 must FIND a non-trivial automorphism, and the
// honest Goldwasser-Sipser prover must KNOW whether two graphs are
// isomorphic. The public entry points below delegate to the
// individualization-refinement engine in graph/ir.hpp; the original
// 1-WL-plus-backtracking searcher lives on in tests/iso_ref.hpp as an
// independently-implemented oracle for differential testing.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace dip::graph {

// Stable color classes from iterated 1-WL refinement, as small integers.
// Vertices with different colors cannot be mapped to each other by any
// isomorphism. Colors are canonical across graphs of the same size.
std::vector<std::uint32_t> refinementColors(const Graph& g);

// An isomorphism g0 -> g1, or nullopt if none exists.
std::optional<Permutation> findIsomorphism(const Graph& g0, const Graph& g1);

// A non-trivial (non-identity) automorphism of g, or nullopt iff g is rigid.
std::optional<Permutation> findNontrivialAutomorphism(const Graph& g);

// True iff g has no non-trivial automorphism (g is "asymmetric"/rigid).
bool isRigid(const Graph& g);

bool areIsomorphic(const Graph& g0, const Graph& g1);

// Number of automorphisms of g, capped at `cap` (search stops once the
// count reaches the cap). Exhaustive; intended for small graphs.
std::uint64_t countAutomorphisms(const Graph& g, std::uint64_t cap = UINT64_MAX);

// The full automorphism group of g (identity included), up to `cap`
// elements. The general GNI protocol's honest prover enumerates
// S = {(sigma(G_b), alpha)} through this group. Intended for small graphs /
// small groups.
std::vector<Permutation> allAutomorphisms(const Graph& g, std::size_t cap = 1u << 20);

}  // namespace dip::graph
