// Canonical forms for small graphs.
//
// The lower-bound census counts isomorphism classes by Burnside's lemma; a
// canonical form gives an INDEPENDENT way to count (deduplicate canonical
// encodings) and a fast isomorphism decision for tiny graphs — both used as
// cross-validation of the search engine.
//
// The canonical form is the lexicographically smallest colex upper-triangle
// encoding over all vertex relabelings. Colex order (pairs (u, v), u < v,
// sorted by v then u) is chosen so that placing vertices one position at a
// time reveals a contiguous prefix of the encoding: position k contributes
// the k bits pairing it with positions 0..k-1. That makes the encoding
// branch-and-boundable; a row-major encoding would scatter each new
// position's bits across the string.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dip::graph {

// The canonical form of g: minimum colex encoding over all n! relabelings,
// computed by branch-and-bound with automorphism orbit pruning (generators
// from the IR engine). Exact for any graph with n <= 64. Its oracle is the
// all-permutations sweep in tests/canonical_ref.
std::vector<std::uint8_t> canonicalForm(const Graph& g);

// Process-wide memoized canonicalForm, single-flight per distinct graph:
// when many trial-engine workers ask for the same graph's form
// concurrently, exactly one computes it and the rest wait on the entry.
// Same design as util::cachedPrimeInRange.
std::vector<std::uint8_t> cachedCanonicalForm(const Graph& g);

// Number of canonical-form searches actually performed by the cache (cache
// misses); lets tests assert the single-flight property.
std::size_t canonicalFormCacheSearches();
void canonicalFormCacheResetForTests();

// Isomorphism via canonical forms (small graphs only). Memoized, so
// repeated queries against the same graphs cost one search each.
bool isomorphicByCanonicalForm(const Graph& g0, const Graph& g1);

// Number of isomorphism classes among all graphs on n vertices, counted by
// canonical-form deduplication (exhaustive over all 2^(n(n-1)/2) labeled
// graphs; n <= 6 takes a few seconds, n = 7 minutes). Cross-validates
// lb::exhaustiveCensus.
std::uint64_t countIsoClassesByCanonicalForm(std::size_t n);

}  // namespace dip::graph
