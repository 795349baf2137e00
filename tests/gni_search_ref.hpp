// Reference Goldwasser-Sipser preimage search: one repetition at a time, in
// BigUInt arithmetic over a power table from the reference evaluator
// (tests/linear_hash_ref), on any field. It walks the candidates in the
// order core/gni_search.hpp fixes (b = 0 before b = 1, sigma in lex order,
// beta in list order) and so returns the same first hit as
// core::searchGsPreimages. It is the oracle the lane walk is checked
// against (tests/gni_search_test.cpp).
//
// It lives in tests/ and links only into the test binary.
#pragma once

#include <span>
#include <vector>

#include "core/gni_search.hpp"

namespace dip::core {

// Rigid form.
GsSearchResult searchGsPreimagesPerRepetition(const GniInstance& instance,
                                              const hash::EpsApiHash& gsHash,
                                              std::span<const GniChallenge> targets);
// General form, with the automorphism lists of g0 and g1.
GsSearchResult searchGsPreimagesPerRepetition(const GniInstance& instance,
                                              const hash::EpsApiHash& gsHash,
                                              std::span<const GniChallenge> targets,
                                              const std::vector<graph::Permutation>& aut0,
                                              const std::vector<graph::Permutation>& aut1);

}  // namespace dip::core
