// Reference graph-isomorphism searcher: the original 1-WL plus
// most-constrained-variable backtracking mapper, independent of the
// individualization-refinement engine in graph/ir.hpp. Slower; it is the
// differential oracle the IR engine must agree with
// (tests/isomorphism_test.cpp), in the same way tests/biguint_ref is the
// oracle for util/biguint.
//
// It lives in tests/ and links only into the test binary.
#pragma once

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "graph/isomorphism.hpp"

namespace dip::graph {

// An isomorphism g0 -> g1, or nullopt if none exists.
std::optional<Permutation> findIsomorphismBacktracking(const Graph& g0, const Graph& g1);
// Number of automorphisms of g, capped at `cap`.
std::uint64_t countAutomorphismsBacktracking(const Graph& g, std::uint64_t cap = UINT64_MAX);

}  // namespace dip::graph
