// Reference canonical form: the minimum colex upper-triangle encoding over
// an explicit sweep of all n! relabelings, with no pruning. It is the
// differential oracle for graph::canonicalForm (tests/canonical_test.cpp),
// in the same way tests/iso_ref is the oracle for the IR engine.
//
// It lives in tests/ and links only into the test binary.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dip::graph {

// The canonical form of g by brute force. Throws std::invalid_argument for
// n > 8 (9! relabelings is already too many).
std::vector<std::uint8_t> bruteForceCanonicalForm(const Graph& g);

}  // namespace dip::graph
