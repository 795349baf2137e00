#include "canonical_ref.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dip::graph {

namespace {

// Colex upper-triangle bits of g relabeled by perm (pairs (j, k), j < k,
// sorted by k then j), packed MSB-first so a byte-wise lexicographic
// compare is a bit-wise one.
std::vector<std::uint8_t> encodeUnder(const Graph& g, const Permutation& perm) {
  const std::size_t n = g.numVertices();
  const std::size_t slots = n * (n - 1) / 2;
  std::vector<std::uint8_t> bytes((slots + 7) / 8, 0);
  for (std::size_t k = 1; k < n; ++k) {
    for (std::size_t j = 0; j < k; ++j) {
      if (g.hasEdge(perm[j], perm[k])) {
        const std::size_t index = k * (k - 1) / 2 + j;
        bytes[index / 8] |= static_cast<std::uint8_t>(1u << (7 - index % 8));
      }
    }
  }
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> bruteForceCanonicalForm(const Graph& g) {
  const std::size_t n = g.numVertices();
  if (n > 8) {
    throw std::invalid_argument("bruteForceCanonicalForm: brute force limited to n <= 8");
  }
  Permutation perm = identityPermutation(n);
  std::vector<std::uint8_t> best = encodeUnder(g, perm);
  while (std::next_permutation(perm.begin(), perm.end())) {
    std::vector<std::uint8_t> candidate = encodeUnder(g, perm);
    if (candidate < best) best = std::move(candidate);  // Same length by construction.
  }
  return best;
}

}  // namespace dip::graph
