// Shared tree-aggregation helpers for prover-assisted fingerprint chains.
//
// Every protocol in the paper sums per-node hash contributions "up the
// tree": the prover supplies each node its subtree sum, and each node
// verifies it against its own piece plus its children's claimed sums — so
// every lie is caught by a purely local equation.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "net/spanning.hpp"
#include "util/biguint.hpp"

namespace dip::core {

// Honest-prover side: exact subtree sums of `pieces` along the tree, mod
// prime, written into `sums`. `order` is net::bottomUpOrder(tree): a prover
// that sums many piece vectors over one tree computes it once and reuses
// both buffers.
inline void subtreeSums(const graph::Graph& g, net::SpanningTreeView tree,
                        const std::vector<graph::Vertex>& order,
                        const std::vector<util::BigUInt>& pieces, const util::BigUInt& prime,
                        std::vector<util::BigUInt>& sums) {
  sums.resize(g.numVertices());
  for (graph::Vertex v : order) {
    util::BigUInt acc = pieces[v];
    net::forEachChild(g, tree, v, [&](graph::Vertex child) {
      acc = util::addMod(acc, sums[child], prime);
    });
    sums[v] = acc;
  }
}

inline std::vector<util::BigUInt> subtreeSums(const graph::Graph& g,
                                              net::SpanningTreeView tree,
                                              const std::vector<util::BigUInt>& pieces,
                                              const util::BigUInt& prime) {
  std::vector<util::BigUInt> sums;
  subtreeSums(g, tree, net::bottomUpOrder(tree), pieces, prime, sums);
  return sums;
}

// Verifier side: does claimedAt(v) equal v's own piece plus its children's
// claimed sums (all values range-checked against the prime)? Reads only the
// children's entries and the own one, so decision code never materializes a
// whole-graph column of message values.
template <typename ClaimedAt>
bool chainLinkHoldsAt(const util::BigUInt& ownPiece,
                      const std::vector<graph::Vertex>& children,
                      ClaimedAt&& claimedAt, graph::Vertex v,
                      const util::BigUInt& prime) {
  util::BigUInt expect = ownPiece;
  for (graph::Vertex child : children) {
    const util::BigUInt& value = claimedAt(child);
    if (value >= prime) return false;
    expect = util::addMod(expect, value, prime);
  }
  return claimedAt(v) == expect;
}

}  // namespace dip::core
