// The honest Sym provers' graph-only work, done once per graph per thread.
//
// The prover of the model is unbounded, so what it derives from the graph
// alone — the automorphism it commits to, the BFS tree it hands out, and
// the rows it hashes — is not part of any proven cost. A repeated-trial
// workload (estimateAcceptance, a throughput cell) builds its prover per
// trial, so the reuse lives here, memoized on the full adjacency: a trial
// on a prepared graph is then two hashMatrixRows calls plus the fold.
//
// Only the honest provers of Protocols 1 and 2 and of DSym read this; both
// sym_input provers read only its rho (the claim liar takes it as the
// real automorphism its claims follow). No verifier reads it: every node
// still recomputes its own hashes and checks from the trial's messages and
// randomness. The other cheating provers and mappedMatrixFingerprint do
// not use it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "net/spanning.hpp"
#include "util/bitset.hpp"

namespace dip::core {

struct PreparedSym {
  // A non-trivial automorphism (the IR engine's), or DSym's fixed sigma;
  // nullopt iff the graph is rigid.
  std::optional<graph::Permutation> rho;
  // The rest is empty unless rho is set and the graph is connected.
  graph::Vertex root = 0;  // First vertex rho moves; 0 for DSym.
  net::SpanningTreeAdvice tree;
  std::vector<graph::Vertex> order;  // net::bottomUpOrder(tree).
  // Row v of the chain a-side: [v, N[v]].
  std::vector<std::uint64_t> closedIndices;
  std::vector<util::DynBitset> closedRows;
  // Row v of the chain b-side: [rho(v), rho(N[v])].
  std::vector<std::uint64_t> imageIndices;
  std::vector<util::DynBitset> imageRows;
};

// Fresh builds: Protocols 1 and 2 (rho searched, root its first moved
// vertex) and DSym (rho = sigma, root 0).
PreparedSym buildPreparedSym(const graph::Graph& g);
PreparedSym buildPreparedSym(const graph::Graph& g, const graph::Permutation& sigma);

// The same, memoized per thread on g's adjacency (and sigma) for the last
// few graphs. The reference is valid until the next preparedSym call on the
// same thread.
const PreparedSym& preparedSym(const graph::Graph& g);
const PreparedSym& preparedSym(const graph::Graph& g, const graph::Permutation& sigma);

// `prepared` itself, after checking that it has a tree: throws
// std::invalid_argument naming `prover` when the graph is rigid or
// disconnected.
const PreparedSym& requireTree(const PreparedSym& prepared, const char* prover);

}  // namespace dip::core
