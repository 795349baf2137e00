#include "core/dsym_dam.hpp"

#include <stdexcept>

#include "net/spanning.hpp"

namespace dip::core {

DSymDamProtocol::DSymDamProtocol(graph::DSymLayout layout, hash::LinearHashFamily family)
    : layout_(layout), family_(std::move(family)), sigma_(graph::dsymSigma(layout_)) {
  const std::uint64_t n = layout_.numVertices;
  if (family_.dimension() != n * n) {
    throw std::invalid_argument("DSymDamProtocol: family dimension mismatch");
  }
}

bool DSymDamProtocol::nodeDecision(const graph::Graph& g, graph::Vertex v,
                                   const DSymMessage& msg,
                                   const util::BigUInt& ownChallenge) const {
  const std::size_t n = g.numVertices();
  if (n != layout_.numVertices) return false;

  // Structural conditions (2)-(3): purely local, no prover input.
  if (!graph::dsymLocalStructureOk(g, layout_, v)) return false;

  // Broadcast consistency.
  const util::BigUInt& index = msg.indexPerNode[v];
  const graph::Vertex root = msg.rootPerNode[v];
  if (root >= n || index >= family_.prime()) return false;
  if (!neighboursAgree(g, v, msg)) return false;

  // Spanning-tree local checks, on a view of the message's advice.
  const net::SpanningTreeView tree{root, msg.parent, msg.dist};
  if (!net::verifyTreeLocally(g, tree, v)) return false;

  // Chain verification with the FIXED sigma (locally computable from the
  // public layout; precomputed once at protocol construction).
  if (!rowChainLinksHold(g, v, tree, family_, index, sigma_, msg)) return false;

  // Root checks: fingerprints equal, index echo matches own challenge.
  // (No rho_r != r check: sigma is non-trivial by construction.)
  if (v == root) {
    if (!(msg.a[v] == msg.b[v])) return false;
    if (!(index == ownChallenge)) return false;
  }
  return true;
}

RunResult DSymDamProtocol::run(const graph::Graph& g, DSymProver& prover,
                               util::Rng& rng) const {
  const std::size_t n = g.numVertices();
  if (n != layout_.numVertices) {
    throw std::invalid_argument("DSymDamProtocol: graph size does not match layout");
  }
  RunResult result;
  result.transcript = net::Transcript(n);

  const std::vector<util::BigUInt> challenges =
      challengeRound(result.transcript, "A: hash indices", "DSym/A", family_, rng);
  const DSymMessage msg = prover.respond(g, challenges);
  proverRound(result.transcript, msg, symShape(g, family_));

  result.accepted = allNodesAccept(
      n, [&](graph::Vertex v) { return nodeDecision(g, v, msg, challenges[v]); });
  return result;
}

CostBreakdown DSymDamProtocol::costModel(const graph::DSymLayout& layout) {
  return Rounds::cost(modelWidths(layout.numVertices), layout.numVertices);
}

SymWidths DSymDamProtocol::modelWidths(std::size_t n) { return symModelWidths(n, 3); }

HonestDSymProver::HonestDSymProver(const graph::DSymLayout& layout,
                                   const hash::LinearHashFamily& family)
    : layout_(layout), family_(family) {}

DSymMessage HonestDSymProver::respond(const graph::Graph& g,
                                      const std::vector<util::BigUInt>& challenges) {
  const std::size_t n = g.numVertices();
  const graph::Permutation sigma = graph::dsymSigma(layout_);
  const PreparedSym& prepared = requireTree(preparedSym(g, sigma), "HonestDSymProver");
  const util::BigUInt& index = challenges[prepared.root];
  ChainValues chains = aggregateChains(g, family_, index, prepared);
  DSymMessage msg;
  msg.indexPerNode.assign(n, index);
  msg.rootPerNode.assign(n, prepared.root);
  msg.parent = prepared.tree.parent;
  msg.dist = prepared.tree.dist;
  msg.a = std::move(chains.a);
  msg.b = std::move(chains.b);
  return msg;
}

}  // namespace dip::core
