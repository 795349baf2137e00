#include "core/sym_dmam.hpp"

#include <stdexcept>

#include "graph/generators.hpp"

namespace dip::core {

namespace {

bool rhoInRange(const graph::Graph& g, graph::Vertex v,
                const std::vector<graph::Vertex>& rho) {
  bool ok = rho[v] < g.numVertices();
  g.row(v).forEachSet([&](std::size_t u) {
    if (rho[u] >= g.numVertices()) ok = false;
  });
  return ok;
}

}  // namespace

SymDmamProtocol::SymDmamProtocol(hash::LinearHashFamily family)
    : family_(std::move(family)) {}

bool SymDmamProtocol::nodeDecision(const graph::Graph& g, graph::Vertex v,
                                   const SymDmamFirstMessage& first,
                                   const util::BigUInt& ownChallenge,
                                   const SymDmamSecondMessage& second) const {
  // Broadcast consistency: the claimed root and index must agree with every
  // neighbor's copy.
  const graph::Vertex root = first.rootPerNode[v];
  const util::BigUInt& index = second.indexPerNode[v];
  if (root >= g.numVertices() || !neighboursAgree(g, v, first, second)) return false;
  if (index >= family_.prime()) return false;

  // Line 1: spanning-tree local checks, on a view of the message's advice.
  const net::SpanningTreeView tree{root, first.parent, first.dist};
  if (!net::verifyTreeLocally(g, tree, v)) return false;

  // Lines 2-3: chain verification; v sees its neighbors' rho values.
  if (!rhoInRange(g, v, first.rho)) return false;
  if (!rowChainLinksHold(g, v, tree, family_, index, first.rho, second)) return false;

  // Line 4: root-only checks.
  if (v == root) {
    if (!(second.a[v] == second.b[v])) return false;
    if (first.rho[v] == v) return false;
    if (!(index == ownChallenge)) return false;
  }
  return true;
}

RunResult SymDmamProtocol::run(const graph::Graph& g, SymDmamProver& prover,
                               util::Rng& rng) const {
  const std::size_t n = g.numVertices();
  if (n == 0) throw std::invalid_argument("SymDmamProtocol: empty graph");
  const SymShape shape = symShape(g, family_);
  RunResult result;
  result.transcript = net::Transcript(n);

  const SymDmamFirstMessage first = prover.firstMessage(g);
  proverRound(result.transcript, first, shape);
  const std::vector<util::BigUInt> challenges =
      challengeRound(result.transcript, "A: hash indices", "SymDmam/A", family_, rng);
  const SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);
  proverRound(result.transcript, second, shape);

  result.accepted = allNodesAccept(n, [&](graph::Vertex v) {
    return nodeDecision(g, v, first, challenges[v], second);
  });
  return result;
}

CostBreakdown SymDmamProtocol::costModel(std::size_t n) {
  return Rounds::cost(modelWidths(n), n);
}

SymWidths SymDmamProtocol::modelWidths(std::size_t n) { return symModelWidths(n, 3); }

// ---- Honest prover ----

HonestSymDmamProver::HonestSymDmamProver(const hash::LinearHashFamily& family)
    : family_(family) {}

SymDmamFirstMessage HonestSymDmamProver::firstMessage(const graph::Graph& g) {
  const PreparedSym& prepared = requireTree(preparedSym(g), "HonestSymDmamProver");
  SymDmamFirstMessage first;
  first.rootPerNode.assign(g.numVertices(), prepared.root);
  first.rho = *prepared.rho;
  first.parent = prepared.tree.parent;
  first.dist = prepared.tree.dist;
  return first;
}

SymDmamSecondMessage HonestSymDmamProver::secondMessage(
    const graph::Graph& g, const SymDmamFirstMessage& /*first*/,
    const std::vector<util::BigUInt>& challenges) {
  // The honest prover answers for the commitment firstMessage made.
  const PreparedSym& prepared = requireTree(preparedSym(g), "HonestSymDmamProver");
  const util::BigUInt& index = challenges[prepared.root];
  ChainValues chains = aggregateChains(g, family_, index, prepared);
  SymDmamSecondMessage second;
  second.indexPerNode.assign(g.numVertices(), index);
  second.a = std::move(chains.a);
  second.b = std::move(chains.b);
  return second;
}

// ---- Cheating provers ----

CheatingRhoProver::CheatingRhoProver(const hash::LinearHashFamily& family,
                                     Strategy strategy, std::uint64_t seed)
    : family_(family), strategy_(strategy), rng_(seed) {}

SymDmamFirstMessage CheatingRhoProver::firstMessage(const graph::Graph& g) {
  const std::size_t n = g.numVertices();
  graph::Permutation rho;
  switch (strategy_) {
    case Strategy::kIdentity:
      rho = graph::identityPermutation(n);
      break;
    case Strategy::kRandomPermutation: {
      do {
        rho = graph::randomPermutation(n, rng_);
      } while (graph::isIdentity(rho));
      break;
    }
    case Strategy::kTransposition: {
      // Swap two same-degree vertices if possible (least detectable lie).
      rho = graph::identityPermutation(n);
      bool swapped = false;
      for (graph::Vertex u = 0; u < n && !swapped; ++u) {
        for (graph::Vertex w = u + 1; w < n && !swapped; ++w) {
          if (g.degree(u) == g.degree(w)) {
            std::swap(rho[u], rho[w]);
            swapped = true;
          }
        }
      }
      if (!swapped) std::swap(rho[0], rho[n - 1]);
      break;
    }
  }
  graph::Vertex root = 0;
  while (root < n && rho[root] == root) ++root;
  if (root == n) root = 0;  // Identity strategy: doomed, pick any root.
  net::SpanningTreeAdvice tree = net::buildBfsTree(g, root);
  SymDmamFirstMessage first;
  first.rootPerNode.assign(n, root);
  first.rho = rho;
  first.parent = tree.parent;
  first.dist = tree.dist;
  return first;
}

SymDmamSecondMessage CheatingRhoProver::secondMessage(
    const graph::Graph& g, const SymDmamFirstMessage& first,
    const std::vector<util::BigUInt>& challenges) {
  // Past the commitment, honest play maximizes acceptance: the chain sums
  // are forced by the local checks, so the only hope is a hash collision at
  // the root.
  graph::Vertex root = first.rootPerNode[0];
  const util::BigUInt& index = challenges[root];
  ChainValues chains =
      aggregateChains(g, family_, index, first.rho, {root, first.parent, first.dist});
  SymDmamSecondMessage second;
  second.indexPerNode.assign(g.numVertices(), index);
  second.a = std::move(chains.a);
  second.b = std::move(chains.b);
  return second;
}

HashChainLiarProver::HashChainLiarProver(const hash::LinearHashFamily& family,
                                         std::uint64_t seed)
    : family_(family), inner_(family), rng_(seed) {}

SymDmamFirstMessage HashChainLiarProver::firstMessage(const graph::Graph& g) {
  return inner_.firstMessage(g);
}

SymDmamSecondMessage HashChainLiarProver::secondMessage(
    const graph::Graph& g, const SymDmamFirstMessage& first,
    const std::vector<util::BigUInt>& challenges) {
  SymDmamSecondMessage second = inner_.secondMessage(g, first, challenges);
  graph::Vertex victim = static_cast<graph::Vertex>(rng_.nextBelow(g.numVertices()));
  second.a[victim] = util::addMod(second.a[victim], util::BigUInt{1}, family_.prime());
  return second;
}

}  // namespace dip::core
