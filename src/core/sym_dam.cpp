#include "core/sym_dam.hpp"

#include <numeric>
#include <stdexcept>

#include "hash/batch_eval.hpp"

namespace dip::core {

util::BigUInt mappedMatrixFingerprint(const graph::Graph& g,
                                      const hash::LinearHashFamily& family,
                                      const util::BigUInt& index,
                                      const std::vector<graph::Vertex>& sigma) {
  // The collision search evaluates thousands of candidate sigmas under one
  // pinned index: the batch evaluator's shared power tables make each
  // fingerprint popcount adds plus one multiply per row, and each row's
  // image is a word mask built from sigma in place.
  hash::BatchLinearHashEvaluator& batch = hash::threadChainEvaluator();
  batch.rebind(family.prime(), family.dimension(), index);
  return batch.accumulateMappedRows(sigma, g.rows(), g.numVertices());
}

SymDamProtocol::SymDamProtocol(hash::LinearHashFamily family)
    : family_(std::move(family)) {}

bool SymDamProtocol::nodeDecision(const graph::Graph& g, graph::Vertex v,
                                  const SymDamMessage& msg,
                                  const util::BigUInt& ownChallenge) const {
  const std::size_t n = g.numVertices();

  // Broadcast consistency (rho, index, root) against all neighbors.
  const std::vector<graph::Vertex>& rho = msg.rhoPerNode[v];
  const util::BigUInt& index = msg.indexPerNode[v];
  const graph::Vertex root = msg.rootPerNode[v];
  if (rho.size() != n || root >= n || index >= family_.prime()) return false;
  for (graph::Vertex u : rho) {
    if (u >= n) return false;
  }
  if (!neighboursAgree(g, v, msg)) return false;

  // Line 1: spanning-tree local checks, on a view of the message's advice.
  const net::SpanningTreeView tree{root, msg.parent, msg.dist};
  if (!net::verifyTreeLocally(g, tree, v)) return false;

  // Lines 2-3: chain verification. rho is fully known here, so the node
  // evaluates rho(N(v)) itself.
  if (!rowChainLinksHold(g, v, tree, family_, index, rho, msg)) return false;

  // Line 4: root-only checks.
  if (v == root) {
    if (!(msg.a[v] == msg.b[v])) return false;
    if (rho[v] == v) return false;
    if (!(index == ownChallenge)) return false;
  }
  return true;
}

RunResult SymDamProtocol::run(const graph::Graph& g, SymDamProver& prover,
                              util::Rng& rng) const {
  const std::size_t n = g.numVertices();
  if (n == 0) throw std::invalid_argument("SymDamProtocol: empty graph");
  RunResult result;
  result.transcript = net::Transcript(n);

  // A: challenges first (this is what makes it Arthur-Merlin).
  const std::vector<util::BigUInt> challenges =
      challengeRound(result.transcript, "A: hash indices", "SymDam/A", family_, rng);
  // M: the prover's single response.
  const SymDamMessage msg = prover.respond(g, challenges);
  proverRound(result.transcript, msg, symShape(g, family_));

  result.accepted = allNodesAccept(
      n, [&](graph::Vertex v) { return nodeDecision(g, v, msg, challenges[v]); });
  return result;
}

CostBreakdown SymDamProtocol::costModel(std::size_t n) {
  return Rounds::cost(modelWidths(n), n);
}

SymWidths SymDamProtocol::modelWidths(std::size_t n) { return symModelWidths(n, n + 2); }

// ---- Honest prover ----

HonestSymDamProver::HonestSymDamProver(const hash::LinearHashFamily& family)
    : family_(family) {}

SymDamMessage HonestSymDamProver::respond(const graph::Graph& g,
                                          const std::vector<util::BigUInt>& challenges) {
  const PreparedSym& prepared = requireTree(preparedSym(g), "HonestSymDamProver");
  const std::size_t n = g.numVertices();
  const util::BigUInt& index = challenges[prepared.root];
  ChainValues chains = aggregateChains(g, family_, index, prepared);

  SymDamMessage msg;
  msg.rhoPerNode.assign(n, *prepared.rho);
  msg.indexPerNode.assign(n, index);
  msg.rootPerNode.assign(n, prepared.root);
  msg.parent = prepared.tree.parent;
  msg.dist = prepared.tree.dist;
  msg.a = std::move(chains.a);
  msg.b = std::move(chains.b);
  return msg;
}

// ---- Adaptive cheater ----

AdaptiveCollisionProver::AdaptiveCollisionProver(const hash::LinearHashFamily& family,
                                                 std::size_t searchBudget,
                                                 std::uint64_t seed)
    : family_(family), searchBudget_(searchBudget), rng_(seed) {}

SymDamMessage AdaptiveCollisionProver::respond(
    const graph::Graph& g, const std::vector<util::BigUInt>& challenges) {
  const std::size_t n = g.numVertices();
  lastSearchSucceeded_ = false;

  // The cheater may pick any root; the index echoed must match that root's
  // challenge. Try root 0's challenge (any fixed choice is equivalent: the
  // challenge is already visible).
  // Strategy: for each candidate mapping sigma (non-identity), the forced
  // root value b_r equals fingerprint(sigma), and a_r equals
  // fingerprint(identity); search for a collision.
  std::vector<graph::Vertex> best;
  graph::Vertex bestRoot = 0;
  util::BigUInt index;

  // Precompute per-root targets lazily: fingerprint depends on the index,
  // which depends on the chosen root's challenge. Use root candidates in
  // order; for each root, run a slice of the budget.
  const std::size_t rootsToTry = std::min<std::size_t>(n, 4);
  const std::size_t perRootBudget = searchBudget_ / rootsToTry + 1;
  // One mapping buffer serves the identity target and every attempt.
  std::vector<graph::Vertex> sigma(n);
  for (std::size_t rootIdx = 0; rootIdx < rootsToTry && !lastSearchSucceeded_; ++rootIdx) {
    graph::Vertex root = static_cast<graph::Vertex>(rootIdx);
    const util::BigUInt& candidateIndex = challenges[root];
    std::iota(sigma.begin(), sigma.end(), graph::Vertex{0});
    util::BigUInt candidateTarget = mappedMatrixFingerprint(g, family_, candidateIndex, sigma);
    for (std::size_t attempt = 0; attempt < perRootBudget; ++attempt) {
      // Random mapping V -> V (not necessarily a permutation — Theorem 3.5
      // union-bounds over all n^n mappings, so the adversary may use any).
      for (auto& s : sigma) s = static_cast<graph::Vertex>(rng_.nextBelow(n));
      if (sigma[root] == root) sigma[root] = static_cast<graph::Vertex>((root + 1) % n);
      if (graph::isIdentity(sigma)) continue;
      util::BigUInt fp = mappedMatrixFingerprint(g, family_, candidateIndex, sigma);
      if (fp == candidateTarget) {
        best = sigma;
        bestRoot = root;
        index = candidateIndex;
        lastSearchSucceeded_ = true;
        break;
      }
    }
  }

  if (!lastSearchSucceeded_) {
    // Doomed: play a transposition and hope (the root equality will fail).
    best = graph::identityPermutation(n);
    std::swap(best[0], best[n - 1]);
    bestRoot = 0;
    index = challenges[bestRoot];
  }

  net::SpanningTreeAdvice tree = net::buildBfsTree(g, bestRoot);
  ChainValues chains = aggregateChains(g, family_, index, best, tree);
  SymDamMessage msg;
  msg.rhoPerNode.assign(n, best);
  msg.indexPerNode.assign(n, index);
  msg.rootPerNode.assign(n, bestRoot);
  msg.parent = tree.parent;
  msg.dist = tree.dist;
  msg.a = std::move(chains.a);
  msg.b = std::move(chains.b);
  return msg;
}

}  // namespace dip::core
