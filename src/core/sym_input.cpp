#include "core/sym_input.hpp"

#include <array>
#include <optional>
#include <span>
#include <stdexcept>

#include "core/prepared.hpp"
#include "graph/generators.hpp"
#include "hash/batch_eval.hpp"
#include "net/spanning.hpp"

namespace dip::core {

namespace {

// Node v's pieces of the four chains (a, b, consC, consT, the second
// message's wire order), given the committed rho and (possibly lying)
// claims. Used by both the honest prover and the verifier.
void piecesFor(const SymInputInstance& instance, const hash::LinearHashFamily& family,
               const util::BigUInt& index, graph::Vertex v, graph::Vertex rhoV,
               std::span<const graph::Vertex> closedH, const std::vector<graph::Vertex>& claims,
               std::span<util::BigUInt, 4> pieces) {
  const std::size_t n = instance.network.numVertices();
  util::DynBitset claimedImages(n);
  for (graph::Vertex image : claims) claimedImages.set(image);

  // The index is pinned across every per-node call of a trial (prover loop
  // and the verifier's uniform echo), so the batch evaluator's rebind
  // short-circuits and all four pieces become table lookups.
  thread_local hash::BatchLinearHashEvaluator batch;
  batch.rebind(family, index);
  pieces[0] = batch.hashMatrixRow(v, instance.input.closedRow(v), n);
  pieces[1] = batch.hashMatrixRow(rhoV, claimedImages, n);
  thread_local std::vector<std::uint64_t> consRows;
  thread_local std::vector<std::uint64_t> consCols;
  consRows.clear();
  consCols.clear();
  for (std::size_t i = 0; i < closedH.size(); ++i) {
    consRows.push_back(closedH[i]);
    consCols.push_back(claims[i]);
  }
  pieces[2] = batch.accumulateMatrixEntries(consRows, consCols, n);
  pieces[3] = batch.hashMatrixEntry(v, rhoV, closedH.size(), n);
}

// v's sorted closed H-neighborhood, written into a per-thread buffer.
std::span<const graph::Vertex> closedInputNeighbors(const SymInputInstance& instance,
                                                    graph::Vertex v) {
  thread_local std::vector<graph::Vertex> closedH;
  closedH.clear();
  instance.input.forEachClosedNeighbor(v, [&](graph::Vertex u) { closedH.push_back(u); });
  return closedH;
}

}  // namespace

SymInputProtocol::SymInputProtocol(hash::LinearHashFamily family)
    : family_(std::move(family)) {}

bool SymInputProtocol::nodeDecision(const SymInputInstance& instance, graph::Vertex v,
                                    const SymInputFirstMessage& first,
                                    const util::BigUInt& ownChallenge,
                                    const SymInputSecondMessage& second) const {
  const std::size_t n = instance.network.numVertices();

  // Broadcast consistency (witness, index echo).
  const graph::Vertex witness = first.witnessPerNode[v];
  const util::BigUInt& index = second.indexPerNode[v];
  if (witness >= n || index >= family_.prime()) return false;
  if (!neighboursAgree(instance.network, v, first, second)) return false;

  // Tree checks over the NETWORK graph (root fixed at node 0).
  const net::SpanningTreeView tree{0, first.parent, first.dist};
  if (!net::verifyTreeLocally(instance.network, tree, v)) return false;

  // Commitment and claims shape.
  const graph::Vertex rhoV = first.rho[v];
  if (rhoV >= n) return false;
  std::span<const graph::Vertex> closedH = closedInputNeighbors(instance, v);
  const std::vector<graph::Vertex>& claims = first.claims[v];
  if (claims.size() != closedH.size()) return false;
  for (std::size_t i = 0; i < closedH.size(); ++i) {
    if (claims[i] >= n) return false;
    if (closedH[i] == v && claims[i] != rhoV) return false;  // Self-claim check.
  }

  // The witness node enforces non-triviality.
  if (v == witness && rhoV == v) return false;

  // Chain checks for all four series.
  thread_local std::array<util::BigUInt, 4> expect;
  piecesFor(instance, family_, index, v, rhoV, closedH, claims, expect);
  if (!chainLinksHold(instance.network, v, tree, second, expect, family_.prime())) {
    return false;
  }

  // Root equalities and echo.
  if (v == 0) {
    if (!(second.a[v] == second.b[v])) return false;
    if (!(second.consC[v] == second.consT[v])) return false;
    if (!(index == ownChallenge)) return false;
  }
  return true;
}

RunResult SymInputProtocol::run(const SymInputInstance& instance, SymInputProver& prover,
                                util::Rng& rng) const {
  const std::size_t n = instance.network.numVertices();
  if (instance.input.numVertices() != n) {
    throw std::invalid_argument("SymInputProtocol: input size mismatch");
  }
  const SymShape shape = symShape(instance, family_);
  RunResult result;
  result.transcript = net::Transcript(n);

  const SymInputFirstMessage first = prover.firstMessage(instance);
  proverRound(result.transcript, first, shape);
  const std::vector<util::BigUInt> challenges =
      challengeRound(result.transcript, "A: hash indices", "SymInput/A", family_, rng);
  const SymInputSecondMessage second = prover.secondMessage(instance, first, challenges);
  proverRound(result.transcript, second, shape);

  result.accepted = allNodesAccept(n, [&](graph::Vertex v) {
    return nodeDecision(instance, v, first, challenges[v], second);
  });
  return result;
}

CostBreakdown SymInputProtocol::costModel(std::size_t n, std::size_t maxInputDegree) {
  return Rounds::cost(modelWidths(n), n, maxInputDegree);
}

SymWidths SymInputProtocol::modelWidths(std::size_t n) { return symModelWidths(n, 3); }

// ---- Honest prover ----

namespace {

SymInputFirstMessage buildFirstMessage(const SymInputInstance& instance,
                                       const graph::Permutation& rho,
                                       const graph::Permutation& claimMapping) {
  const std::size_t n = instance.network.numVertices();
  net::SpanningTreeAdvice tree = net::buildBfsTree(instance.network, 0);
  SymInputFirstMessage first;
  graph::Vertex witness = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (rho[v] != v) {
      witness = v;
      break;
    }
  }
  first.witnessPerNode.assign(n, witness);
  first.rho = rho;
  first.parent = tree.parent;
  first.dist = tree.dist;
  first.claims.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    first.claims[v].reserve(instance.input.degree(v) + 1);
    instance.input.forEachClosedNeighbor(v, [&](graph::Vertex u) {
      // The self-claim must match the commitment even when lying elsewhere.
      first.claims[v].push_back(u == v ? rho[v] : claimMapping[u]);
    });
  }
  return first;
}

SymInputSecondMessage buildSecondMessage(const SymInputInstance& instance,
                                         const hash::LinearHashFamily& family,
                                         const SymInputFirstMessage& first,
                                         const util::BigUInt& index) {
  const std::size_t n = instance.network.numVertices();
  SymInputSecondMessage second;
  second.indexPerNode.assign(n, index);
  const std::array<std::vector<util::BigUInt>*, 4> chains{&second.a, &second.b, &second.consC,
                                                          &second.consT};
  for (std::vector<util::BigUInt>* chain : chains) chain->resize(n);
  thread_local std::array<util::BigUInt, 4> pieces;
  for (graph::Vertex v = 0; v < n; ++v) {
    piecesFor(instance, family, index, v, first.rho[v], closedInputNeighbors(instance, v),
              first.claims[v], pieces);
    for (std::size_t c = 0; c < chains.size(); ++c) (*chains[c])[v] = pieces[c];
  }
  const net::SpanningTreeView tree{0, first.parent, first.dist};
  thread_local std::vector<graph::Vertex> order;
  net::bottomUpOrderInto(tree, order);
  foldChains(instance.network, tree, order, chains, family.prime());
  return second;
}

}  // namespace

HonestSymInputProver::HonestSymInputProver(const hash::LinearHashFamily& family)
    : family_(family) {}

SymInputFirstMessage HonestSymInputProver::firstMessage(const SymInputInstance& instance) {
  const std::optional<graph::Permutation>& rho = preparedSym(instance.input).rho;
  if (!rho) {
    throw std::invalid_argument("HonestSymInputProver: input graph is not symmetric");
  }
  return buildFirstMessage(instance, *rho, *rho);
}

SymInputSecondMessage HonestSymInputProver::secondMessage(
    const SymInputInstance& instance, const SymInputFirstMessage& first,
    const std::vector<util::BigUInt>& challenges) {
  return buildSecondMessage(instance, family_, first, challenges[0]);
}

// ---- Cheating prover ----

CheatingSymInputProver::CheatingSymInputProver(const hash::LinearHashFamily& family,
                                               Strategy strategy, std::uint64_t seed)
    : family_(family), strategy_(strategy), rng_(seed) {}

SymInputFirstMessage CheatingSymInputProver::firstMessage(
    const SymInputInstance& instance) {
  const std::size_t n = instance.network.numVertices();
  graph::Permutation rho;
  do {
    rho = graph::randomPermutation(n, rng_);
  } while (graph::isIdentity(rho));

  if (strategy_ == Strategy::kFakeRhoHonestClaims) {
    trueRhoForClaims_ = rho;
  } else {
    // Claims follow a DIFFERENT mapping — ideally a real automorphism of
    // the input, which would make the fingerprints match if the
    // consistency check did not exist.
    const std::optional<graph::Permutation>& automorphism = preparedSym(instance.input).rho;
    trueRhoForClaims_ = automorphism ? *automorphism : graph::randomPermutation(n, rng_);
  }
  return buildFirstMessage(instance, rho, trueRhoForClaims_);
}

SymInputSecondMessage CheatingSymInputProver::secondMessage(
    const SymInputInstance& instance, const SymInputFirstMessage& first,
    const std::vector<util::BigUInt>& challenges) {
  // Chains are forced by the local checks; play them consistently with the
  // (possibly lying) first message and hope for a collision at the root.
  return buildSecondMessage(instance, family_, first, challenges[0]);
}

}  // namespace dip::core
