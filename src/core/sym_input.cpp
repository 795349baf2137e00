#include "core/sym_input.hpp"

#include <optional>
#include <span>
#include <stdexcept>

#include "core/chain_util.hpp"
#include "core/prepared.hpp"
#include "core/sym_input_wire.hpp"
#include "core/wire.hpp"
#include "graph/generators.hpp"
#include "hash/batch_eval.hpp"
#include "net/audit.hpp"
#include "net/spanning.hpp"
#include "util/bitio.hpp"

namespace dip::core {

namespace {

// Per-node chain pieces for the three checks, given the committed rho and
// (possibly lying) claims. Used by both the honest prover and the verifier.
struct SymInputPieces {
  util::BigUInt a, b, consC, consT;
};

SymInputPieces piecesFor(const SymInputInstance& instance,
                         const hash::LinearHashFamily& family,
                         const util::BigUInt& index, graph::Vertex v,
                         graph::Vertex rhoV, std::span<const graph::Vertex> closedH,
                         const std::vector<graph::Vertex>& claims) {
  const std::size_t n = instance.network.numVertices();

  SymInputPieces pieces;
  util::DynBitset claimedImages(n);
  for (graph::Vertex image : claims) claimedImages.set(image);

  // The index is pinned across every per-node call of a trial (prover loop
  // and the verifier's uniform echo), so the batch evaluator's rebind
  // short-circuits and all four pieces become table lookups.
  thread_local hash::BatchLinearHashEvaluator batch;
  batch.rebind(family, index);
  pieces.a = batch.hashMatrixRow(v, instance.input.closedRow(v), n);
  pieces.b = batch.hashMatrixRow(rhoV, claimedImages, n);
  thread_local std::vector<std::uint64_t> consRows;
  thread_local std::vector<std::uint64_t> consCols;
  consRows.clear();
  consCols.clear();
  for (std::size_t i = 0; i < closedH.size(); ++i) {
    consRows.push_back(closedH[i]);
    consCols.push_back(claims[i]);
  }
  pieces.consC = batch.accumulateMatrixEntries(consRows, consCols, n);
  pieces.consT = batch.hashMatrixEntry(v, rhoV, closedH.size(), n);
  return pieces;
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
  const util::BigUInt& p = family_.prime();

  // Broadcast consistency (witness, index echo).
  graph::Vertex witness = first.witnessPerNode[v];
  const util::BigUInt& index = second.indexPerNode[v];
  if (witness >= n || index >= p) return false;
  bool consistent = true;
  instance.network.row(v).forEachSet([&](std::size_t u) {
    const auto neighbor = static_cast<graph::Vertex>(u);
    if (!first.witnessPerNode.agree(neighbor, v) || !second.indexPerNode.agree(neighbor, v)) {
      consistent = false;
    }
  });
  if (!consistent) return false;

  // Tree checks over the NETWORK graph (root fixed at node 0).
  const net::SpanningTreeView tree{0, first.parent, first.dist};
  if (!net::verifyTreeLocally(instance.network, tree, v)) return false;
  thread_local std::vector<graph::Vertex> children;
  children.clear();
  net::forEachChild(instance.network, tree, v,
                    [&](graph::Vertex child) { children.push_back(child); });

  // Commitment and claims shape.
  graph::Vertex rhoV = first.rho[v];
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
  SymInputPieces pieces = piecesFor(instance, family_, index, v, rhoV, closedH, claims);
  auto column = [&](const std::vector<util::BigUInt>& values) {
    return [&values](graph::Vertex u) -> const util::BigUInt& { return values[u]; };
  };
  if (!chainLinkHoldsAt(pieces.a, children, column(second.a), v, p) ||
      !chainLinkHoldsAt(pieces.b, children, column(second.b), v, p) ||
      !chainLinkHoldsAt(pieces.consC, children, column(second.consC), v, p) ||
      !chainLinkHoldsAt(pieces.consT, children, column(second.consT), v, p)) {
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
  const unsigned idBits = util::bitsFor(n);
  const std::size_t seedBits = family_.seedBits();
  const std::size_t valueBits = family_.valueBits();

  RunResult result;
  result.transcript = net::Transcript(n);
  net::Transcript& transcript = result.transcript;

  transcript.beginRound("M1: rho/claims/tree");
  SymInputFirstMessage first = prover.firstMessage(instance);
  if (first.witnessPerNode.size() != n || first.rho.size() != n ||
      first.parent.size() != n || first.dist.size() != n || first.claims.size() != n) {
    throw std::runtime_error("SymInputProver: malformed first message");
  }
  transcript.chargeBroadcastFromProver(idBits);  // Witness.
  for (graph::Vertex v = 0; v < n; ++v) {
    transcript.chargeFromProver(v, 3 * idBits + first.claims[v].size() * idBits);
  }
#if DIP_AUDIT
  net::auditChargedRound("SymInput/M1", transcript, [&] {
    return wire::encodeSymInputFirst(first, instance);
  });
#endif

  transcript.beginRound("A: hash indices");
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < n; ++v) {
    util::Rng nodeRng = rng.split(v);
    challenges.push_back(family_.randomIndex(nodeRng));
    transcript.chargeToProver(v, seedBits);
  }
#if DIP_AUDIT
  net::roundArena().reset();
  for (graph::Vertex v = 0; v < n; ++v) {
    net::auditCharge(
        "SymInput/A", v, transcript.roundBitsToProver(v),
        wire::encodeChallenge(challenges[v], family_, &net::roundArena()).bitCount());
  }
#endif

  transcript.beginRound("M2: index echo + chains");
  SymInputSecondMessage second = prover.secondMessage(instance, first, challenges);
  if (second.indexPerNode.size() != n || second.a.size() != n || second.b.size() != n ||
      second.consC.size() != n || second.consT.size() != n) {
    throw std::runtime_error("SymInputProver: malformed second message");
  }
  transcript.chargeBroadcastFromProver(seedBits);
  for (graph::Vertex v = 0; v < n; ++v) {
    transcript.chargeFromProver(v, 4 * valueBits);
  }
#if DIP_AUDIT
  net::auditChargedRound("SymInput/M2", transcript, [&] {
    return wire::encodeSymInputSecond(second, n, family_);
  });
#endif

  result.accepted = true;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!nodeDecision(instance, v, first, challenges[v], second)) {
      result.accepted = false;
      break;
    }
  }
  return result;
}

CostBreakdown SymInputProtocol::costModel(std::size_t n, std::size_t maxInputDegree) {
  const unsigned idBits = util::bitsFor(n);
  util::BigUInt pHi = util::BigUInt{100} * util::BigUInt::pow(util::BigUInt{n}, 3);
  const std::size_t hashBits = pHi.bitLength();
  CostBreakdown cost;
  cost.bitsToProverPerNode = hashBits;
  cost.bitsFromProverPerNode = idBits                                  // Witness.
                               + 3 * idBits                            // rho, t, d.
                               + (maxInputDegree + 1) * idBits         // Claims.
                               + hashBits                              // Echo.
                               + 4 * hashBits;                         // Chains.
  return cost;
}

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
  const net::SpanningTreeView tree{0, first.parent, first.dist};
  std::vector<util::BigUInt> aPieces(n), bPieces(n), cPieces(n), tPieces(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    SymInputPieces pieces = piecesFor(instance, family, index, v, first.rho[v],
                                      closedInputNeighbors(instance, v), first.claims[v]);
    aPieces[v] = pieces.a;
    bPieces[v] = pieces.b;
    cPieces[v] = pieces.consC;
    tPieces[v] = pieces.consT;
  }
  SymInputSecondMessage second;
  second.indexPerNode.assign(n, index);
  second.a = subtreeSums(instance.network, tree, aPieces, family.prime());
  second.b = subtreeSums(instance.network, tree, bPieces, family.prime());
  second.consC = subtreeSums(instance.network, tree, cPieces, family.prime());
  second.consT = subtreeSums(instance.network, tree, tPieces, family.prime());
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
