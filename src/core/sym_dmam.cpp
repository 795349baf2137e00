#include "core/sym_dmam.hpp"

#include <span>
#include <stdexcept>

#include "core/wire.hpp"
#include "graph/generators.hpp"
#include "hash/batch_eval.hpp"
#include "net/audit.hpp"
#include "util/bitio.hpp"

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

// Per-vertex row hashes depend only on v, not on tree order: the caller
// evaluates all 2n of them over the shared power tables, then this runs the
// bottom-up fold on the precomputed values.
ChainValues foldChains(const graph::Graph& g, const hash::LinearHashFamily& family,
                       ChainValues values, net::SpanningTreeView tree,
                       std::span<const graph::Vertex> order) {
  for (graph::Vertex v : order) {
    net::forEachChild(g, tree, v, [&](graph::Vertex child) {
      util::addModInPlace(values.a[v], values.a[child], family.prime());
      util::addModInPlace(values.b[v], values.b[child], family.prime());
    });
  }
  return values;
}

hash::BatchLinearHashEvaluator& chainEvaluator(const hash::LinearHashFamily& family,
                                               const util::BigUInt& index) {
  hash::BatchLinearHashEvaluator& batch = hash::threadChainEvaluator();
  batch.rebind(family.prime(), family.dimension(), index);
  return batch;
}

}  // namespace

ChainValues aggregateChains(const graph::Graph& g, const hash::LinearHashFamily& family,
                            const util::BigUInt& index,
                            const std::vector<graph::Vertex>& rho,
                            net::SpanningTreeView tree) {
  const std::size_t n = g.numVertices();
  hash::BatchLinearHashEvaluator& batch = chainEvaluator(family, index);
  ChainValues values;
  values.a.resize(n);
  values.b.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    values.a[v] = batch.hashMatrixRow(v, g.closedRow(v), n);
    values.b[v] = batch.hashMappedRow(rho, v, g.row(v), n);
  }
  thread_local std::vector<graph::Vertex> order;
  net::bottomUpOrderInto(tree, order);
  return foldChains(g, family, std::move(values), tree, order);
}

ChainValues aggregateChains(const graph::Graph& g, const hash::LinearHashFamily& family,
                            const util::BigUInt& index, const PreparedSym& prepared) {
  const std::size_t n = g.numVertices();
  hash::BatchLinearHashEvaluator& batch = chainEvaluator(family, index);
  ChainValues values;
  batch.hashMatrixRows(prepared.closedIndices, prepared.closedRows, n, values.a);
  batch.hashMatrixRows(prepared.imageIndices, prepared.imageRows, n, values.b);
  return foldChains(g, family, std::move(values), prepared.tree, prepared.order);
}

SymDmamProtocol::SymDmamProtocol(hash::LinearHashFamily family)
    : family_(std::move(family)) {}

bool SymDmamProtocol::nodeDecision(const graph::Graph& g, graph::Vertex v,
                                   const SymDmamFirstMessage& first,
                                   const util::BigUInt& ownChallenge,
                                   const SymDmamSecondMessage& second) const {
  const std::size_t n = g.numVertices();
  const util::BigUInt& p = family_.prime();

  // Broadcast consistency: the claimed root and index must agree with every
  // neighbor's copy.
  graph::Vertex root = first.rootPerNode[v];
  const util::BigUInt& index = second.indexPerNode[v];
  bool consistent = root < n;
  g.row(v).forEachSet([&](std::size_t u) {
    const auto neighbor = static_cast<graph::Vertex>(u);
    if (!first.rootPerNode.agree(neighbor, v) || !second.indexPerNode.agree(neighbor, v)) {
      consistent = false;
    }
  });
  if (!consistent) return false;
  if (index >= p) return false;

  // Line 1: spanning-tree local checks, on a view of the message's advice.
  const net::SpanningTreeView tree{root, first.parent, first.dist};
  if (!net::verifyTreeLocally(g, tree, v)) return false;

  // Lines 2-3: chain verification.
  if (!rhoInRange(g, v, first.rho)) return false;
  // The node's own two rows, over the calling thread's shared power tables:
  // in an honest trial the prover pinned this index moments ago, so the
  // rebind is a no-op. Only the public tables keyed by (p, m, index) are
  // shared; the row hashes are recomputed here.
  hash::BatchLinearHashEvaluator& batch = hash::threadChainEvaluator();
  batch.rebind(p, family_.dimension(), index);
  thread_local util::BigUInt expectA;
  thread_local util::BigUInt expectB;
  expectA = batch.hashMatrixRow(v, g.closedRow(v), n);
  expectB = batch.hashMappedRow(first.rho, v, g.row(v), n);
  bool childrenOk = true;
  net::forEachChild(g, tree, v, [&](graph::Vertex child) {
    if (!childrenOk) return;
    if (second.a[child] >= p || second.b[child] >= p) {
      childrenOk = false;
      return;
    }
    util::addModInPlace(expectA, second.a[child], p);
    util::addModInPlace(expectB, second.b[child], p);
  });
  if (!childrenOk) return false;
  if (!(second.a[v] == expectA) || !(second.b[v] == expectB)) return false;

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
  const unsigned idBits = util::bitsFor(n);
  const std::size_t seedBits = family_.seedBits();
  const std::size_t valueBits = family_.valueBits();

  RunResult result;
  result.transcript = net::Transcript(n);
  net::Transcript& transcript = result.transcript;

  // M1.
  transcript.beginRound("M1: root/rho/tree");
  SymDmamFirstMessage first = prover.firstMessage(g);
  if (first.rootPerNode.size() != n || first.rho.size() != n ||
      first.parent.size() != n || first.dist.size() != n) {
    throw std::runtime_error("SymDmamProver: malformed first message");
  }
  transcript.chargeBroadcastFromProver(idBits);  // Root id.
  for (graph::Vertex v = 0; v < n; ++v) {
    transcript.chargeFromProver(v, 3 * idBits);  // rho_v, t_v, d_v.
  }
#if DIP_AUDIT
  net::auditChargedRound("SymDmam/M1", transcript,
                         [&] { return wire::encodeSymDmamFirst(first, n, &net::roundArena()); });
#endif

  // A: challenges.
  transcript.beginRound("A: hash indices");
  std::vector<util::BigUInt> challenges;
  challenges.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::Rng nodeRng = rng.split(v);
    challenges.push_back(family_.randomIndex(nodeRng));
    transcript.chargeToProver(v, seedBits);
  }
#if DIP_AUDIT
  net::roundArena().reset();
  for (graph::Vertex v = 0; v < n; ++v) {
    net::auditCharge(
        "SymDmam/A", v, transcript.roundBitsToProver(v),
        wire::encodeChallenge(challenges[v], family_, &net::roundArena()).bitCount());
  }
#endif

  // M2.
  transcript.beginRound("M2: index echo + chain values");
  SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);
  if (second.indexPerNode.size() != n || second.a.size() != n || second.b.size() != n) {
    throw std::runtime_error("SymDmamProver: malformed second message");
  }
  transcript.chargeBroadcastFromProver(seedBits);  // Index echo.
  for (graph::Vertex v = 0; v < n; ++v) {
    transcript.chargeFromProver(v, 2 * valueBits);  // a_v, b_v.
  }
#if DIP_AUDIT
  net::auditChargedRound("SymDmam/M2", transcript, [&] {
    return wire::encodeSymDmamSecond(second, n, family_, &net::roundArena());
  });
#endif

  // Decisions: every node runs its own local check.
  result.accepted = true;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!nodeDecision(g, v, first, challenges[v], second)) {
      result.accepted = false;
      break;
    }
  }
  return result;
}

CostBreakdown SymDmamProtocol::costModel(std::size_t n) {
  // p in [10 n^3, 100 n^3]  =>  seed/value bits <= log2(100 n^3).
  const unsigned idBits = util::bitsFor(n);
  util::BigUInt pHi = util::BigUInt{100} * util::BigUInt::pow(util::BigUInt{n}, 3);
  const std::size_t hashBits = pHi.bitLength();
  CostBreakdown cost;
  cost.bitsToProverPerNode = hashBits;                       // i_v.
  cost.bitsFromProverPerNode = idBits                        // Root broadcast.
                               + 3 * idBits                  // rho_v, t_v, d_v.
                               + hashBits                    // Index echo.
                               + 2 * hashBits;               // a_v, b_v.
  return cost;
}

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
