#include "core/dsym_dam.hpp"

#include <stdexcept>

#include "core/wire.hpp"
#include "hash/batch_eval.hpp"
#include "net/audit.hpp"
#include "net/spanning.hpp"
#include "util/bitio.hpp"

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
  const util::BigUInt& p = family_.prime();
  if (n != layout_.numVertices) return false;

  // Structural conditions (2)-(3): purely local, no prover input.
  if (!graph::dsymLocalStructureOk(g, layout_, v)) return false;

  // Broadcast consistency.
  const util::BigUInt& index = msg.indexPerNode[v];
  graph::Vertex root = msg.rootPerNode[v];
  if (root >= n || index >= p) return false;
  bool consistent = true;
  g.row(v).forEachSet([&](std::size_t u) {
    const auto neighbor = static_cast<graph::Vertex>(u);
    if (!msg.indexPerNode.agree(neighbor, v) || !msg.rootPerNode.agree(neighbor, v)) {
      consistent = false;
    }
  });
  if (!consistent) return false;

  // Spanning-tree local checks, on a view of the message's advice.
  const net::SpanningTreeView tree{root, msg.parent, msg.dist};
  if (!net::verifyTreeLocally(g, tree, v)) return false;

  // Chain verification with the FIXED sigma (locally computable from the
  // public layout; precomputed once at protocol construction). The node's
  // two own rows hash over the calling thread's shared power tables (see
  // sym_dam).
  const graph::Permutation& sigma = sigma_;
  hash::BatchLinearHashEvaluator& batch = hash::threadChainEvaluator();
  batch.rebind(p, family_.dimension(), index);
  thread_local util::BigUInt expectA;
  thread_local util::BigUInt expectB;
  expectA = batch.hashMatrixRow(v, g.closedRow(v), n);
  expectB = batch.hashMappedRow(sigma, v, g.row(v), n);
  bool childrenOk = true;
  net::forEachChild(g, tree, v, [&](graph::Vertex child) {
    if (!childrenOk) return;
    if (msg.a[child] >= p || msg.b[child] >= p) {
      childrenOk = false;
      return;
    }
    util::addModInPlace(expectA, msg.a[child], p);
    util::addModInPlace(expectB, msg.b[child], p);
  });
  if (!childrenOk) return false;
  if (!(msg.a[v] == expectA) || !(msg.b[v] == expectB)) return false;

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
  const unsigned idBits = util::bitsFor(n);
  const std::size_t seedBits = family_.seedBits();
  const std::size_t valueBits = family_.valueBits();

  RunResult result;
  result.transcript = net::Transcript(n);
  net::Transcript& transcript = result.transcript;

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
        "DSym/A", v, transcript.roundBitsToProver(v),
        wire::encodeChallenge(challenges[v], family_, &net::roundArena()).bitCount());
  }
#endif

  transcript.beginRound("M: index/root/tree/chains");
  DSymMessage msg = prover.respond(g, challenges);
  if (msg.indexPerNode.size() != n || msg.rootPerNode.size() != n ||
      msg.parent.size() != n || msg.dist.size() != n || msg.a.size() != n ||
      msg.b.size() != n) {
    throw std::runtime_error("DSymProver: malformed message");
  }
  transcript.chargeBroadcastFromProver(seedBits + idBits);  // Index + root.
  for (graph::Vertex v = 0; v < n; ++v) {
    transcript.chargeFromProver(v, 2 * idBits + 2 * valueBits);
  }
#if DIP_AUDIT
  net::auditChargedRound("DSym/M", transcript,
                         [&] { return wire::encodeDSym(msg, n, family_, &net::roundArena()); });
#endif

  // Decisions: every node runs its own local check.
  result.accepted = true;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!nodeDecision(g, v, msg, challenges[v])) {
      result.accepted = false;
      break;
    }
  }
  return result;
}

CostBreakdown DSymDamProtocol::costModel(const graph::DSymLayout& layout) {
  const std::size_t n = layout.numVertices;
  const unsigned idBits = util::bitsFor(n);
  util::BigUInt pHi = util::BigUInt{100} * util::BigUInt::pow(util::BigUInt{n}, 3);
  const std::size_t hashBits = pHi.bitLength();
  CostBreakdown cost;
  cost.bitsToProverPerNode = hashBits;
  cost.bitsFromProverPerNode = hashBits + idBits   // Index + root broadcast.
                               + 2 * idBits        // t_v, d_v.
                               + 2 * hashBits;     // a_v, b_v.
  return cost;
}

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
