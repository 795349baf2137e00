// Tests for the DSym dAM protocol (Section 3.3) — the O(log n) side of the
// exponential separation of Theorem 1.2.
#include <gtest/gtest.h>

#include <memory>

#include "core/dsym_dam.hpp"
#include "net/spanning.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "pls/sym_lcp.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using graph::Graph;
using util::Rng;

DSymDamProtocol makeProtocol(const graph::DSymLayout& layout, std::uint64_t seed) {
  Rng rng(seed);
  return DSymDamProtocol(
      layout, hash::LinearHashFamily(
                  util::findPrimeInRange(
                      util::BigUInt{10} * util::BigUInt::pow(
                                              util::BigUInt{layout.numVertices}, 3),
                      util::BigUInt{100} * util::BigUInt::pow(
                                               util::BigUInt{layout.numVertices}, 3),
                      rng),
                  static_cast<std::uint64_t>(layout.numVertices) * layout.numVertices));
}

TEST(DSymDam, CompletenessOnYesInstances) {
  Rng rng(121);
  for (std::size_t side : {4u, 6u, 8u}) {
    for (std::size_t radius : {1u, 2u}) {
      Graph f = graph::randomConnected(side, side / 2, rng);
      Graph g = graph::dsymInstance(f, radius);
      graph::DSymLayout layout = graph::dsymLayout(side, radius);
      DSymDamProtocol protocol = makeProtocol(layout, 300 + side * 10 + radius);
      HonestDSymProver prover(layout, protocol.family());
      EXPECT_TRUE(protocol.run(g, prover, rng).accepted)
          << "side=" << side << " radius=" << radius;
    }
  }
}

TEST(DSymDam, SoundnessOnMismatchedSides) {
  // NO-instance with intact structure but non-matching sides: only the
  // fingerprint equality can catch it, and it does (except with
  // probability <= N^2/p).
  Rng rng(122);
  const std::size_t side = 6;
  Graph f = graph::randomRigidConnected(side, rng);
  Graph fOther = graph::randomRigidConnected(side, rng);
  while (fOther == f) fOther = graph::randomRigidConnected(side, rng);
  Graph no = graph::dsymNoInstance(f, fOther, 1);
  graph::DSymLayout layout = graph::dsymLayout(side, 1);
  ASSERT_FALSE(graph::isDSymInstance(no, layout));

  DSymDamProtocol protocol = makeProtocol(layout, 400);
  AcceptanceStats stats = estimateAcceptance(
      protocol, no, [&] { return std::make_unique<CheatingDSymProver>(layout, protocol.family()); },
      300, rng);
  EXPECT_LT(stats.interval().low, 1.0 / 3.0);
  EXPECT_LT(stats.rate(), 0.1);
}

TEST(DSymDam, StructuralViolationsRejectedDeterministically) {
  // A stray cross edge breaks the purely-local structural check: zero
  // acceptance regardless of the prover.
  Rng rng(123);
  const std::size_t side = 5;
  Graph f = graph::randomConnected(side, 2, rng);
  Graph g = graph::dsymInstance(f, 1);
  g.addEdge(1, static_cast<graph::Vertex>(side + 2));  // Cross edge.
  graph::DSymLayout layout = graph::dsymLayout(side, 1);

  DSymDamProtocol protocol = makeProtocol(layout, 500);
  AcceptanceStats stats = estimateAcceptance(
      protocol, g, [&] { return std::make_unique<CheatingDSymProver>(layout, protocol.family()); },
      30, rng);
  EXPECT_EQ(stats.accepts, 0u);
}

TEST(DSymDam, BrokenPathRejected) {
  // Remove a path edge: the graph is disconnected, but more importantly the
  // path nodes' local checks fail. Build the broken graph directly.
  const std::size_t side = 4;
  Rng rng(124);
  Graph f = graph::randomConnected(side, 2, rng);
  graph::DSymLayout layout = graph::dsymLayout(side, 1);
  Graph g(layout.numVertices);
  // Copy everything EXCEPT one path edge from the genuine instance.
  Graph good = graph::dsymInstance(f, 1);
  for (graph::Vertex v = 0; v < good.numVertices(); ++v) {
    good.row(v).forEachSet([&](std::size_t u) {
      if (u > v && !(v == 2 * side && u == 2 * side + 1)) {
        g.addEdge(v, static_cast<graph::Vertex>(u));
      }
    });
  }
  bool someNodeRejects = false;
  for (graph::Vertex v = 0; v < g.numVertices(); ++v) {
    if (!graph::dsymLocalStructureOk(g, layout, v)) someNodeRejects = true;
  }
  EXPECT_TRUE(someNodeRejects);
}

TEST(DSymDam, CostIsLogarithmic) {
  // The separation: DSym dAM costs O(log N) while any LCP needs Omega(N^2)
  // (Goos-Suomela); compare against our Theta(N^2) SymLCP baseline.
  std::size_t prev = 0;
  for (std::size_t side : {8u, 16u, 32u, 64u, 128u}) {
    graph::DSymLayout layout = graph::dsymLayout(side, 2);
    std::size_t cost = DSymDamProtocol::costModel(layout).totalPerNode();
    std::size_t lcpBits = pls::SymLcp::adviceBitsPerNode(layout.numVertices);
    EXPECT_LT(cost, lcpBits) << "side=" << side;
    if (side >= 32) {
      EXPECT_LT(cost * 10, lcpBits) << "side=" << side;  // >= 10x cheaper at scale.
    }
    if (prev) {
      EXPECT_LE(cost, prev + 40);
    }
    prev = cost;
  }
  // At side = 128 (N = 261): interactive ~ a few hundred bits, LCP ~ 68k.
  graph::DSymLayout big = graph::dsymLayout(128, 2);
  EXPECT_LT(DSymDamProtocol::costModel(big).totalPerNode(), 400u);
  EXPECT_GT(pls::SymLcp::adviceBitsPerNode(big.numVertices), 60000u);
}

TEST(DSymDam, AnyValidTreeAndRootAccepted) {
  // The prover is free to choose ANY root and spanning tree; the protocol
  // must accept every honest variant, not just the library prover's
  // root-0 BFS tree. Construct the messages by hand for other roots.
  Rng rng(126);
  const std::size_t side = 5;
  Graph f = graph::randomConnected(side, 2, rng);
  Graph g = graph::dsymInstance(f, 1);
  graph::DSymLayout layout = graph::dsymLayout(side, 1);
  DSymDamProtocol protocol = makeProtocol(layout, 700);
  const std::size_t n = layout.numVertices;

  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < n; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  for (graph::Vertex root : {graph::Vertex{0}, graph::Vertex{3},
                             static_cast<graph::Vertex>(n - 1)}) {
    net::SpanningTreeAdvice tree = net::buildBfsTree(g, root);
    ChainValues chains = aggregateChains(g, protocol.family(), challenges[root],
                                         graph::dsymSigma(layout), tree);
    DSymMessage msg;
    msg.indexPerNode.assign(n, challenges[root]);
    msg.rootPerNode.assign(n, root);
    msg.parent = tree.parent;
    msg.dist = tree.dist;
    msg.a = chains.a;
    msg.b = chains.b;
    for (graph::Vertex v = 0; v < n; ++v) {
      EXPECT_TRUE(protocol.nodeDecision(g, v, msg, challenges[v]))
          << "root " << root << " node " << v;
    }
  }
}

TEST(DSymDam, MeasuredCostMatchesModel) {
  Rng rng(125);
  const std::size_t side = 6;
  Graph f = graph::randomConnected(side, 3, rng);
  Graph g = graph::dsymInstance(f, 2);
  graph::DSymLayout layout = graph::dsymLayout(side, 2);
  DSymDamProtocol protocol = makeProtocol(layout, 600);
  HonestDSymProver prover(layout, protocol.family());
  RunResult result = protocol.run(g, prover, rng);
  ASSERT_TRUE(result.accepted);
  CostBreakdown model = DSymDamProtocol::costModel(layout);
  EXPECT_LE(result.transcript.maxPerNodeBits(), model.totalPerNode());
  EXPECT_GE(result.transcript.maxPerNodeBits(), model.totalPerNode() / 2);
}

}  // namespace
}  // namespace dip::core
