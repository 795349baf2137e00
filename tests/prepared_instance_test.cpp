// Tests for the honest Sym provers' prepared instance (core/prepared.hpp):
// the per-thread memo must hand back exactly what a fresh build computes,
// however graphs interleave and on whichever thread; honest messages built
// on it must equal messages built from scratch; and a cheating prover run
// after an honest one on the same graph must still be caught.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/dsym_dam.hpp"
#include "core/prepared.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "hash/linear_hash.hpp"
#include "net/spanning.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using graph::Graph;
using graph::Vertex;
using util::BigUInt;
using util::Rng;

bool samePrepared(const PreparedSym& a, const PreparedSym& b) {
  return a.rho == b.rho && a.root == b.root && a.tree.root == b.tree.root &&
         a.tree.parent == b.tree.parent && a.tree.dist == b.tree.dist &&
         a.order == b.order && a.closedIndices == b.closedIndices &&
         a.closedRows == b.closedRows && a.imageIndices == b.imageIndices &&
         a.imageRows == b.imageRows;
}

// Three instances on one thread, revisited in turn: two Sym graphs and the
// DSym key (graph plus sigma). Returns whether every lookup matched.
bool interleavedLookupsMatch(const Graph& g1, const Graph& g2, const Graph& dsym,
                             const graph::Permutation& sigma) {
  const PreparedSym fresh1 = buildPreparedSym(g1);
  const PreparedSym fresh2 = buildPreparedSym(g2);
  const PreparedSym freshD = buildPreparedSym(dsym, sigma);
  bool ok = true;
  for (int round = 0; round < 5; ++round) {
    ok = ok && samePrepared(preparedSym(g1), fresh1);
    ok = ok && samePrepared(preparedSym(dsym, sigma), freshD);
    ok = ok && samePrepared(preparedSym(g2), fresh2);
  }
  return ok;
}

struct Instances {
  Graph g1{1};
  Graph g2{1};
  graph::DSymLayout layout = graph::dsymLayout(6, 1);
  Graph dsym{1};
  graph::Permutation sigma;
};

Instances makeInstances() {
  Instances out;
  Rng rng(1801);
  out.g1 = graph::randomSymmetricConnected(10, rng);
  out.g2 = graph::randomSymmetricConnected(12, rng);
  out.dsym = graph::dsymInstance(graph::randomRigidConnected(6, rng), 1);
  out.sigma = graph::dsymSigma(out.layout);
  return out;
}

TEST(PreparedInstance, FreshBuildIsTheHonestCommitment) {
  const Instances in = makeInstances();
  const PreparedSym prepared = buildPreparedSym(in.g1);
  ASSERT_TRUE(prepared.rho.has_value());
  EXPECT_EQ(prepared.rho, graph::findNontrivialAutomorphism(in.g1));
  EXPECT_TRUE(graph::isAutomorphism(in.g1, *prepared.rho));
  EXPECT_NE((*prepared.rho)[prepared.root], prepared.root);
  for (Vertex v = 0; v < prepared.root; ++v) EXPECT_EQ((*prepared.rho)[v], v);
  const net::SpanningTreeAdvice tree = net::buildBfsTree(in.g1, prepared.root);
  EXPECT_EQ(prepared.tree.parent, tree.parent);
  EXPECT_EQ(prepared.tree.dist, tree.dist);
  EXPECT_EQ(prepared.order, net::bottomUpOrder(tree));
  for (Vertex v = 0; v < in.g1.numVertices(); ++v) {
    EXPECT_EQ(prepared.closedIndices[v], v);
    EXPECT_EQ(prepared.closedRows[v], in.g1.closedRow(v));
    EXPECT_EQ(prepared.imageIndices[v], (*prepared.rho)[v]);
    EXPECT_EQ(prepared.imageRows[v], Graph::imageOf(in.g1.closedRow(v), *prepared.rho));
  }

  const PreparedSym dsym = buildPreparedSym(in.dsym, in.sigma);
  EXPECT_EQ(dsym.rho, in.sigma);
  EXPECT_EQ(dsym.root, 0u);
}

TEST(PreparedInstance, RigidOrDisconnectedGraphsHaveNoTree) {
  Rng rng(1802);
  const PreparedSym rigid = buildPreparedSym(graph::randomRigidConnected(8, rng));
  EXPECT_FALSE(rigid.rho.has_value());
  EXPECT_TRUE(rigid.order.empty());
  EXPECT_THROW(requireTree(rigid, "test"), std::invalid_argument);

  // Two disjoint triangles: symmetric, not connected.
  const Graph split = Graph::fromEdges(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  const PreparedSym disconnected = buildPreparedSym(split);
  EXPECT_TRUE(disconnected.rho.has_value());
  EXPECT_TRUE(disconnected.order.empty());
  EXPECT_THROW(requireTree(disconnected, "test"), std::invalid_argument);
}

TEST(PreparedInstance, MemoMatchesFreshBuildWithGraphsInterleaved) {
  const Instances in = makeInstances();
  EXPECT_TRUE(interleavedLookupsMatch(in.g1, in.g2, in.dsym, in.sigma));
  // The same graph under its own automorphism and under sigma are two keys.
  EXPECT_EQ(preparedSym(in.dsym, in.sigma).rho, in.sigma);
  EXPECT_TRUE(samePrepared(preparedSym(in.dsym), buildPreparedSym(in.dsym)));
}

TEST(PreparedInstance, MemoMatchesFreshBuildOnTwoThreads) {
  const Instances in = makeInstances();
  bool ok[2] = {false, false};
  std::thread first([&] { ok[0] = interleavedLookupsMatch(in.g1, in.g2, in.dsym, in.sigma); });
  std::thread second([&] { ok[1] = interleavedLookupsMatch(in.g2, in.g1, in.dsym, in.sigma); });
  first.join();
  second.join();
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
}

std::vector<BigUInt> drawChallenges(const hash::LinearHashFamily& family, std::size_t n,
                                    Rng& rng) {
  std::vector<BigUInt> challenges;
  for (Vertex v = 0; v < n; ++v) challenges.push_back(family.randomIndex(rng));
  return challenges;
}

TEST(PreparedInstance, HonestMessagesEqualScratchBuilds) {
  const Instances in = makeInstances();
  Rng rng(1803);

  // Protocol 1.
  {
    const Graph& g = in.g1;
    const std::size_t n = g.numVertices();
    const hash::LinearHashFamily family = hash::makeProtocol1FamilyCached(n);
    const std::vector<BigUInt> challenges = drawChallenges(family, n, rng);
    HonestSymDmamProver prover(family);
    const SymDmamFirstMessage first = prover.firstMessage(g);
    const SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);

    const graph::Permutation rho = *graph::findNontrivialAutomorphism(g);
    Vertex root = 0;
    while (rho[root] == root) ++root;
    const net::SpanningTreeAdvice tree = net::buildBfsTree(g, root);
    const ChainValues chains = aggregateChains(g, family, challenges[root], rho, tree);
    EXPECT_EQ(first.rootPerNode, Broadcast<Vertex>(n, root));
    EXPECT_EQ(first.rho, rho);
    EXPECT_EQ(first.parent, tree.parent);
    EXPECT_EQ(first.dist, tree.dist);
    EXPECT_EQ(second.indexPerNode, Broadcast<BigUInt>(n, challenges[root]));
    EXPECT_EQ(second.a, chains.a);
    EXPECT_EQ(second.b, chains.b);
  }

  // Protocol 2: one rho for the whole message.
  {
    const Graph& g = in.g2;
    const std::size_t n = g.numVertices();
    const hash::LinearHashFamily family = hash::makeProtocol1FamilyCached(n);
    const std::vector<BigUInt> challenges = drawChallenges(family, n, rng);
    HonestSymDamProver prover(family);
    const SymDamMessage msg = prover.respond(g, challenges);

    const graph::Permutation rho = *graph::findNontrivialAutomorphism(g);
    Vertex root = 0;
    while (rho[root] == root) ++root;
    const net::SpanningTreeAdvice tree = net::buildBfsTree(g, root);
    const ChainValues chains = aggregateChains(g, family, challenges[root], rho, tree);
    EXPECT_EQ(msg.rhoPerNode.overrideCount(), 0u);
    EXPECT_TRUE(msg.rhoPerNode.uniform());
    EXPECT_EQ(msg.rhoPerNode, Broadcast<std::vector<Vertex>>(n, rho));
    EXPECT_EQ(msg.indexPerNode, Broadcast<BigUInt>(n, challenges[root]));
    EXPECT_EQ(msg.rootPerNode, Broadcast<Vertex>(n, root));
    EXPECT_EQ(msg.parent, tree.parent);
    EXPECT_EQ(msg.dist, tree.dist);
    EXPECT_EQ(msg.a, chains.a);
    EXPECT_EQ(msg.b, chains.b);
  }

  // DSym: sigma, root 0.
  {
    const Graph& g = in.dsym;
    const std::size_t n = g.numVertices();
    const hash::LinearHashFamily family = hash::makeProtocol1FamilyCached(n);
    const std::vector<BigUInt> challenges = drawChallenges(family, n, rng);
    HonestDSymProver prover(in.layout, family);
    const DSymMessage msg = prover.respond(g, challenges);

    const net::SpanningTreeAdvice tree = net::buildBfsTree(g, 0);
    const ChainValues chains = aggregateChains(g, family, challenges[0], in.sigma, tree);
    EXPECT_EQ(msg.indexPerNode, Broadcast<BigUInt>(n, challenges[0]));
    EXPECT_EQ(msg.rootPerNode, Broadcast<Vertex>(n, 0));
    EXPECT_EQ(msg.parent, tree.parent);
    EXPECT_EQ(msg.dist, tree.dist);
    EXPECT_EQ(msg.a, chains.a);
    EXPECT_EQ(msg.b, chains.b);
  }
}

TEST(PreparedInstance, CheatersAfterAnHonestTrialStillReject) {
  const Instances in = makeInstances();
  const Graph& g = in.g1;
  const std::size_t n = g.numVertices();
  SymDmamProtocol protocol(hash::makeProtocol1FamilyCached(n));
  Rng rng(1804);

  HonestSymDmamProver honest(protocol.family());
  ASSERT_TRUE(protocol.run(g, honest, rng).accepted);

  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    CheatingRhoProver cheater(protocol.family(),
                              CheatingRhoProver::Strategy::kRandomPermutation, 1900 + seed);
    const SymDmamFirstMessage first = cheater.firstMessage(g);
    if (graph::isAutomorphism(g, first.rho)) continue;  // Not a lie on this graph.
    CheatingRhoProver replay(protocol.family(),
                             CheatingRhoProver::Strategy::kRandomPermutation, 1900 + seed);
    EXPECT_FALSE(protocol.run(g, replay, rng).accepted) << "seed " << seed;
    ASSERT_TRUE(protocol.run(g, honest, rng).accepted);
  }
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    HashChainLiarProver liar(protocol.family(), 2000 + seed);
    EXPECT_FALSE(protocol.run(g, liar, rng).accepted) << "seed " << seed;
    ASSERT_TRUE(protocol.run(g, honest, rng).accepted);
  }
}

}  // namespace
}  // namespace dip::core
