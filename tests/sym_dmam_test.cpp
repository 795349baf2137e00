// Tests for Protocol 1 — the O(log n) dMAM protocol for Sym (Theorem 1.1).
#include <gtest/gtest.h>

#include <memory>

#include "core/sym_dmam.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using graph::Graph;
using util::Rng;

SymDmamProtocol makeProtocol(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return SymDmamProtocol(hash::makeProtocol1Family(n, rng));
}

TEST(SymDmam, CompletenessOnSymmetricGraphs) {
  // Honest prover + symmetric graph => accept (completeness is perfect for
  // this protocol: every check is an identity the honest prover satisfies).
  Rng rng(81);
  for (std::size_t n : {6u, 10u, 16u, 24u}) {
    Graph g = graph::randomSymmetricConnected(n, rng);
    SymDmamProtocol protocol = makeProtocol(n, 1000 + n);
    HonestSymDmamProver prover(protocol.family());
    for (int trial = 0; trial < 10; ++trial) {
      EXPECT_TRUE(protocol.run(g, prover, rng).accepted) << "n=" << n;
    }
  }
}

TEST(SymDmam, CompletenessOnClassicSymmetricFamilies) {
  Rng rng(82);
  for (const Graph& g : {graph::cycleGraph(9), graph::completeGraph(7),
                         graph::starGraph(8), graph::gridGraph(3, 3)}) {
    SymDmamProtocol protocol = makeProtocol(g.numVertices(), 2000 + g.numVertices());
    HonestSymDmamProver prover(protocol.family());
    EXPECT_TRUE(protocol.run(g, prover, rng).accepted);
  }
}

TEST(SymDmam, HonestProverRejectsRigidGraph) {
  Rng rng(83);
  Graph g = graph::randomRigidConnected(8, rng);
  SymDmamProtocol protocol = makeProtocol(8, 3000);
  HonestSymDmamProver prover(protocol.family());
  EXPECT_THROW(protocol.run(g, prover, rng), std::invalid_argument);
}

TEST(SymDmam, SoundnessAgainstCommittedCheaters) {
  // On a rigid graph, a prover that commits to any fake rho before seeing
  // the seed is caught except with probability <= n^2/p <= 1/(10n) — far
  // below the 1/3 requirement.
  Rng rng(84);
  const std::size_t n = 8;
  Graph g = graph::randomRigidConnected(n, rng);
  SymDmamProtocol protocol = makeProtocol(n, 4000);

  int proverSeed = 0;
  for (auto strategy : {CheatingRhoProver::Strategy::kRandomPermutation,
                        CheatingRhoProver::Strategy::kTransposition}) {
    AcceptanceStats stats = estimateAcceptance(
        protocol, g,
        [&] {
          return std::make_unique<CheatingRhoProver>(protocol.family(), strategy,
                                                     9000 + proverSeed++);
        },
        400, rng);
    EXPECT_LT(stats.interval().low, 1.0 / 3.0);
    EXPECT_LT(stats.rate(), 0.1) << "strategy " << static_cast<int>(strategy);
  }
}

TEST(SymDmam, IdentityRhoAlwaysRejected) {
  // The rho_r != r check catches the identity deterministically.
  Rng rng(85);
  Graph g = graph::randomRigidConnected(7, rng);
  SymDmamProtocol protocol = makeProtocol(7, 5000);
  AcceptanceStats stats = estimateAcceptance(
      protocol, g,
      [&] {
        return std::make_unique<CheatingRhoProver>(
            protocol.family(), CheatingRhoProver::Strategy::kIdentity, 1);
      },
      50, rng);
  EXPECT_EQ(stats.accepts, 0u);
}

TEST(SymDmam, HashChainLiesCaughtDeterministically) {
  // Corrupting any subtree sum breaks a local chain equation at some node.
  Rng rng(86);
  Graph g = graph::randomSymmetricConnected(12, rng);
  SymDmamProtocol protocol = makeProtocol(12, 6000);
  int seed = 0;
  AcceptanceStats stats = estimateAcceptance(
      protocol, g, [&] { return std::make_unique<HashChainLiarProver>(protocol.family(), seed++); },
      60, rng);
  EXPECT_EQ(stats.accepts, 0u);
}

TEST(SymDmam, TamperedTreeRejected) {
  // White-box: break the spanning tree advice; the local tree check at the
  // tampered node must fail.
  Rng rng(87);
  Graph g = graph::cycleGraph(8);
  SymDmamProtocol protocol = makeProtocol(8, 7000);
  HonestSymDmamProver prover(protocol.family());

  SymDmamFirstMessage first = prover.firstMessage(g);
  first.dist[(first.rootPerNode[0] + 4) % 8] += 2;  // Corrupt a distance.
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < 8; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);
  bool anyReject = false;
  for (graph::Vertex v = 0; v < 8; ++v) {
    if (!protocol.nodeDecision(g, v, first, challenges[v], second)) anyReject = true;
  }
  EXPECT_TRUE(anyReject);
}

TEST(SymDmam, InconsistentBroadcastRejected) {
  // A prover "broadcasting" different roots to different nodes is caught by
  // neighbor comparison.
  Rng rng(88);
  Graph g = graph::cycleGraph(6);
  SymDmamProtocol protocol = makeProtocol(6, 8000);
  HonestSymDmamProver prover(protocol.family());

  SymDmamFirstMessage first = prover.firstMessage(g);
  first.rootPerNode.set(3, (first.rootPerNode[3] + 1) % 6);
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < 6; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);
  bool anyReject = false;
  for (graph::Vertex v = 0; v < 6; ++v) {
    if (!protocol.nodeDecision(g, v, first, challenges[v], second)) anyReject = true;
  }
  EXPECT_TRUE(anyReject);
}

TEST(SymDmam, WrongIndexEchoRejectedByRoot) {
  Rng rng(89);
  Graph g = graph::completeGraph(5);
  SymDmamProtocol protocol = makeProtocol(5, 9000);
  HonestSymDmamProver prover(protocol.family());

  SymDmamFirstMessage first = prover.firstMessage(g);
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < 5; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);
  // Echo a different index (consistently) — the root's i == i_r check fires.
  graph::Vertex root = first.rootPerNode[0];
  util::BigUInt wrong = util::addMod(challenges[root], util::BigUInt{1},
                                     protocol.family().prime());
  // Keep chains consistent with the wrong index so only the echo check fails.
  net::SpanningTreeAdvice tree{root, first.parent, first.dist};
  ChainValues chains = aggregateChains(g, protocol.family(), wrong, first.rho, tree);
  second.indexPerNode.assign(5, wrong);
  second.a = chains.a;
  second.b = chains.b;
  EXPECT_FALSE(protocol.nodeDecision(g, root, first, challenges[root], second));
}

TEST(SymDmam, TranscriptChargesAllRounds) {
  Rng rng(90);
  Graph g = graph::randomSymmetricConnected(16, rng);
  SymDmamProtocol protocol = makeProtocol(16, 10000);
  HonestSymDmamProver prover(protocol.family());
  RunResult result = protocol.run(g, prover, rng);
  ASSERT_TRUE(result.accepted);
  ASSERT_EQ(result.transcript.rounds().size(), 3u);
  for (const auto& round : result.transcript.rounds()) {
    EXPECT_GT(round.maxBitsThisRound, 0u) << round.label;
  }
  // Every node pays the same challenge cost; responses dominated by hashes.
  EXPECT_GT(result.transcript.maxPerNodeBits(), 0u);
}

TEST(SymDmam, CostModelMatchesMeasuredCost) {
  // The structural cost model and an actual execution must agree on the
  // per-node bit count (the model uses the upper end of the prime range,
  // so it can exceed the measured cost by at most a few bits per value).
  Rng rng(91);
  const std::size_t n = 12;
  Graph g = graph::randomSymmetricConnected(n, rng);
  SymDmamProtocol protocol = makeProtocol(n, 11000);
  HonestSymDmamProver prover(protocol.family());
  RunResult result = protocol.run(g, prover, rng);
  CostBreakdown model = SymDmamProtocol::costModel(n);
  EXPECT_LE(result.transcript.maxPerNodeBits(), model.totalPerNode());
  EXPECT_GE(result.transcript.maxPerNodeBits(), model.totalPerNode() / 2);
}

TEST(SymDmam, CostScalesLogarithmically) {
  // Theorem 1.1: O(log n) bits per node. Doubling n must increase the cost
  // by only an additive constant (a few bits), not multiplicatively.
  std::size_t prev = 0;
  for (std::size_t n : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    std::size_t cost = SymDmamProtocol::costModel(n).totalPerNode();
    if (prev != 0) {
      EXPECT_LE(cost, prev + 40) << "n=" << n;  // ~9 extra bits per doubling.
      EXPECT_GT(cost, prev);
    }
    prev = cost;
  }
  // Strongly sublinear: at n = 1024 the whole exchange is a few hundred bits.
  EXPECT_LT(SymDmamProtocol::costModel(1024).totalPerNode(), 500u);
}

}  // namespace
}  // namespace dip::core
