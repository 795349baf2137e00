// Tests for the simulation substrate: transcripts, spanning-tree advice,
// broadcast consistency (the Sym frame's neighbour-agreement check).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sym_frame.hpp"
#include "graph/generators.hpp"
#include "net/spanning.hpp"
#include "net/transcript.hpp"
#include "util/rng.hpp"

namespace dip::net {
namespace {

TEST(Transcript, ChargesAccumulate) {
  Transcript transcript(3);
  transcript.beginRound("r1");
  transcript.chargeToProver(0, 10);
  transcript.chargeFromProver(0, 5);
  transcript.chargeFromProver(2, 7);
  EXPECT_EQ(transcript.perNode()[0].bitsToProver, 10u);
  EXPECT_EQ(transcript.perNode()[0].bitsFromProver, 5u);
  EXPECT_EQ(transcript.perNode()[1].total(), 0u);
  EXPECT_EQ(transcript.maxPerNodeBits(), 15u);
  EXPECT_EQ(transcript.totalBits(), 22u);
}

TEST(Transcript, BroadcastChargesEveryNode) {
  Transcript transcript(4);
  transcript.chargeBroadcastFromProver(9);
  for (const auto& cost : transcript.perNode()) {
    EXPECT_EQ(cost.bitsFromProver, 9u);
  }
  EXPECT_EQ(transcript.totalBits(), 36u);
}

TEST(Transcript, RoundSummariesTrackMax) {
  Transcript transcript(2);
  transcript.beginRound("first");
  transcript.chargeToProver(0, 3);
  transcript.chargeToProver(1, 8);
  transcript.beginRound("second");
  transcript.chargeFromProver(0, 2);
  ASSERT_EQ(transcript.rounds().size(), 2u);
  EXPECT_EQ(transcript.rounds()[0].label, "first");
  EXPECT_EQ(transcript.rounds()[0].maxBitsThisRound, 8u);
  EXPECT_EQ(transcript.rounds()[1].maxBitsThisRound, 2u);
}

TEST(Transcript, OutOfRangeVertexThrows) {
  Transcript transcript(2);
  EXPECT_THROW(transcript.chargeToProver(2, 1), std::out_of_range);
}

// A one-field message for the Sym frame's neighbour-agreement check.
struct OneBroadcast {
  core::Broadcast<int> value;
  static constexpr auto fields() {
    return std::tuple{core::SymField{&OneBroadcast::value, core::SymWidth::kId}};
  }
};

TEST(BroadcastConsistent, DetectsLocalDisagreement) {
  graph::Graph path = graph::pathGraph(4);
  const auto decisions = [&](std::vector<int> perNode) {
    const OneBroadcast message{core::Broadcast<int>::fromPerNode(std::move(perNode))};
    std::vector<bool> ok;
    for (graph::Vertex v = 0; v < 4; ++v) ok.push_back(core::neighboursAgree(path, v, message));
    return ok;
  };
  EXPECT_EQ(decisions({5, 5, 5, 5}), (std::vector<bool>{true, true, true, true}));

  // The disagreement edge 1-2 makes both endpoints reject.
  EXPECT_EQ(decisions({5, 5, 6, 6}), (std::vector<bool>{true, false, false, true}));
}

TEST(SpanningTree, BfsTreeIsValidEverywhere) {
  util::Rng rng(51);
  graph::Graph g = graph::randomConnected(20, 15, rng);
  SpanningTreeAdvice advice = buildBfsTree(g, 7);
  EXPECT_EQ(advice.root, 7u);
  EXPECT_EQ(advice.dist[7], 0u);
  for (graph::Vertex v = 0; v < g.numVertices(); ++v) {
    EXPECT_TRUE(verifyTreeLocally(g, advice, v)) << "node " << v;
  }
}

TEST(SpanningTree, DisconnectedGraphThrows) {
  graph::Graph g(4);
  g.addEdge(0, 1);
  EXPECT_THROW(buildBfsTree(g, 0), std::invalid_argument);
}

TEST(SpanningTree, LocalCheckCatchesBadParent) {
  graph::Graph g = graph::pathGraph(4);
  SpanningTreeAdvice advice = buildBfsTree(g, 0);
  advice.parent[3] = 1;  // Not a neighbor of 3.
  EXPECT_FALSE(verifyTreeLocally(g, advice, 3));
}

TEST(SpanningTree, LocalCheckCatchesBadDistance) {
  graph::Graph g = graph::pathGraph(4);
  SpanningTreeAdvice advice = buildBfsTree(g, 0);
  advice.dist[2] = 5;  // Parent's distance is 1, not 4.
  EXPECT_FALSE(verifyTreeLocally(g, advice, 2));
  // And node 3's check also breaks (its parent 2 now has wrong distance).
  EXPECT_FALSE(verifyTreeLocally(g, advice, 3));
}

TEST(SpanningTree, LocalCheckCatchesBadRootDistance) {
  graph::Graph g = graph::pathGraph(3);
  SpanningTreeAdvice advice = buildBfsTree(g, 1);
  advice.dist[1] = 2;
  EXPECT_FALSE(verifyTreeLocally(g, advice, 1));
}

TEST(SpanningTree, ChildrenComputedFromClaims) {
  graph::Graph star = graph::starGraph(5);
  SpanningTreeAdvice advice = buildBfsTree(star, 0);
  auto children = childrenOf(star, advice, 0);
  EXPECT_EQ(children.size(), 4u);
  EXPECT_TRUE(childrenOf(star, advice, 1).empty());
}

TEST(SpanningTree, RootNeverCountedAsChild) {
  // Even if a cheating prover points the root's parent entry at a
  // neighbor, the root must not appear in any children set (its parent
  // entry is meaningless — Lemma 3.3 builds the tree from non-root edges).
  graph::Graph path = graph::pathGraph(3);
  SpanningTreeAdvice advice = buildBfsTree(path, 0);
  advice.parent[0] = 1;  // Adversarial: root claims parent 1.
  auto children = childrenOf(path, advice, 1);
  EXPECT_TRUE(std::find(children.begin(), children.end(), 0u) == children.end());
}

TEST(SpanningTree, BottomUpOrderLeavesFirst) {
  graph::Graph path = graph::pathGraph(5);
  SpanningTreeAdvice advice = buildBfsTree(path, 0);
  auto order = bottomUpOrder(advice);
  // Distances decrease along the order.
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_GE(advice.dist[order[i]], advice.dist[order[i + 1]]);
  }
  EXPECT_EQ(order.back(), 0u);
}

}  // namespace
}  // namespace dip::net
