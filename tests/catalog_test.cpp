// Known-answer tests for the classic-graph catalog: automorphism group
// ORDERS of famous graphs are textbook facts, making these the strongest
// ground-truth checks the automorphism engine gets — and showpiece inputs
// for the protocols.
#include <gtest/gtest.h>

#include <memory>

#include "core/sym_dmam.hpp"
#include "graph/catalog.hpp"
#include "graph/isomorphism.hpp"
#include "hash/linear_hash.hpp"
#include "util/rng.hpp"

namespace dip::graph {
namespace {

TEST(Catalog, PetersenBasicFacts) {
  Graph petersen = petersenGraph();
  EXPECT_EQ(petersen.numVertices(), 10u);
  EXPECT_EQ(petersen.numEdges(), 15u);
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(petersen.degree(v), 3u);
  EXPECT_TRUE(petersen.isConnected());
}

TEST(Catalog, PetersenAutomorphismGroupOrder) {
  // |Aut(Petersen)| = 120 = S_5 (a classical fact).
  EXPECT_EQ(countAutomorphisms(petersenGraph()), 120u);
}

TEST(Catalog, FruchtIsTheClassicRigidCubicGraph) {
  Graph frucht = fruchtGraph();
  EXPECT_EQ(frucht.numVertices(), 12u);
  EXPECT_EQ(frucht.numEdges(), 18u);
  for (Vertex v = 0; v < 12; ++v) EXPECT_EQ(frucht.degree(v), 3u);
  EXPECT_TRUE(frucht.isConnected());
  EXPECT_TRUE(isRigid(frucht));  // Trivial automorphism group.
}

TEST(Catalog, HeawoodAutomorphismGroupOrder) {
  Graph heawood = heawoodGraph();
  EXPECT_EQ(heawood.numVertices(), 14u);
  EXPECT_EQ(heawood.numEdges(), 21u);
  // |Aut(Heawood)| = 336 = PGL(2,7).
  EXPECT_EQ(countAutomorphisms(heawood), 336u);
}

TEST(Catalog, CompleteBipartiteGroups) {
  // |Aut(K_{a,b})| = a! b! for a != b; 2 (a!)^2 for a = b.
  EXPECT_EQ(countAutomorphisms(completeBipartite(2, 3)), 2u * 6u);
  EXPECT_EQ(countAutomorphisms(completeBipartite(3, 3)), 2u * 36u);
  EXPECT_EQ(completeBipartite(3, 4).numEdges(), 12u);
}

TEST(Catalog, HypercubeGroups) {
  // |Aut(Q_d)| = 2^d d!.
  EXPECT_EQ(countAutomorphisms(hypercubeGraph(2)), 8u);    // Q2 = C4: 2^2 * 2.
  EXPECT_EQ(countAutomorphisms(hypercubeGraph(3)), 48u);   // 2^3 * 6.
  Graph q4 = hypercubeGraph(4);
  EXPECT_EQ(q4.numVertices(), 16u);
  EXPECT_EQ(q4.numEdges(), 32u);
  EXPECT_TRUE(q4.isConnected());
}

TEST(Catalog, LcfNotationRejectsBadInput) {
  EXPECT_THROW(fromLcfNotation(2, {1}), std::invalid_argument);
  EXPECT_THROW(fromLcfNotation(10, {}), std::invalid_argument);
}

TEST(Catalog, Protocol1ProvesPetersenSymmetric) {
  // End to end on a famous instance: Protocol 1 proves the Petersen graph
  // symmetric with ~60 bits per node.
  util::Rng rng(331);
  Graph petersen = petersenGraph();
  core::SymDmamProtocol protocol(hash::makeProtocol1Family(10, rng));
  core::HonestSymDmamProver prover(protocol.family());
  core::RunResult result = protocol.run(petersen, prover, rng);
  EXPECT_TRUE(result.accepted);
  EXPECT_LT(result.transcript.maxPerNodeBits(), 120u);
}

TEST(Catalog, CheatersFailOnFrucht) {
  // The Frucht graph has NO non-trivial automorphism: every committed rho
  // is a lie, and the fingerprints catch it.
  util::Rng rng(332);
  Graph frucht = fruchtGraph();
  core::SymDmamProtocol protocol(hash::makeProtocol1Family(12, rng));
  int seed = 0;
  core::AcceptanceStats stats = estimateAcceptance(
      protocol, frucht,
      [&] {
        return std::make_unique<core::CheatingRhoProver>(
            protocol.family(), core::CheatingRhoProver::Strategy::kRandomPermutation,
            seed++);
      },
      200, rng);
  EXPECT_LT(stats.rate(), 0.05);
}

}  // namespace
}  // namespace dip::graph
