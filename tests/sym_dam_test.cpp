// Tests for Protocol 2 — the O(n log n) dAM protocol for Sym (Theorem 1.3)
// — and the adaptive-adversary ablation that justifies its huge hash field.
#include <gtest/gtest.h>

#include <cmath>

#include <memory>

#include "core/sym_dam.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using graph::Graph;
using util::Rng;

TEST(SymDam, CompletenessOnSymmetricGraphs) {
  Rng rng(101);
  for (std::size_t n : {6u, 8u, 12u}) {
    Rng setupRng(200 + n);
    SymDamProtocol protocol(hash::makeProtocol2Family(n, setupRng));
    Graph g = graph::randomSymmetricConnected(n, rng);
    HonestSymDamProver prover(protocol.family());
    for (int trial = 0; trial < 5; ++trial) {
      EXPECT_TRUE(protocol.run(g, prover, rng).accepted) << "n=" << n;
    }
  }
}

TEST(SymDam, SoundnessWithPaperParameters) {
  // With p in [10 n^(n+2), 100 n^(n+2)], even an adversary that sees the
  // seed first and searches thousands of mappings finds no collision: the
  // union bound over all n^n mappings leaves < 1/3 total failure mass.
  Rng rng(102);
  const std::size_t n = 7;
  Rng setupRng(103);
  SymDamProtocol protocol(hash::makeProtocol2Family(n, setupRng));
  Graph g = graph::randomRigidConnected(n, rng);

  int seed = 0;
  AcceptanceStats stats = estimateAcceptance(
      protocol, g,
      [&] {
        return std::make_unique<AdaptiveCollisionProver>(protocol.family(), 2000, seed++);
      },
      40, rng);
  EXPECT_EQ(stats.accepts, 0u);
}

TEST(SymDam, AblationShortHashBreaksSoundness) {
  // E8's core finding: run the SAME dAM protocol with Protocol 1's short
  // hash (p ~ n^3). Now the adaptive adversary finds a colliding mapping
  // for most seeds and the verifiers accept a NON-symmetric graph — this
  // is exactly why dAM needs the n log n-bit seed (or dMAM's commit round).
  Rng rng(104);
  const std::size_t n = 6;
  Rng setupRng(105);
  SymDamProtocol shortHashProtocol(hash::makeProtocol1Family(n, setupRng));
  Graph g = graph::randomRigidConnected(n, rng);

  int seed = 0;
  AcceptanceStats stats = estimateAcceptance(
      shortHashProtocol, g,
      [&] {
        return std::make_unique<AdaptiveCollisionProver>(shortHashProtocol.family(),
                                                         60000, seed++);
      },
      30, rng);
  // The adversary should fool the verifiers most of the time.
  EXPECT_GT(stats.rate(), 0.5);
}

TEST(SymDam, CommittedCheaterStillFailsWithShortHash) {
  // Control for the ablation: the SHORT hash is fine against an adversary
  // that cannot adapt to the seed (that is Protocol 1's whole point).
  // Simulate commitment by giving the adaptive prover a search budget of 1.
  Rng rng(106);
  const std::size_t n = 6;
  Rng setupRng(107);
  SymDamProtocol protocol(hash::makeProtocol1Family(n, setupRng));
  Graph g = graph::randomRigidConnected(n, rng);
  int seed = 0;
  AcceptanceStats stats = estimateAcceptance(
      protocol, g,
      [&] {
        return std::make_unique<AdaptiveCollisionProver>(protocol.family(), 1, seed++);
      },
      300, rng);
  EXPECT_LT(stats.rate(), 1.0 / 3.0);
}

TEST(SymDam, FingerprintIdentityForAutomorphism) {
  // mappedMatrixFingerprint(sigma) == mappedMatrixFingerprint(id) iff sigma
  // is an automorphism (Lemma 3.1), for every seed.
  Rng rng(108);
  const std::size_t n = 8;
  Rng setupRng(109);
  SymDamProtocol protocol(hash::makeProtocol2Family(n, setupRng));
  Graph g = graph::randomSymmetricConnected(n, rng);
  auto rho = graph::findNontrivialAutomorphism(g);
  ASSERT_TRUE(rho.has_value());

  for (int i = 0; i < 5; ++i) {
    util::BigUInt index = protocol.family().randomIndex(rng);
    util::BigUInt idFp = mappedMatrixFingerprint(g, protocol.family(), index,
                                                 graph::identityPermutation(n));
    EXPECT_EQ(mappedMatrixFingerprint(g, protocol.family(), index, *rho), idFp);
    // A non-automorphism permutation should differ (w.h.p. over the index).
    graph::Permutation bad = graph::randomPermutation(n, rng);
    if (!graph::isAutomorphism(g, bad)) {
      EXPECT_NE(mappedMatrixFingerprint(g, protocol.family(), index, bad), idFp);
    }
  }
}

TEST(SymDam, NonPermutationMappingsChangeFingerprint) {
  // Lemma 3.1's other half: a non-permutation always differs from the
  // identity fingerprint (some row of the mapped sum is zero).
  Rng rng(110);
  const std::size_t n = 6;
  Rng setupRng(111);
  SymDamProtocol protocol(hash::makeProtocol2Family(n, setupRng));
  Graph g = graph::randomRigidConnected(n, rng);
  util::BigUInt index = protocol.family().randomIndex(rng);
  util::BigUInt idFp = mappedMatrixFingerprint(g, protocol.family(), index,
                                               graph::identityPermutation(n));
  std::vector<graph::Vertex> collapse(n, 0);  // Everything maps to vertex 0.
  EXPECT_NE(mappedMatrixFingerprint(g, protocol.family(), index, collapse), idFp);
}

TEST(SymDam, CostModelMatchesMeasuredCost) {
  Rng rng(112);
  const std::size_t n = 10;
  Rng setupRng(113);
  SymDamProtocol protocol(hash::makeProtocol2Family(n, setupRng));
  Graph g = graph::randomSymmetricConnected(n, rng);
  HonestSymDamProver prover(protocol.family());
  RunResult result = protocol.run(g, prover, rng);
  CostBreakdown model = SymDamProtocol::costModel(n);
  EXPECT_LE(result.transcript.maxPerNodeBits(), model.totalPerNode());
  EXPECT_GE(result.transcript.maxPerNodeBits(), model.totalPerNode() / 2);
}

TEST(SymDam, CostScalesAsNLogN) {
  // Theorem 1.3: Theta(n log n) bits per node. The ratio cost/(n log2 n)
  // must stay within constant factors across a wide sweep.
  double minRatio = 1e18;
  double maxRatio = 0.0;
  for (std::size_t n : {8u, 16u, 32u, 64u, 128u, 256u}) {
    double cost = static_cast<double>(SymDamProtocol::costModel(n).totalPerNode());
    double ratio = cost / (static_cast<double>(n) * std::log2(static_cast<double>(n)));
    minRatio = std::min(minRatio, ratio);
    maxRatio = std::max(maxRatio, ratio);
  }
  EXPECT_LT(maxRatio / minRatio, 4.0);
}

TEST(SymDam, ExponentiallyCheaperThanQuadraticAtScale) {
  // Against the Omega(n^2) LCP baseline, n log n wins from moderate n on.
  for (std::size_t n : {64u, 256u, 1024u}) {
    std::size_t cost = SymDamProtocol::costModel(n).totalPerNode();
    EXPECT_LT(cost, n * n) << "n=" << n;
  }
}

}  // namespace
}  // namespace dip::core
