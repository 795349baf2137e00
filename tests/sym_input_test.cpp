// Tests for the input-graph Symmetry protocol (extension): Protocol 1's
// machinery when the graph under test arrives as node inputs and its edges
// are not communication links.
#include <gtest/gtest.h>

#include <memory>

#include "core/sym_input.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "hash/linear_hash.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using util::Rng;

SymInputInstance makeInstance(std::size_t n, bool symmetricInput, Rng& rng) {
  SymInputInstance instance{graph::randomConnected(n, n / 2, rng),
                            symmetricInput ? graph::randomSymmetricConnected(n, rng)
                                           : graph::randomRigidConnected(n, rng)};
  return instance;
}

TEST(SymInput, CompletenessOnSymmetricInputs) {
  Rng rng(231);
  for (std::size_t n : {6u, 10u, 16u}) {
    Rng setup(300 + n);
    SymInputProtocol protocol(hash::makeProtocol1Family(n, setup));
    SymInputInstance instance = makeInstance(n, /*symmetricInput=*/true, rng);
    HonestSymInputProver prover(protocol.family());
    for (int trial = 0; trial < 10; ++trial) {
      EXPECT_TRUE(protocol.run(instance, prover, rng).accepted) << "n=" << n;
    }
  }
}

TEST(SymInput, InputMayBeDisconnected) {
  // The input graph never carries messages, so it may even be disconnected.
  Rng rng(232);
  const std::size_t n = 8;
  Rng setup(233);
  SymInputProtocol protocol(hash::makeProtocol1Family(n, setup));
  graph::Graph input(n);  // Two disjoint squares: plainly symmetric.
  for (graph::Vertex v = 0; v < 4; ++v) {
    input.addEdge(v, (v + 1) % 4);
    input.addEdge(4 + v, 4 + (v + 1) % 4);
  }
  SymInputInstance instance{graph::randomConnected(n, 4, rng), input};
  HonestSymInputProver prover(protocol.family());
  EXPECT_TRUE(protocol.run(instance, prover, rng).accepted);
}

TEST(SymInput, HonestProverRefusesRigidInput) {
  Rng rng(234);
  Rng setup(235);
  SymInputProtocol protocol(hash::makeProtocol1Family(8, setup));
  SymInputInstance instance = makeInstance(8, /*symmetricInput=*/false, rng);
  HonestSymInputProver prover(protocol.family());
  EXPECT_THROW(protocol.run(instance, prover, rng), std::invalid_argument);
}

TEST(SymInput, SoundAgainstFakeRho) {
  Rng rng(236);
  const std::size_t n = 8;
  Rng setup(237);
  SymInputProtocol protocol(hash::makeProtocol1Family(n, setup));
  SymInputInstance instance = makeInstance(n, /*symmetricInput=*/false, rng);

  int seed = 0;
  AcceptanceStats stats = estimateAcceptance(
      protocol, instance,
      [&] {
        return std::make_unique<CheatingSymInputProver>(
            protocol.family(), CheatingSymInputProver::Strategy::kFakeRhoHonestClaims,
            seed++);
      },
      300, rng);
  EXPECT_LT(stats.rate(), 0.05);
}

TEST(SymInput, ClaimLiarCaughtByConsistencyCheck) {
  // The liar commits a fake rho but borrows a REAL automorphism's images
  // for the claims; without the consistency check the fingerprints could
  // be massaged — with it, rejection.
  Rng rng(238);
  const std::size_t n = 10;
  Rng setup(239);
  SymInputProtocol protocol(hash::makeProtocol1Family(n, setup));
  SymInputInstance instance = makeInstance(n, /*symmetricInput=*/true, rng);

  int seed = 0;
  AcceptanceStats stats = estimateAcceptance(
      protocol, instance,
      [&] {
        return std::make_unique<CheatingSymInputProver>(
            protocol.family(), CheatingSymInputProver::Strategy::kClaimLiar, seed++);
      },
      200, rng);
  EXPECT_LT(stats.rate(), 0.05);
}

TEST(SymInput, TamperedClaimDetectedLocally) {
  Rng rng(240);
  const std::size_t n = 8;
  Rng setup(241);
  SymInputProtocol protocol(hash::makeProtocol1Family(n, setup));
  SymInputInstance instance = makeInstance(n, /*symmetricInput=*/true, rng);
  HonestSymInputProver prover(protocol.family());

  SymInputFirstMessage first = prover.firstMessage(instance);
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < n; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  SymInputSecondMessage second = prover.secondMessage(instance, first, challenges);

  // Corrupt one non-self claim of node 2 (if it has any input neighbor).
  auto closedH = instance.input.closedNeighbors(2);
  for (std::size_t i = 0; i < closedH.size(); ++i) {
    if (closedH[i] != 2) {
      first.claims[2][i] = (first.claims[2][i] + 1) % static_cast<graph::Vertex>(n);
      break;
    }
  }
  bool anyReject = false;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!protocol.nodeDecision(instance, v, first, challenges[v], second)) {
      anyReject = true;
    }
  }
  EXPECT_TRUE(anyReject);
}

TEST(SymInput, CostBoundedByDegreeTimesLog) {
  // For bounded input degree the cost matches Protocol 1's O(log n); the
  // claims add (Delta + 1) ids.
  std::size_t prev = 0;
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    std::size_t cost = SymInputProtocol::costModel(n, 4).totalPerNode();
    if (prev) {
      EXPECT_LE(cost, prev + 80);
    }
    prev = cost;
  }
  // Even with linear degree it stays below the quadratic LCP.
  EXPECT_LT(SymInputProtocol::costModel(1024, 1023).totalPerNode(), 1024u * 1024u / 50);
}

TEST(SymInput, MeasuredCostMatchesModel) {
  Rng rng(242);
  const std::size_t n = 12;
  Rng setup(243);
  SymInputProtocol protocol(hash::makeProtocol1Family(n, setup));
  SymInputInstance instance = makeInstance(n, /*symmetricInput=*/true, rng);
  HonestSymInputProver prover(protocol.family());
  RunResult result = protocol.run(instance, prover, rng);
  ASSERT_TRUE(result.accepted);

  std::size_t maxDegree = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    maxDegree = std::max(maxDegree, instance.input.degree(v));
  }
  CostBreakdown model = SymInputProtocol::costModel(n, maxDegree);
  EXPECT_LE(result.transcript.maxPerNodeBits(), model.totalPerNode());
  EXPECT_GE(result.transcript.maxPerNodeBits(), model.totalPerNode() / 3);
}

}  // namespace
}  // namespace dip::core
