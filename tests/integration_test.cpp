// Integration tests: end-to-end flows that cross module boundaries the way
// the experiments and examples do.
#include <gtest/gtest.h>

#include <cmath>

#include <memory>

#include "core/dsym_dam.hpp"
#include "core/gni_amam.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "lb/census.hpp"
#include "lb/packing.hpp"
#include "pls/sym_lcp.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip {
namespace {

using util::Rng;

// The lower-bound family meets the upper-bound protocol: dumbbells G(F, F)
// are symmetric, so Protocol 1 proves them symmetric; dumbbells G(F, F')
// are rigid, so cheaters fail on them.
TEST(Integration, Protocol1OnLowerBoundDumbbells) {
  Rng rng(201);
  graph::Graph f1 = graph::randomRigidConnected(6, rng);
  graph::Graph f2 = graph::randomRigidConnected(6, rng);
  while (graph::areIsomorphic(f1, f2)) f2 = graph::randomRigidConnected(6, rng);

  graph::Graph same = graph::dumbbell(f1, f1);
  graph::Graph mixed = graph::dumbbell(f1, f2);
  const std::size_t n = same.numVertices();

  Rng setup(202);
  core::SymDmamProtocol protocol(hash::makeProtocol1Family(n, setup));
  core::HonestSymDmamProver honest(protocol.family());
  EXPECT_TRUE(protocol.run(same, honest, rng).accepted);

  int seed = 0;
  core::AcceptanceStats cheater = estimateAcceptance(
      protocol, mixed,
      [&] {
        return std::make_unique<core::CheatingRhoProver>(
            protocol.family(), core::CheatingRhoProver::Strategy::kRandomPermutation,
            seed++);
      },
      200, rng);
  EXPECT_LT(cheater.rate(), 0.05);
}

// The interactive protocol and the LCP baseline must AGREE on every
// instance (they decide the same language), while costing exponentially
// differently.
TEST(Integration, InteractiveAndLcpAgreeOnSym) {
  Rng rng(203);
  for (int trial = 0; trial < 6; ++trial) {
    bool makeSymmetric = trial % 2 == 0;
    graph::Graph g = makeSymmetric ? graph::randomSymmetricConnected(10, rng)
                                   : graph::randomRigidConnected(10, rng);
    // LCP verdict.
    auto advice = pls::SymLcp::honestAdvice(g);
    bool lcpAccepts =
        advice.has_value() &&
        pls::SymLcp::accepts(g, std::vector<pls::SymLcpAdvice>(10, *advice));
    // Interactive verdict (honest prover where possible).
    Rng setup(204 + trial);
    core::SymDmamProtocol protocol(hash::makeProtocol1Family(10, setup));
    bool interactiveAccepts = false;
    if (makeSymmetric) {
      core::HonestSymDmamProver prover(protocol.family());
      interactiveAccepts = protocol.run(g, prover, rng).accepted;
    }
    EXPECT_EQ(lcpAccepts, makeSymmetric);
    EXPECT_EQ(interactiveAccepts, makeSymmetric);
  }
}

// DSym instances are symmetric graphs, so they can ALSO be proven symmetric
// by the general Sym protocols (DSym's protocol is just cheaper).
TEST(Integration, DSymInstancesAreSymInstances) {
  Rng rng(205);
  graph::Graph f = graph::randomConnected(5, 3, rng);
  graph::Graph g = graph::dsymInstance(f, 1);
  const std::size_t n = g.numVertices();
  ASSERT_FALSE(graph::isRigid(g));

  Rng setup(206);
  core::SymDmamProtocol symProtocol(hash::makeProtocol1Family(n, setup));
  core::HonestSymDmamProver symProver(symProtocol.family());
  core::RunResult symRun = symProtocol.run(g, symProver, rng);
  EXPECT_TRUE(symRun.accepted);

  graph::DSymLayout layout = graph::dsymLayout(5, 1);
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{n}, 3);
  Rng setup2(207);
  core::DSymDamProtocol dsymProtocol(
      layout, hash::LinearHashFamily(
                  util::findPrimeInRange(util::BigUInt{10} * n3,
                                         util::BigUInt{100} * n3, setup2),
                  static_cast<std::uint64_t>(n) * n));
  core::HonestDSymProver dsymProver(layout, dsymProtocol.family());
  core::RunResult dsymRun = dsymProtocol.run(g, dsymProver, rng);
  EXPECT_TRUE(dsymRun.accepted);

  // Both succeed; DSym's specialized protocol is the cheaper one (it needs
  // no commitment round and no mapping broadcast).
  EXPECT_LE(dsymRun.transcript.maxPerNodeBits(), symRun.transcript.maxPerNodeBits());
}

// GNI ground truth chains through the graph engine: the GNI protocol's
// verdict agrees with isomorphism search on every generated instance.
TEST(Integration, GniVerdictMatchesGroundTruth) {
  Rng rng(208);
  Rng setup(209);
  core::GniParams params = core::GniParams::choose(6, setup);
  core::GniAmamProtocol protocol(params);

  for (int trial = 0; trial < 2; ++trial) {
    core::GniInstance yes = core::gniYesInstance(6, rng);
    core::GniInstance no = core::gniNoInstance(6, rng);
    ASSERT_FALSE(graph::areIsomorphic(yes.g0, yes.g1));
    ASSERT_TRUE(graph::areIsomorphic(no.g0, no.g1));
    // Per-round hit rates must be ordered correctly even on single
    // instances (ratio ~2 in expectation).
    auto yesHits = protocol.estimatePerRoundHit(yes, 80, rng);
    auto noHits = protocol.estimatePerRoundHit(no, 80, rng);
    EXPECT_GT(yesHits.rate() + 0.05, noHits.rate());
  }
}

// The census, the asymptotic family bound, and the packing curve must be
// mutually consistent where they overlap.
TEST(Integration, CensusAndPackingConsistent) {
  lb::CensusResult census6 = lb::exhaustiveCensus(6);
  // The exact |F(6)| = 8 is above the (loose, asymptotic) lower-bound
  // estimate only for larger n; sanity: both are finite and the packing
  // bound evaluated on the EXACT count is achievable.
  double exactLog2F = std::log2(static_cast<double>(census6.rigidClasses));
  EXPECT_GE(lb::lowerBoundBits(lb::log2FamilyLowerBound(64)), lb::lowerBoundBits(exactLog2F));
  // Packing capacity at L = 2 already covers |F(6)| (8 graphs): no
  // contradiction at tiny n — the bound only bites asymptotically.
  EXPECT_GT(lb::packingCapacityLog2(2), exactLog2F);
}

// Full pipeline determinism: identical seeds give identical transcripts and
// verdicts (the whole simulation is reproducible).
TEST(Integration, RunsAreDeterministic) {
  Rng setup(210);
  core::SymDmamProtocol protocol(hash::makeProtocol1Family(14, setup));
  Rng graphRng(211);
  graph::Graph g = graph::randomSymmetricConnected(14, graphRng);
  core::HonestSymDmamProver prover(protocol.family());

  Rng rng1(212), rng2(212);
  core::RunResult run1 = protocol.run(g, prover, rng1);
  core::RunResult run2 = protocol.run(g, prover, rng2);
  EXPECT_EQ(run1.accepted, run2.accepted);
  EXPECT_EQ(run1.transcript.maxPerNodeBits(), run2.transcript.maxPerNodeBits());
  EXPECT_EQ(run1.transcript.totalBits(), run2.transcript.totalBits());
}

// Cost-model cross-protocol sanity: on the same instance size, the paper's
// ordering dMAM < dAM < LCP holds for all n past the tiny regime.
TEST(Integration, CostOrderingAcrossProtocols) {
  for (std::size_t n : {32u, 64u, 256u, 1024u}) {
    std::size_t mam = core::SymDmamProtocol::costModel(n).totalPerNode();
    std::size_t am = core::SymDamProtocol::costModel(n).totalPerNode();
    std::size_t lcp = pls::SymLcp::adviceBitsPerNode(n);
    EXPECT_LT(mam, am) << n;
    EXPECT_LT(am, lcp) << n;
  }
}

}  // namespace
}  // namespace dip
