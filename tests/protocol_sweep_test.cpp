// Parameterized protocol sweeps: completeness of Protocol 1 across many
// structurally different symmetric families and sizes; soundness of the
// committed cheater across many rigid instances; DSym across radii.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "core/dsym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using util::Rng;

// ---- Protocol 1 completeness across families ----

struct FamilyCase {
  std::string name;
  graph::Graph (*make)(std::size_t);
  std::size_t size;
};

graph::Graph makeCycle(std::size_t n) { return graph::cycleGraph(n); }
graph::Graph makeComplete(std::size_t n) { return graph::completeGraph(n); }
graph::Graph makeStar(std::size_t n) { return graph::starGraph(n); }
graph::Graph makeGrid(std::size_t n) { return graph::gridGraph(n, n); }
graph::Graph makePrism(std::size_t n) {
  Rng rng(999 + n);
  return graph::randomSymmetricConnected(n, rng);
}
graph::Graph makeDoubleDumbbell(std::size_t n) {
  Rng rng(555 + n);
  graph::Graph f = graph::randomRigidConnected(n, rng);
  return graph::dumbbell(f, f);
}

// Without a printer gtest would list each parameter as a byte dump of the
// struct, which starts with a heap pointer, so test names would change from
// build to build.
void PrintTo(const FamilyCase& familyCase, std::ostream* os) { *os << familyCase.name; }

class Protocol1Completeness : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(Protocol1Completeness, HonestProverAlwaysAccepted) {
  const FamilyCase& familyCase = GetParam();
  graph::Graph g = familyCase.make(familyCase.size);
  ASSERT_FALSE(graph::isRigid(g)) << familyCase.name;
  ASSERT_TRUE(g.isConnected()) << familyCase.name;

  Rng setup(1000 + g.numVertices());
  SymDmamProtocol protocol(hash::makeProtocol1Family(g.numVertices(), setup));
  HonestSymDmamProver prover(protocol.family());
  Rng rng(2000 + g.numVertices());
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_TRUE(protocol.run(g, prover, rng).accepted) << familyCase.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, Protocol1Completeness,
    ::testing::Values(FamilyCase{"cycle24", makeCycle, 24},
                      FamilyCase{"cycle9", makeCycle, 9},
                      FamilyCase{"complete8", makeComplete, 8},
                      FamilyCase{"star12", makeStar, 12},
                      FamilyCase{"grid4x4", makeGrid, 4},
                      FamilyCase{"grid6x6", makeGrid, 6},
                      FamilyCase{"prism20", makePrism, 20},
                      FamilyCase{"prism40", makePrism, 40},
                      FamilyCase{"dumbbell6", makeDoubleDumbbell, 6},
                      FamilyCase{"dumbbell9", makeDoubleDumbbell, 9}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) { return info.param.name; });

// ---- Protocol 1 soundness across rigid instances ----

class Protocol1Soundness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Protocol1Soundness, CheaterBelowCollisionBudget) {
  const std::size_t n = GetParam();
  Rng rng(3000 + n);
  Rng setup(4000 + n);
  SymDmamProtocol protocol(hash::makeProtocol1Family(n, setup));
  graph::Graph g = graph::randomRigidConnected(n, rng);
  int seed = 0;
  AcceptanceStats stats = estimateAcceptance(
      protocol, g,
      [&] {
        return std::make_unique<CheatingRhoProver>(
            protocol.family(), CheatingRhoProver::Strategy::kRandomPermutation, seed++);
      },
      150, rng);
  // Collision budget is 1/(10n); with 150 trials, >= 10 accepts would be
  // astronomically unlikely.
  EXPECT_LE(stats.accepts, 10u) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Protocol1Soundness, ::testing::Values(6, 8, 12, 20, 28));

// ---- DSym across path radii and side structures ----

struct DSymCase {
  std::size_t side;
  std::size_t radius;
};

class DSymSweep : public ::testing::TestWithParam<DSymCase> {};

TEST_P(DSymSweep, YesAcceptedNoRejected) {
  const DSymCase& dsymCase = GetParam();
  Rng rng(5000 + dsymCase.side * 10 + dsymCase.radius);
  graph::DSymLayout layout = graph::dsymLayout(dsymCase.side, dsymCase.radius);

  Rng setup(6000 + dsymCase.side * 10 + dsymCase.radius);
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{layout.numVertices}, 3);
  DSymDamProtocol protocol(
      layout, hash::LinearHashFamily(
                  util::findPrimeInRange(util::BigUInt{10} * n3,
                                         util::BigUInt{100} * n3, setup),
                  static_cast<std::uint64_t>(layout.numVertices) * layout.numVertices));

  // YES instance.
  graph::Graph f = graph::randomConnected(dsymCase.side, dsymCase.side / 2, rng);
  graph::Graph yes = graph::dsymInstance(f, dsymCase.radius);
  HonestDSymProver prover(layout, protocol.family());
  EXPECT_TRUE(protocol.run(yes, prover, rng).accepted);

  // NO instance (mismatched sides), needs rigid sides to be guaranteed
  // non-symmetric under sigma.
  if (dsymCase.side >= 6) {
    graph::Graph fRigid = graph::randomRigidConnected(dsymCase.side, rng);
    graph::Graph fOther = graph::randomRigidConnected(dsymCase.side, rng);
    while (fOther == fRigid) fOther = graph::randomRigidConnected(dsymCase.side, rng);
    graph::Graph no = graph::dsymNoInstance(fRigid, fOther, dsymCase.radius);
    std::size_t accepts = 0;
    for (int trial = 0; trial < 40; ++trial) {
      if (protocol.run(no, prover, rng).accepted) ++accepts;
    }
    EXPECT_LE(accepts, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, DSymSweep,
                         ::testing::Values(DSymCase{4, 0}, DSymCase{4, 3}, DSymCase{6, 1},
                                           DSymCase{6, 4}, DSymCase{8, 2},
                                           DSymCase{10, 1}),
                         [](const ::testing::TestParamInfo<DSymCase>& info) {
                           return "side" + std::to_string(info.param.side) + "r" +
                                  std::to_string(info.param.radius);
                         });

}  // namespace
}  // namespace dip::core
