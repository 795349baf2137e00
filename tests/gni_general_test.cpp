// Tests for the automorphism-compensated general-input GNI protocol — the
// paper's fix (via Goldwasser-Sipser [15]) for symmetric graphs, where the
// basic counting |S| = 2n! vs n! breaks.
#include <gtest/gtest.h>

#include <cmath>

#include <memory>
#include <set>
#include <stdexcept>

#include "core/gni_general.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using util::Rng;

TEST(AllAutomorphisms, MatchesCountAndGroupAxioms) {
  Rng rng(171);
  for (const graph::Graph& g :
       {graph::cycleGraph(5), graph::pathGraph(4), graph::completeGraph(4),
        graph::randomSymmetricConnected(8, rng)}) {
    auto group = graph::allAutomorphisms(g);
    EXPECT_EQ(group.size(), graph::countAutomorphisms(g));
    // Identity present; closed under composition (spot-check); all genuine.
    std::set<graph::Permutation> set(group.begin(), group.end());
    EXPECT_TRUE(set.count(graph::identityPermutation(g.numVertices())));
    for (const auto& alpha : group) {
      EXPECT_TRUE(graph::isAutomorphism(g, alpha));
      EXPECT_TRUE(set.count(graph::inverse(alpha)));
    }
    if (group.size() >= 2) {
      EXPECT_TRUE(set.count(graph::compose(group[0], group[1])));
    }
  }
}

class GniGeneralTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(172);
    params_ = new GniGeneralParams(GniGeneralParams::choose(6, rng));
  }
  static void TearDownTestSuite() {
    delete params_;
    params_ = nullptr;
  }
  static GniGeneralParams* params_;
};
GniGeneralParams* GniGeneralTest::params_ = nullptr;

TEST_F(GniGeneralTest, ParameterDerivation) {
  EXPECT_EQ(params_->n, 6u);
  EXPECT_EQ(params_->ell, 12u);  // Same 2^ell in [4*720, 8*720) as basic GNI.
  EXPECT_GT(params_->perRoundYesLb, params_->perRoundNoUb * 1.3);
  EXPECT_GT(params_->repetitions, 0u);
  // The GS hash covers (2n x 2n) matrices.
  EXPECT_EQ(params_->gsHash.n(), 12u);
}

TEST_F(GniGeneralTest, ParametersRefuseSizesTheSearchCannotHold) {
  // The hash is over 2n x 2n matrices: n = 15 gives a 61-bit field, which
  // the lane walk takes, and n = 16 would need 67 bits (P > 2^63); choose
  // refuses it before any prime search.
  Rng rng(179);
  const GniGeneralParams largest = GniGeneralParams::choose(15, rng);
  EXPECT_EQ(largest.gsHash.fieldPrime().bitLength(), 61u);
  EXPECT_TRUE(laneWalkSupports(largest.gsHash, 15));
  EXPECT_EQ(hash::EpsApiHash::fieldBits(32, util::factorial(16).bitLength() + 2), 67u);
  EXPECT_THROW(GniGeneralParams::choose(16, rng), std::invalid_argument);
  EXPECT_THROW(GniGeneralParams::choose(40, rng), std::invalid_argument);
}

TEST_F(GniGeneralTest, PerRoundGapSurvivesSymmetricInputs) {
  // The whole point of the compensation: with a SYMMETRIC g0, the
  // candidate-count gap must still be ~2x. (The basic protocol's gap
  // collapses here: |{sigma(G_0)}| = n!/|Aut| on the symmetric side.)
  Rng rng(173);
  GniInstance yes = gniGeneralYesInstance(6, rng);
  GniInstance no = gniGeneralNoInstance(6, rng);
  ASSERT_FALSE(graph::isRigid(yes.g0));  // Genuinely symmetric instance.
  ASSERT_FALSE(graph::isRigid(no.g0));

  GniGeneralProtocol protocol(*params_);
  const std::size_t trials = 150;
  AcceptanceStats yesStats = protocol.estimatePerRoundHit(yes, trials, rng);
  AcceptanceStats noStats = protocol.estimatePerRoundHit(no, trials, rng);

  EXPECT_GT(yesStats.rate(), noStats.rate());
  EXPECT_GT(yesStats.interval().low, 0.17);
  EXPECT_LT(noStats.interval().high, 0.32);
}

TEST_F(GniGeneralTest, CompletenessOnSymmetricInputs) {
  Rng rng(174);
  GniInstance yes = gniGeneralYesInstance(6, rng);
  GniGeneralProtocol protocol(*params_);
  AcceptanceStats stats = protocol.estimateAcceptance(
      yes, [&] { return std::make_unique<HonestGniGeneralProver>(*params_); }, 8, rng);
  EXPECT_GT(stats.rate(), 2.0 / 3.0);
}

TEST_F(GniGeneralTest, SoundnessOnSymmetricInputs) {
  Rng rng(175);
  GniInstance no = gniGeneralNoInstance(6, rng);
  GniGeneralProtocol protocol(*params_);
  AcceptanceStats stats = protocol.estimateAcceptance(
      no, [&] { return std::make_unique<HonestGniGeneralProver>(*params_); }, 8, rng);
  EXPECT_LT(stats.rate(), 1.0 / 3.0);
}

TEST_F(GniGeneralTest, WorksOnRigidInputsToo) {
  // Rigid graphs have |Aut| = 1; the compensated protocol degenerates to
  // the basic one and must still work.
  Rng rng(176);
  GniInstance yes = gniYesInstance(6, rng);
  GniGeneralProtocol protocol(*params_);
  AcceptanceStats hit = protocol.estimatePerRoundHit(yes, 100, rng);
  EXPECT_GT(hit.interval().high, params_->perRoundYesLb * 0.8);
}

TEST_F(GniGeneralTest, HonestRunsVerifyAllChains) {
  Rng rng(177);
  GniInstance yes = gniGeneralYesInstance(6, rng);
  GniGeneralProtocol protocol(*params_);
  HonestGniGeneralProver prover(*params_);
  RunResult result = protocol.run(yes, prover, rng);
  ASSERT_EQ(result.transcript.rounds().size(), 4u);
  EXPECT_GT(result.transcript.maxPerNodeBits(), 0u);
}

TEST_F(GniGeneralTest, TamperedAlphaCaught) {
  // White-box: corrupt one node's alpha commitment after an honest first
  // message; either the alpha-permutation check, the automorphism check or
  // a chain equation must fail at some node.
  Rng rng(178);
  GniInstance yes = gniGeneralYesInstance(6, rng);
  GniGeneralProtocol protocol(*params_);
  HonestGniGeneralProver prover(*params_);

  std::vector<std::vector<GniChallenge>> challenges(6);
  for (graph::Vertex v = 0; v < 6; ++v) {
    for (std::size_t j = 0; j < params_->repetitions; ++j) {
      GniChallenge challenge;
      challenge.seed = params_->gsHash.randomSeed(rng);
      challenge.y = rng.nextBigBits(params_->ell);
      challenges[v].push_back(challenge);
    }
  }
  GniGenFirstMessage first = prover.firstMessage(yes, challenges);
  std::vector<util::BigUInt> checkChallenges;
  for (graph::Vertex v = 0; v < 6; ++v) {
    checkChallenges.push_back(params_->checkFamily.randomIndex(rng));
  }
  GniGenSecondMessage second =
      prover.secondMessage(yes, challenges, first, checkChallenges);

  // Find a claimed repetition and corrupt node 3's alpha value.
  for (std::size_t j = 0; j < params_->repetitions; ++j) {
    if (!first.perNode[0].claimed[j]) continue;
    first.perNode[3].a[j] = (first.perNode[3].a[j] + 1) % 6;
    break;
  }
  bool anyReject = false;
  for (graph::Vertex v = 0; v < 6; ++v) {
    if (!protocol.nodeDecision(yes, v, first, second, challenges[v],
                               checkChallenges[v])) {
      anyReject = true;
    }
  }
  EXPECT_TRUE(anyReject);
}

TEST_F(GniGeneralTest, CostStaysNLogNPerRepetition) {
  double minRatio = 1e18, maxRatio = 0.0;
  const std::size_t k = 64;
  for (std::size_t n : {8u, 32u, 128u, 512u}) {
    double cost =
        static_cast<double>(GniGeneralProtocol::costModel(n, k).totalPerNode());
    double ratio = cost / (static_cast<double>(k) * static_cast<double>(n) *
                           std::log2(static_cast<double>(n)));
    minRatio = std::min(minRatio, ratio);
    maxRatio = std::max(maxRatio, ratio);
  }
  EXPECT_LT(maxRatio / minRatio, 6.0);
}

// The honest prover with the alpha commitments of node 0's first G0
// neighbour replaced by an empty vector, which node 0 reads for b = 0: the verifiers must
// reject the message without reading past the vector's end.
class EmptiedNeighbourAlphaProver : public GniGeneralProver {
 public:
  explicit EmptiedNeighbourAlphaProver(const GniGeneralParams& params) : honest_(params) {}
  GniGenFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) override {
    GniGenFirstMessage first = honest_.firstMessage(instance, challenges);
    // closedNeighbors(0)[0] is node 0 itself.
    first.perNode[instance.g0.closedNeighbors(0)[1]].a = std::vector<graph::Vertex>();
    return first;
  }
  GniGenSecondMessage secondMessage(
      const GniInstance& instance, const std::vector<std::vector<GniChallenge>>& challenges,
      const GniGenFirstMessage& first,
      const std::vector<util::BigUInt>& checkChallenges) override {
    return honest_.secondMessage(instance, challenges, first, checkChallenges);
  }

 private:
  HonestGniGeneralProver honest_;
};

TEST_F(GniGeneralTest, MalformedNeighbourAlphaRejected) {
  Rng rng(179);
  GniInstance yes = gniGeneralYesInstance(6, rng);
  GniGeneralProtocol protocol(*params_);
  HonestGniGeneralProver honest(*params_);
  Rng honestRng(180);
  ASSERT_TRUE(protocol.run(yes, honest, honestRng).accepted);
  EmptiedNeighbourAlphaProver prover(*params_);
  Rng trialRng(180);
  EXPECT_FALSE(protocol.run(yes, prover, trialRng).accepted);
}

}  // namespace
}  // namespace dip::core
