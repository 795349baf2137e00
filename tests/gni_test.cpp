// Tests for the distributed Goldwasser-Sipser dAMAM protocol for Graph
// Non-Isomorphism (Section 4, Theorem 1.5).
#include <gtest/gtest.h>

#include <cmath>

#include <memory>
#include <stdexcept>

#include "core/gni_amam.hpp"
#include "core/gni_search.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "pls/gni_fullinfo.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using util::Rng;

// Shared fixture: parameter choice involves prime searches, so do it once.
class GniTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(151);
    params_ = new GniParams(GniParams::choose(6, rng));
  }
  static void TearDownTestSuite() {
    delete params_;
    params_ = nullptr;
  }
  static GniParams* params_;
};
GniParams* GniTest::params_ = nullptr;

TEST_F(GniTest, ParameterDerivation) {
  const GniParams& params = *params_;
  EXPECT_EQ(params.n, 6u);
  // 2^ell in [4 * 720, 8 * 720).
  EXPECT_EQ(params.ell, 12u);
  EXPECT_GT(params.perRoundYesLb, params.perRoundNoUb * 1.3);
  EXPECT_GT(params.repetitions, 0u);
  EXPECT_GT(params.threshold, 0u);
  EXPECT_LT(params.threshold, params.repetitions);
  // The amplification must certify the 2/3 vs 1/3 gap by construction.
  EXPECT_GT(util::binomialTailGE(params.repetitions, params.perRoundYesLb,
                                 params.threshold),
            2.0 / 3.0);
  EXPECT_LT(util::binomialTailGE(params.repetitions, params.perRoundNoUb,
                                 params.threshold),
            1.0 / 3.0);
}

TEST_F(GniTest, ParametersRefuseSizesTheSearchCannotHold) {
  // n = 15: a 59-bit field, which the lane walk takes. n = 16 would need 65
  // bits (P > 2^63); choose refuses it before any prime search.
  Rng rng(159);
  const GniParams largest = GniParams::choose(15, rng);
  EXPECT_EQ(largest.gsHash.fieldPrime().bitLength(), 59u);
  EXPECT_TRUE(laneWalkSupports(largest.gsHash, 15));
  EXPECT_EQ(hash::EpsApiHash::fieldBits(16, util::factorial(16).bitLength() + 2), 65u);
  EXPECT_THROW(GniParams::choose(16, rng), std::invalid_argument);
  EXPECT_THROW(GniParams::choose(40, rng), std::invalid_argument);
}

TEST_F(GniTest, InstanceGenerators) {
  Rng rng(152);
  GniInstance yes = gniYesInstance(6, rng);
  EXPECT_TRUE(graph::isRigid(yes.g0));
  EXPECT_TRUE(graph::isRigid(yes.g1));
  EXPECT_FALSE(graph::areIsomorphic(yes.g0, yes.g1));
  GniInstance no = gniNoInstance(6, rng);
  EXPECT_TRUE(graph::areIsomorphic(no.g0, no.g1));
}

TEST_F(GniTest, PerRoundGapMatchesTheory) {
  // The heart of Goldwasser-Sipser: the preimage-existence probability is
  // ~2q for non-isomorphic pairs and ~q for isomorphic ones. This is the
  // per-repetition experiment E5 reports.
  Rng rng(153);
  GniInstance yes = gniYesInstance(6, rng);
  GniInstance no = gniNoInstance(6, rng);
  GniAmamProtocol protocol(*params_);

  const std::size_t trials = 220;
  AcceptanceStats yesStats = protocol.estimatePerRoundHit(yes, trials, rng);
  AcceptanceStats noStats = protocol.estimatePerRoundHit(no, trials, rng);

  // Theory: yes >= perRoundYesLb (~0.29), no <= q (~0.18).
  EXPECT_GT(yesStats.interval().high, params_->perRoundYesLb);
  EXPECT_LT(noStats.interval().low, params_->perRoundNoUb + 0.02);
  // The measured gap itself.
  EXPECT_GT(yesStats.rate(), noStats.rate());
  EXPECT_GT(yesStats.interval().low, 0.2);
  EXPECT_LT(noStats.interval().high, 0.3);
}

TEST_F(GniTest, CompletenessOfFullProtocol) {
  // Non-isomorphic instance + honest prover: accept w.p. > 2/3. Each full
  // run enumerates 2 n! candidates per repetition, so keep trials modest.
  Rng rng(154);
  GniInstance yes = gniYesInstance(6, rng);
  GniAmamProtocol protocol(*params_);
  AcceptanceStats stats = protocol.estimateAcceptance(
      yes, [&] { return std::make_unique<HonestGniProver>(*params_); }, 12, rng);
  EXPECT_GT(stats.rate(), 2.0 / 3.0);
}

TEST_F(GniTest, SoundnessOfFullProtocol) {
  // Isomorphic instance: even the optimal prover (the honest searcher —
  // every other message is forced) falls below the threshold w.p. > 2/3.
  Rng rng(155);
  GniInstance no = gniNoInstance(6, rng);
  GniAmamProtocol protocol(*params_);
  AcceptanceStats stats = protocol.estimateAcceptance(
      no, [&] { return std::make_unique<HonestGniProver>(*params_); }, 12, rng);
  EXPECT_LT(stats.rate(), 1.0 / 3.0);
}

TEST_F(GniTest, NonPermutationMappingsCaught) {
  // The permutation check (the reason for the second Arthur round): a
  // prover committing to non-injective mappings is rejected.
  Rng rng(156);
  GniInstance no = gniNoInstance(6, rng);
  GniAmamProtocol protocol(*params_);
  int seed = 0;
  AcceptanceStats stats = protocol.estimateAcceptance(
      no,
      [&] { return std::make_unique<NonPermutationGniProver>(*params_, seed++); },
      10, rng);
  EXPECT_EQ(stats.accepts, 0u);
}

TEST_F(GniTest, HonestRunVerifiesAllChainsAndCharges) {
  Rng rng(157);
  GniInstance yes = gniYesInstance(6, rng);
  GniAmamProtocol protocol(*params_);
  HonestGniProver prover(*params_);
  RunResult result = protocol.run(yes, prover, rng);
  ASSERT_EQ(result.transcript.rounds().size(), 4u);  // A1, M1, A2, M2.
  for (const auto& round : result.transcript.rounds()) {
    EXPECT_GT(round.maxBitsThisRound, 0u) << round.label;
  }
}

TEST_F(GniTest, CostModelScalesAsNLogNPerRepetition) {
  // Theorem 1.5: O(n log n) per node (k is a constant). Check the ratio
  // cost / (k * n log2 n) stays within constant factors.
  double minRatio = 1e18, maxRatio = 0.0;
  const std::size_t k = 64;
  for (std::size_t n : {8u, 16u, 32u, 64u, 128u, 256u}) {
    double cost = static_cast<double>(GniAmamProtocol::costModel(n, k).totalPerNode());
    double ratio = cost / (static_cast<double>(k) * static_cast<double>(n) *
                           std::log2(static_cast<double>(n)));
    minRatio = std::min(minRatio, ratio);
    maxRatio = std::max(maxRatio, ratio);
  }
  EXPECT_LT(maxRatio / minRatio, 6.0);
}

TEST_F(GniTest, InteractiveBeatsFullInformationAtScale) {
  // The separation against the non-interactive Theta(n^2) baseline: with
  // constant repetitions, n log n eventually wins.
  const std::size_t k = 64;
  bool crossed = false;
  for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
    std::size_t interactive = GniAmamProtocol::costModel(n, k).totalPerNode();
    std::size_t baseline = pls::GniFullInfo::adviceBitsPerNode(n);
    if (interactive < baseline) crossed = true;
  }
  EXPECT_TRUE(crossed);
  EXPECT_LT(GniAmamProtocol::costModel(4096, k).totalPerNode(),
            pls::GniFullInfo::adviceBitsPerNode(4096));
}

TEST_F(GniTest, SearchPreimageRespectsHashSemantics) {
  // White-box: when the honest prover claims a repetition, re-hashing its
  // committed (sigma, b) must reproduce the target y.
  Rng rng(158);
  GniInstance yes = gniYesInstance(6, rng);
  GniAmamProtocol protocol(*params_);

  // One full interaction, then re-verify the first claimed repetition.
  std::vector<std::vector<GniChallenge>> challenges(6);
  for (graph::Vertex v = 0; v < 6; ++v) {
    for (std::size_t j = 0; j < params_->repetitions; ++j) {
      GniChallenge challenge;
      challenge.seed = params_->gsHash.randomSeed(rng);
      challenge.y = rng.nextBigBits(params_->ell);
      challenges[v].push_back(challenge);
    }
  }
  HonestGniProver prover(*params_);
  GniFirstMessage first = prover.firstMessage(yes, challenges);
  for (std::size_t j = 0; j < params_->repetitions; ++j) {
    if (!first.perNode[0].claimed[j]) continue;
    graph::Permutation sigma(6);
    for (graph::Vertex v = 0; v < 6; ++v) sigma[v] = first.perNode[v].s[j];
    EXPECT_TRUE(graph::isPermutation(sigma, 6));
    const graph::Graph& gb = first.perNode[0].b[j] == 0 ? yes.g0 : yes.g1;
    std::vector<util::DynBitset> rows(6, util::DynBitset(6));
    for (graph::Vertex v = 0; v < 6; ++v) {
      rows[sigma[v]] = graph::Graph::imageOf(gb.closedRow(v), sigma);
    }
    EXPECT_EQ(params_->gsHash.hashRows(challenges[0][j].seed, rows),
              challenges[0][j].y);
    break;
  }
}

// The honest prover with one per-repetition vector of node 0's first G0
// neighbour replaced by an empty one (no storage): the neighbour's
// commitments s (read by node 0 for b = 0), its chain h (read by node 0,
// its tree parent) or its claimed flags (read by the transcript charges
// and by node 0's broadcast check). The protocol must reject such a message
// without reading past the vector's end.
enum class Emptied { kCommitments, kChildChain, kClaimedFlags };

class EmptiedNeighbourGniProver : public GniProver {
 public:
  EmptiedNeighbourGniProver(const GniParams& params, Emptied emptied)
      : honest_(params), emptied_(emptied) {}
  GniFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) override {
    GniFirstMessage first = honest_.firstMessage(instance, challenges);
    GniM1PerNode& m1 = first.perNode[neighbour(instance)];
    if (emptied_ == Emptied::kCommitments) m1.s = std::vector<graph::Vertex>();
    if (emptied_ == Emptied::kClaimedFlags) m1.claimed = std::vector<std::uint8_t>();
    return first;
  }
  GniSecondMessage secondMessage(const GniInstance& instance,
                                 const std::vector<std::vector<GniChallenge>>& challenges,
                                 const GniFirstMessage& first,
                                 const std::vector<util::BigUInt>& checkChallenges) override {
    GniSecondMessage second =
        honest_.secondMessage(instance, challenges, first, checkChallenges);
    if (emptied_ == Emptied::kChildChain) {
      second.perNode[neighbour(instance)].h = std::vector<util::BigUInt>();
    }
    return second;
  }

 private:
  static graph::Vertex neighbour(const GniInstance& instance) {
    return instance.g0.closedNeighbors(0)[1];  // [0] is node 0 itself.
  }
  HonestGniProver honest_;
  Emptied emptied_;
};

// The honest prover's run is accepted; the same run with the emptied
// vector is rejected.
void expectEmptiedRejected(const GniParams& params, Emptied emptied) {
  Rng rng(160);
  GniInstance yes = gniYesInstance(6, rng);
  GniAmamProtocol protocol(params);
  HonestGniProver honest(params);
  Rng honestRng(161);
  ASSERT_TRUE(protocol.run(yes, honest, honestRng).accepted);
  EmptiedNeighbourGniProver prover(params, emptied);
  Rng trialRng(161);
  EXPECT_FALSE(protocol.run(yes, prover, trialRng).accepted);
}

TEST_F(GniTest, MalformedNeighbourCommitmentsRejected) {
  expectEmptiedRejected(*params_, Emptied::kCommitments);
}

TEST_F(GniTest, MalformedChildChainRejected) {
  expectEmptiedRejected(*params_, Emptied::kChildChain);
}

TEST_F(GniTest, MalformedClaimedFlagsRejected) {
  expectEmptiedRejected(*params_, Emptied::kClaimedFlags);
}

}  // namespace
}  // namespace dip::core
