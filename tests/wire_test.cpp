// Wire-format tests: every protocol message round-trips through its bit
// encoding, and the encoded sizes equal exactly what the transcript charges
// — so the cost numbers in every experiment are backed by real encodings.
#include <gtest/gtest.h>

#include "core/wire.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using util::Rng;

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng setup(191);
    n_ = 12;
    family_ = hash::makeProtocol1Family(n_, setup);
    Rng graphRng(192);
    g_ = graph::randomSymmetricConnected(n_, graphRng);
  }
  std::size_t n_ = 0;
  hash::LinearHashFamily family_;
  graph::Graph g_{1};
};

TEST_F(WireTest, SymDmamFirstRoundTrip) {
  HonestSymDmamProver prover(family_);
  SymDmamFirstMessage original = prover.firstMessage(g_);
  wire::EncodedRound encoded = wire::encodeSymDmamFirst(original, n_);
  SymDmamFirstMessage decoded = wire::decodeSymDmamFirst(encoded, n_);

  EXPECT_EQ(decoded.rootPerNode, original.rootPerNode);
  EXPECT_EQ(decoded.rho, original.rho);
  EXPECT_EQ(decoded.parent, original.parent);
  EXPECT_EQ(decoded.dist, original.dist);

  // Bit accounting: broadcast = root id; unicast = rho, parent, dist.
  const unsigned idBits = util::bitsFor(n_);
  EXPECT_EQ(encoded.broadcastBits(), idBits);
  for (graph::Vertex v = 0; v < n_; ++v) {
    EXPECT_EQ(encoded.unicastBits(v), 3u * idBits);
  }
}

TEST_F(WireTest, SymDmamSecondRoundTripAndChargedBitsMatch) {
  Rng rng(193);
  SymDmamProtocol protocol(family_);
  HonestSymDmamProver prover(family_);
  SymDmamFirstMessage first = prover.firstMessage(g_);
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < n_; ++v) challenges.push_back(family_.randomIndex(rng));
  SymDmamSecondMessage original = prover.secondMessage(g_, first, challenges);

  wire::EncodedRound encoded = wire::encodeSymDmamSecond(original, n_, family_);
  SymDmamSecondMessage decoded = wire::decodeSymDmamSecond(encoded, n_, family_);
  EXPECT_EQ(decoded.indexPerNode[0], original.indexPerNode[0]);
  EXPECT_EQ(decoded.a, original.a);
  EXPECT_EQ(decoded.b, original.b);

  // The transcript of a real run charges exactly the encoded sizes.
  RunResult result = protocol.run(g_, prover, rng);
  ASSERT_TRUE(result.accepted);
  wire::EncodedRound first1 = wire::encodeSymDmamFirst(first, n_);
  for (graph::Vertex v = 0; v < n_; ++v) {
    std::size_t expected = first1.bitsForNode(v) + encoded.bitsForNode(v);
    EXPECT_EQ(result.transcript.perNode()[v].bitsFromProver, expected) << "node " << v;
    EXPECT_EQ(result.transcript.perNode()[v].bitsToProver, family_.seedBits());
  }
}

TEST_F(WireTest, SymDamRoundTripAndChargedBitsMatch) {
  Rng rng(194);
  Rng setup(195);
  hash::LinearHashFamily family2 = hash::makeProtocol2Family(8, setup);
  graph::Graph g = graph::randomSymmetricConnected(8, rng);
  SymDamProtocol protocol(family2);
  HonestSymDamProver prover(family2);

  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < 8; ++v) challenges.push_back(family2.randomIndex(rng));
  SymDamMessage original = prover.respond(g, challenges);
  wire::EncodedRound encoded = wire::encodeSymDam(original, 8, family2);
  SymDamMessage decoded = wire::decodeSymDam(encoded, 8, family2);
  EXPECT_EQ(decoded.rhoPerNode[3], original.rhoPerNode[3]);
  EXPECT_EQ(decoded.rootPerNode[0], original.rootPerNode[0]);
  EXPECT_EQ(decoded.a, original.a);
  EXPECT_EQ(decoded.b, original.b);
  EXPECT_EQ(decoded.parent, original.parent);

  RunResult result = protocol.run(g, prover, rng);
  ASSERT_TRUE(result.accepted);
  for (graph::Vertex v = 0; v < 8; ++v) {
    EXPECT_EQ(result.transcript.perNode()[v].bitsFromProver, encoded.bitsForNode(v));
  }
}

TEST_F(WireTest, DSymRoundTripAndChargedBitsMatch) {
  Rng rng(196);
  const std::size_t side = 5;
  graph::DSymLayout layout = graph::dsymLayout(side, 1);
  graph::Graph f = graph::randomConnected(side, 2, rng);
  graph::Graph g = graph::dsymInstance(f, 1);

  Rng setup(197);
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{layout.numVertices}, 3);
  hash::LinearHashFamily family(
      util::findPrimeInRange(util::BigUInt{10} * n3, util::BigUInt{100} * n3, setup),
      static_cast<std::uint64_t>(layout.numVertices) * layout.numVertices);
  DSymDamProtocol protocol(layout, family);
  HonestDSymProver prover(layout, family);

  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < layout.numVertices; ++v) {
    challenges.push_back(family.randomIndex(rng));
  }
  DSymMessage original = prover.respond(g, challenges);
  wire::EncodedRound encoded = wire::encodeDSym(original, layout.numVertices, family);
  DSymMessage decoded = wire::decodeDSym(encoded, layout.numVertices, family);
  EXPECT_EQ(decoded.a, original.a);
  EXPECT_EQ(decoded.b, original.b);
  EXPECT_EQ(decoded.dist, original.dist);

  RunResult result = protocol.run(g, prover, rng);
  ASSERT_TRUE(result.accepted);
  for (graph::Vertex v = 0; v < layout.numVertices; ++v) {
    EXPECT_EQ(result.transcript.perNode()[v].bitsFromProver, encoded.bitsForNode(v));
  }
}

TEST_F(WireTest, ChallengeRoundTrip) {
  Rng rng(198);
  for (int i = 0; i < 20; ++i) {
    util::BigUInt index = family_.randomIndex(rng);
    util::BitWriter encoded = wire::encodeChallenge(index, family_);
    EXPECT_EQ(encoded.bitCount(), family_.seedBits());
    EXPECT_EQ(wire::decodeChallenge(encoded, family_), index);
  }
}

TEST_F(WireTest, InconsistentBroadcastRefused) {
  HonestSymDmamProver prover(family_);
  SymDmamFirstMessage message = prover.firstMessage(g_);
  message.rootPerNode.set(2, (message.rootPerNode[2] + 1) % static_cast<graph::Vertex>(n_));
  EXPECT_THROW(wire::encodeSymDmamFirst(message, n_), std::invalid_argument);
}

TEST_F(WireTest, DecodedMessagesStillVerify) {
  // End to end: run the verification over DECODED messages; the protocol
  // must accept exactly as with the in-memory originals.
  Rng rng(199);
  SymDmamProtocol protocol(family_);
  HonestSymDmamProver prover(family_);
  SymDmamFirstMessage first =
      wire::decodeSymDmamFirst(wire::encodeSymDmamFirst(prover.firstMessage(g_), n_), n_);
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < n_; ++v) challenges.push_back(family_.randomIndex(rng));
  SymDmamSecondMessage second = wire::decodeSymDmamSecond(
      wire::encodeSymDmamSecond(prover.secondMessage(g_, first, challenges), n_, family_),
      n_, family_);
  for (graph::Vertex v = 0; v < n_; ++v) {
    EXPECT_TRUE(protocol.nodeDecision(g_, v, first, challenges[v], second));
  }
}

}  // namespace
}  // namespace dip::core
