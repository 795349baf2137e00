// Tests for core::Broadcast, the broadcast-field representation of the Sym
// messages: one common value plus per-node overrides. The neighbour check
// agree(u, v) must see an override exactly as it saw a differing entry of a
// per-node vector; every Sym encoder must refuse a broadcast with one
// overridden node and accept a uniform one; every decoder must return a
// uniform broadcast.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/broadcast.hpp"
#include "core/dsym_dam.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_input.hpp"
#include "core/sym_input_wire.hpp"
#include "core/wire.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "hash/linear_hash.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using graph::Vertex;
using util::BigUInt;
using util::Rng;

TEST(Broadcast, UniformAssignHasNoOverrides) {
  Broadcast<Vertex> root(5, 3);
  EXPECT_EQ(root.size(), 5u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(root[v], 3u);
  EXPECT_EQ(root.overrideCount(), 0u);
  EXPECT_TRUE(root.uniform());
  EXPECT_TRUE(root.agree(0, 4));

  root.assign(7, 1);
  EXPECT_EQ(root.size(), 7u);
  EXPECT_EQ(root[6], 1u);
  EXPECT_TRUE(root.uniform());
}

TEST(Broadcast, OverridesAreSeenByAgreeAndDroppedWhenRestored) {
  Broadcast<Vertex> root(6, 2);
  root.set(4, 5);
  root.set(1, 0);
  EXPECT_EQ(root.overrideCount(), 2u);
  EXPECT_EQ(root[0], 2u);
  EXPECT_EQ(root[1], 0u);
  EXPECT_EQ(root[4], 5u);
  EXPECT_EQ(root[5], 2u);
  EXPECT_FALSE(root.uniform());
  EXPECT_TRUE(root.agree(0, 5));
  EXPECT_FALSE(root.agree(0, 4));
  EXPECT_FALSE(root.agree(1, 4));
  EXPECT_TRUE(root.agree(4, 4));

  root.set(4, 0);  // Rewriting an override keeps one entry.
  EXPECT_EQ(root.overrideCount(), 2u);
  EXPECT_TRUE(root.agree(1, 4));

  root.set(4, 2);  // Back to the common value: the override goes.
  root.set(1, 2);
  EXPECT_EQ(root.overrideCount(), 0u);
  EXPECT_TRUE(root.uniform());
  EXPECT_EQ(root, Broadcast<Vertex>(6, 2));

  EXPECT_THROW(root.set(6, 1), std::out_of_range);
}

TEST(Broadcast, EveryNodeOverriddenAlikeIsUniform) {
  Broadcast<Vertex> root(3, 1);
  for (Vertex v = 0; v < 3; ++v) root.set(v, 2);
  EXPECT_EQ(root.overrideCount(), 3u);
  EXPECT_TRUE(root.uniform());
  EXPECT_EQ(root, Broadcast<Vertex>(3, 2));
  root.set(1, 0);
  EXPECT_FALSE(root.uniform());
}

TEST(Broadcast, FromPerNodeMatchesTheVector) {
  const std::vector<BigUInt> perNode{BigUInt{7}, BigUInt{7}, BigUInt{9}, BigUInt{7},
                                     BigUInt{1}};
  const Broadcast<BigUInt> index = Broadcast<BigUInt>::fromPerNode(perNode);
  ASSERT_EQ(index.size(), perNode.size());
  for (Vertex v = 0; v < perNode.size(); ++v) EXPECT_EQ(index[v], perNode[v]);
  EXPECT_EQ(index.overrideCount(), 2u);
  EXPECT_FALSE(index.uniform());
  for (Vertex u = 0; u < perNode.size(); ++u) {
    for (Vertex v = 0; v < perNode.size(); ++v) {
      EXPECT_EQ(index.agree(u, v), perNode[u] == perNode[v]) << u << "," << v;
    }
  }

  const auto same = Broadcast<BigUInt>::fromPerNode({BigUInt{4}, BigUInt{4}});
  EXPECT_EQ(same.overrideCount(), 0u);
  EXPECT_TRUE(Broadcast<BigUInt>::fromPerNode({}).uniform());
}

TEST(Broadcast, VectorValuedOverride) {
  Broadcast<std::vector<Vertex>> rho(4, {1, 0, 3, 2});
  rho.set(2, {1, 0, 2, 3});
  EXPECT_FALSE(rho.agree(2, 3));
  EXPECT_TRUE(rho.agree(0, 3));
  EXPECT_EQ(rho[2], (std::vector<Vertex>{1, 0, 2, 3}));
  EXPECT_EQ(rho[3], (std::vector<Vertex>{1, 0, 3, 2}));
}

// ---- Codecs: refuse one overridden node, accept uniform, decode uniform.

class BroadcastWire : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 10;
  BroadcastWire()
      : p1_(hash::makeProtocol1FamilyCached(kN)), p2_(hash::makeProtocol2FamilyCached(6)) {
    Rng rng(1701);
    g_ = graph::randomSymmetricConnected(kN, rng);
    g6_ = graph::randomSymmetricConnected(6, rng);
    for (Vertex v = 0; v < kN; ++v) challenges_.push_back(p1_.randomIndex(rng));
    for (Vertex v = 0; v < 6; ++v) challenges6_.push_back(p2_.randomIndex(rng));
  }

  hash::LinearHashFamily p1_;
  hash::LinearHashFamily p2_;
  graph::Graph g_{1};
  graph::Graph g6_{1};
  std::vector<BigUInt> challenges_;
  std::vector<BigUInt> challenges6_;
};

TEST_F(BroadcastWire, SymDmamFirst) {
  HonestSymDmamProver prover(p1_);
  SymDmamFirstMessage first = prover.firstMessage(g_);
  const wire::EncodedRound round = wire::encodeSymDmamFirst(first, kN);
  const SymDmamFirstMessage decoded = wire::decodeSymDmamFirst(round, kN);
  EXPECT_EQ(decoded.rootPerNode.overrideCount(), 0u);
  EXPECT_EQ(decoded.rootPerNode, first.rootPerNode);
  first.rootPerNode.set(7, (first.rootPerNode[7] + 1) % kN);
  EXPECT_THROW(wire::encodeSymDmamFirst(first, kN), std::invalid_argument);
}

TEST_F(BroadcastWire, SymDmamSecond) {
  HonestSymDmamProver prover(p1_);
  const SymDmamFirstMessage first = prover.firstMessage(g_);
  SymDmamSecondMessage second = prover.secondMessage(g_, first, challenges_);
  const wire::EncodedRound round = wire::encodeSymDmamSecond(second, kN, p1_);
  const SymDmamSecondMessage decoded = wire::decodeSymDmamSecond(round, kN, p1_);
  EXPECT_EQ(decoded.indexPerNode.overrideCount(), 0u);
  EXPECT_EQ(decoded.indexPerNode, second.indexPerNode);
  second.indexPerNode.set(2, util::addMod(second.indexPerNode[2], BigUInt{1}, p1_.prime()));
  EXPECT_THROW(wire::encodeSymDmamSecond(second, kN, p1_), std::invalid_argument);
}

TEST_F(BroadcastWire, SymDam) {
  HonestSymDamProver prover(p2_);
  const SymDamMessage honest = prover.respond(g6_, challenges6_);
  const wire::EncodedRound round = wire::encodeSymDam(honest, 6, p2_);
  const SymDamMessage decoded = wire::decodeSymDam(round, 6, p2_);
  EXPECT_EQ(decoded.rhoPerNode.overrideCount(), 0u);
  EXPECT_EQ(decoded.indexPerNode.overrideCount(), 0u);
  EXPECT_EQ(decoded.rootPerNode.overrideCount(), 0u);
  EXPECT_EQ(decoded.rhoPerNode, honest.rhoPerNode);

  for (int field = 0; field < 3; ++field) {
    SymDamMessage bad = honest;
    switch (field) {
      case 0: {
        std::vector<Vertex> other = honest.rhoPerNode[4];
        std::swap(other[0], other[1]);
        bad.rhoPerNode.set(4, other);
        break;
      }
      case 1:
        bad.indexPerNode.set(4, util::addMod(honest.indexPerNode[4], BigUInt{1}, p2_.prime()));
        break;
      default:
        bad.rootPerNode.set(4, (honest.rootPerNode[4] + 1) % 6);
        break;
    }
    EXPECT_THROW(wire::encodeSymDam(bad, 6, p2_), std::invalid_argument) << "field " << field;
  }
}

TEST_F(BroadcastWire, DSym) {
  const graph::DSymLayout layout = graph::dsymLayout(6, 1);
  const std::size_t n = layout.numVertices;
  const hash::LinearHashFamily family = hash::makeProtocol1FamilyCached(n);
  Rng rng(1702);
  const graph::Graph g = graph::dsymInstance(graph::randomRigidConnected(6, rng), 1);
  std::vector<BigUInt> challenges;
  for (Vertex v = 0; v < n; ++v) challenges.push_back(family.randomIndex(rng));
  HonestDSymProver prover(layout, family);
  const DSymMessage honest = prover.respond(g, challenges);
  const DSymMessage decoded =
      wire::decodeDSym(wire::encodeDSym(honest, n, family), n, family);
  EXPECT_EQ(decoded.indexPerNode.overrideCount(), 0u);
  EXPECT_EQ(decoded.rootPerNode.overrideCount(), 0u);
  EXPECT_EQ(decoded.indexPerNode, honest.indexPerNode);

  DSymMessage badIndex = honest;
  badIndex.indexPerNode.set(1, util::addMod(honest.indexPerNode[1], BigUInt{1}, family.prime()));
  EXPECT_THROW(wire::encodeDSym(badIndex, n, family), std::invalid_argument);
  DSymMessage badRoot = honest;
  badRoot.rootPerNode.set(n - 1, 1);
  EXPECT_THROW(wire::encodeDSym(badRoot, n, family), std::invalid_argument);
}

TEST_F(BroadcastWire, SymInputRounds) {
  Rng rng(1703);
  const SymInputInstance instance{graph::randomConnected(kN, kN / 2, rng), g_};
  HonestSymInputProver prover(p1_);
  SymInputFirstMessage first = prover.firstMessage(instance);
  SymInputSecondMessage second = prover.secondMessage(instance, first, challenges_);

  const SymInputFirstMessage firstDecoded =
      wire::decodeSymInputFirst(wire::encodeSymInputFirst(first, instance), instance);
  EXPECT_EQ(firstDecoded.witnessPerNode.overrideCount(), 0u);
  EXPECT_EQ(firstDecoded.witnessPerNode, first.witnessPerNode);
  const SymInputSecondMessage secondDecoded = wire::decodeSymInputSecond(
      wire::encodeSymInputSecond(second, kN, p1_), kN, p1_);
  EXPECT_EQ(secondDecoded.indexPerNode.overrideCount(), 0u);
  EXPECT_EQ(secondDecoded.indexPerNode, second.indexPerNode);

  first.witnessPerNode.set(5, (first.witnessPerNode[5] + 1) % kN);
  EXPECT_THROW(wire::encodeSymInputFirst(first, instance), std::invalid_argument);
  second.indexPerNode.set(0, util::addMod(second.indexPerNode[0], BigUInt{1}, p1_.prime()));
  EXPECT_THROW(wire::encodeSymInputSecond(second, kN, p1_), std::invalid_argument);
}

}  // namespace
}  // namespace dip::core
