// Locality audit: a node's decision must depend ONLY on its closed
// neighborhood's messages and its own randomness (Definition 1). These
// tests mutate every field of NON-neighbors and assert decisions are
// unchanged — enforcing the model-fidelity promise of DESIGN.md 4.2.
#include <gtest/gtest.h>

#include "core/dsym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using util::Rng;

// A vertex outside v's closed neighborhood, if any.
std::optional<graph::Vertex> farVertexFrom(const graph::Graph& g, graph::Vertex v) {
  util::DynBitset closed = g.closedRow(v);
  for (graph::Vertex w = 0; w < g.numVertices(); ++w) {
    if (!closed.test(w)) return w;
  }
  return std::nullopt;
}

TEST(Locality, SymDmamDecisionIgnoresNonNeighbors) {
  Rng rng(341);
  const std::size_t n = 12;
  Rng setup(342);
  SymDmamProtocol protocol(hash::makeProtocol1Family(n, setup));
  graph::Graph g = graph::randomSymmetricConnected(n, rng);
  HonestSymDmamProver prover(protocol.family());

  SymDmamFirstMessage first = prover.firstMessage(g);
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < n; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);

  for (graph::Vertex v = 0; v < n; ++v) {
    auto far = farVertexFrom(g, v);
    if (!far) continue;
    bool original = protocol.nodeDecision(g, v, first, challenges[v], second);

    // Mutate EVERY field of the far vertex, one at a time.
    for (int field = 0; field < 7; ++field) {
      SymDmamFirstMessage mutatedFirst = first;
      SymDmamSecondMessage mutatedSecond = second;
      switch (field) {
        case 0: mutatedFirst.rootPerNode.set(*far, (first.rootPerNode[*far] + 1) % n); break;
        case 1: mutatedFirst.rho[*far] = (first.rho[*far] + 1) % n; break;
        case 2: mutatedFirst.parent[*far] = (first.parent[*far] + 1) % n; break;
        case 3: mutatedFirst.dist[*far] += 17; break;
        case 4:
          mutatedSecond.indexPerNode.set(
              *far, util::addMod(second.indexPerNode[*far], util::BigUInt{1},
                                 protocol.family().prime()));
          break;
        case 5:
          mutatedSecond.a[*far] = util::addMod(second.a[*far], util::BigUInt{1},
                                               protocol.family().prime());
          break;
        case 6:
          mutatedSecond.b[*far] = util::addMod(second.b[*far], util::BigUInt{1},
                                               protocol.family().prime());
          break;
      }
      EXPECT_EQ(protocol.nodeDecision(g, v, mutatedFirst, challenges[v], mutatedSecond),
                original)
          << "node " << v << " reacted to non-neighbor " << *far << " field " << field;
    }
  }
}

TEST(Locality, DSymDecisionIgnoresNonNeighbors) {
  Rng rng(343);
  const std::size_t side = 5;
  graph::DSymLayout layout = graph::dsymLayout(side, 1);
  graph::Graph f = graph::randomConnected(side, 2, rng);
  graph::Graph g = graph::dsymInstance(f, 1);

  Rng setup(344);
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{layout.numVertices}, 3);
  DSymDamProtocol protocol(
      layout, hash::LinearHashFamily(
                  util::findPrimeInRange(util::BigUInt{10} * n3,
                                         util::BigUInt{100} * n3, setup),
                  static_cast<std::uint64_t>(layout.numVertices) * layout.numVertices));
  HonestDSymProver prover(layout, protocol.family());

  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < layout.numVertices; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  DSymMessage msg = prover.respond(g, challenges);

  for (graph::Vertex v = 0; v < layout.numVertices; ++v) {
    auto far = farVertexFrom(g, v);
    if (!far) continue;
    bool original = protocol.nodeDecision(g, v, msg, challenges[v]);
    DSymMessage mutated = msg;
    mutated.a[*far] = util::addMod(msg.a[*far], util::BigUInt{1}, protocol.family().prime());
    mutated.dist[*far] += 3;
    mutated.parent[*far] = (msg.parent[*far] + 1) % layout.numVertices;
    EXPECT_EQ(protocol.nodeDecision(g, v, mutated, challenges[v]), original) << v;
  }
}

TEST(Locality, NeighborsDoReactToMutations) {
  // Sanity counterpart: some NEIGHBOR of a mutated node must notice (the
  // locality test would be vacuous if nobody ever reacted).
  Rng rng(345);
  const std::size_t n = 10;
  Rng setup(346);
  SymDmamProtocol protocol(hash::makeProtocol1Family(n, setup));
  graph::Graph g = graph::randomSymmetricConnected(n, rng);
  HonestSymDmamProver prover(protocol.family());
  SymDmamFirstMessage first = prover.firstMessage(g);
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < n; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);

  graph::Vertex victim = 3;
  SymDmamSecondMessage mutated = second;
  mutated.a[victim] =
      util::addMod(second.a[victim], util::BigUInt{1}, protocol.family().prime());
  bool someoneReacted = false;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (protocol.nodeDecision(g, v, first, challenges[v], mutated) !=
        protocol.nodeDecision(g, v, first, challenges[v], second)) {
      someoneReacted = true;
    }
  }
  EXPECT_TRUE(someoneReacted);
}

}  // namespace
}  // namespace dip::core
