// The Sym verifiers' per-node hash path under a non-uniform index broadcast.
//
// Each node of SymDmam, SymDam and DSymDam hashes its own two rows on the
// calling thread's shared batch evaluator, rebinding it to the index the
// node was sent. When nodes echo different indices, consecutive decisions
// rebind between them. These tests send such broadcasts: one node, or the
// closed neighbourhoods of several nodes, echo other in-range indices, and
// every chain value is built from the scalar LinearHashEvaluator oracle
// under the receiving node's own index. Then:
//   * run()'s verdict is the AND of nodeDecision over all nodes;
//   * every non-root node accepts exactly when all its neighbours echo its
//     index — so each node that gets past the broadcast check recomputed
//     the oracle's own-row hashes, under whichever index it holds.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/broadcast.hpp"
#include "core/dsym_dam.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "hash/linear_hash.hpp"
#include "net/spanning.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using graph::Graph;
using graph::Vertex;
using util::BigUInt;
using util::Rng;

// Centres for a tree rooted at `root`: the vertex farthest from the root,
// then (when one exists) a non-root vertex outside its closed neighbourhood.
std::vector<Vertex> pickCentres(const Graph& g, net::SpanningTreeView tree) {
  Vertex far = tree.root == 0 ? 1 : 0;
  for (Vertex v = 0; v < g.numVertices(); ++v) {
    if (tree.dist[v] > tree.dist[far]) far = v;
  }
  std::vector<Vertex> centres{far};
  for (Vertex v = 0; v < g.numVertices(); ++v) {
    if (v != tree.root && v != far && !g.hasEdge(v, far)) {
      centres.push_back(v);
      break;
    }
  }
  return centres;
}

// The echoed index per node: `base`, except that the k-th centre alone, or
// its closed neighbourhood, echoes base + k + 1 (mod p); later centres
// overwrite earlier ones.
Broadcast<BigUInt> skewedIndices(const Graph& g, const hash::LinearHashFamily& family,
                                   const BigUInt& base, const std::vector<Vertex>& centres,
                                   bool neighbourhoods) {
  std::vector<BigUInt> index(g.numVertices(), base);
  for (std::size_t k = 0; k < centres.size(); ++k) {
    const BigUInt other = util::addMod(base, BigUInt{k + 1}, family.prime());
    const Vertex c = centres[k];
    index[c] = other;
    if (neighbourhoods) {
      g.forEachNeighbor(c, [&](Vertex u) { index[u] = other; });
    }
  }
  return Broadcast<BigUInt>::fromPerNode(std::move(index));
}

// Chain values under each node's OWN index, from the scalar oracle:
// a_v = h_{i_v}([v, N[v]]) + sum of children's a, and likewise b_v with the
// row [rho_v, rho(N[v])].
void oracleChains(const Graph& g, const hash::LinearHashFamily& family,
                  net::SpanningTreeView tree, const Broadcast<BigUInt>& index,
                  const std::vector<Vertex>& rho, std::vector<BigUInt>& a,
                  std::vector<BigUInt>& b) {
  const std::size_t n = g.numVertices();
  hash::LinearHashEvaluator oracle;
  a.assign(n, BigUInt{});
  b.assign(n, BigUInt{});
  std::vector<Vertex> order;
  net::bottomUpOrderInto(tree, order);
  for (Vertex v : order) {
    oracle.rebind(family, index[v]);
    a[v] = oracle.hashMatrixRow(v, g.closedRow(v), n);
    b[v] = oracle.hashMatrixRow(rho[v], Graph::imageOf(g.closedRow(v), rho), n);
    net::forEachChild(g, tree, v, [&](Vertex child) {
      util::addModInPlace(a[v], a[child], family.prime());
      util::addModInPlace(b[v], b[child], family.prime());
    });
  }
}

// run()'s verdict is the AND of the per-node decisions, and each non-root
// node accepts iff its neighbours all echo its index. Returns whether some
// node holding a non-base index accepted.
template <typename Decide>
bool expectLocalVerdicts(const Graph& g, Vertex root, const Broadcast<BigUInt>& index,
                         const BigUInt& base, bool runAccepted, Decide&& decide) {
  bool all = true;
  bool skewedAccepted = false;
  for (Vertex v = 0; v < g.numVertices(); ++v) {
    const bool got = decide(v);
    all = all && got;
    if (v == root) continue;
    bool uniform = true;
    g.forEachNeighbor(v, [&](Vertex u) { uniform = uniform && index[u] == index[v]; });
    EXPECT_EQ(got, uniform) << "node " << v;
    if (got && !(index[v] == base)) skewedAccepted = true;
  }
  EXPECT_EQ(runAccepted, all);
  return skewedAccepted;
}

// ---- SymDmam (Protocol 1) ----

class SkewedSymDmamProver : public SymDmamProver {
 public:
  SkewedSymDmamProver(const hash::LinearHashFamily& family, bool neighbourhoods)
      : family_(family), honest_(family), neighbourhoods_(neighbourhoods) {}
  SymDmamFirstMessage firstMessage(const Graph& g) override {
    first = honest_.firstMessage(g);
    return first;
  }
  SymDmamSecondMessage secondMessage(const Graph& g, const SymDmamFirstMessage& m1,
                                     const std::vector<BigUInt>& challenges) override {
    this->challenges = challenges;
    second = honest_.secondMessage(g, m1, challenges);
    const net::SpanningTreeView tree{m1.rootPerNode[0], m1.parent, m1.dist};
    second.indexPerNode = skewedIndices(g, family_, challenges[tree.root],
                                         pickCentres(g, tree), neighbourhoods_);
    oracleChains(g, family_, tree, second.indexPerNode, m1.rho, second.a, second.b);
    return second;
  }

  SymDmamFirstMessage first;
  SymDmamSecondMessage second;
  std::vector<BigUInt> challenges;

 private:
  const hash::LinearHashFamily& family_;
  HonestSymDmamProver honest_;
  bool neighbourhoods_;
};

TEST(PerNodeRebind, SymDmamSkewedIndexBroadcast) {
  const std::size_t n = 10;
  Rng rng(1601);
  SymDmamProtocol protocol(hash::makeProtocol1FamilyCached(n));
  const Graph g = graph::randomSymmetricConnected(n, rng);
  for (const bool neighbourhoods : {false, true}) {
    SCOPED_TRACE(neighbourhoods ? "neighbourhoods" : "lone nodes");
    SkewedSymDmamProver prover(protocol.family(), neighbourhoods);
    const bool accepted = protocol.run(g, prover, rng).accepted;
    const Vertex root = prover.first.rootPerNode[0];
    const bool skewedAccepted = expectLocalVerdicts(
        g, root, prover.second.indexPerNode, prover.challenges[root], accepted,
        [&](Vertex v) {
          return protocol.nodeDecision(g, v, prover.first, prover.challenges[v],
                                       prover.second);
        });
    EXPECT_EQ(skewedAccepted, neighbourhoods);
  }
}

// ---- SymDam (Protocol 2) ----

class SkewedSymDamProver : public SymDamProver {
 public:
  SkewedSymDamProver(const hash::LinearHashFamily& family, bool neighbourhoods)
      : family_(family), honest_(family), neighbourhoods_(neighbourhoods) {}
  SymDamMessage respond(const Graph& g, const std::vector<BigUInt>& challenges) override {
    this->challenges = challenges;
    msg = honest_.respond(g, challenges);
    const net::SpanningTreeView tree{msg.rootPerNode[0], msg.parent, msg.dist};
    msg.indexPerNode = skewedIndices(g, family_, challenges[tree.root],
                                     pickCentres(g, tree), neighbourhoods_);
    oracleChains(g, family_, tree, msg.indexPerNode, msg.rhoPerNode[0], msg.a, msg.b);
    return msg;
  }

  SymDamMessage msg;
  std::vector<BigUInt> challenges;

 private:
  const hash::LinearHashFamily& family_;
  HonestSymDamProver honest_;
  bool neighbourhoods_;
};

TEST(PerNodeRebind, SymDamSkewedIndexBroadcast) {
  // n = 16 puts Protocol 2's prime above 2^64: the Montgomery backend.
  const std::size_t n = 16;
  Rng rng(1602);
  SymDamProtocol protocol(hash::makeProtocol2FamilyCached(n));
  ASSERT_FALSE(protocol.family().prime().fitsU64());
  const Graph g = graph::randomSymmetricConnected(n, rng);
  for (const bool neighbourhoods : {false, true}) {
    SCOPED_TRACE(neighbourhoods ? "neighbourhoods" : "lone nodes");
    SkewedSymDamProver prover(protocol.family(), neighbourhoods);
    const bool accepted = protocol.run(g, prover, rng).accepted;
    const Vertex root = prover.msg.rootPerNode[0];
    const bool skewedAccepted = expectLocalVerdicts(
        g, root, prover.msg.indexPerNode, prover.challenges[root], accepted,
        [&](Vertex v) { return protocol.nodeDecision(g, v, prover.msg, prover.challenges[v]); });
    EXPECT_EQ(skewedAccepted, neighbourhoods);
  }
}

// ---- DSymDam ----

class SkewedDSymProver : public DSymProver {
 public:
  SkewedDSymProver(const graph::DSymLayout& layout, const hash::LinearHashFamily& family,
                   bool neighbourhoods)
      : layout_(layout), family_(family), honest_(layout, family),
        neighbourhoods_(neighbourhoods) {}
  DSymMessage respond(const Graph& g, const std::vector<BigUInt>& challenges) override {
    this->challenges = challenges;
    msg = honest_.respond(g, challenges);
    const net::SpanningTreeView tree{msg.rootPerNode[0], msg.parent, msg.dist};
    msg.indexPerNode = skewedIndices(g, family_, challenges[tree.root],
                                     pickCentres(g, tree), neighbourhoods_);
    oracleChains(g, family_, tree, msg.indexPerNode, graph::dsymSigma(layout_), msg.a,
                 msg.b);
    return msg;
  }

  DSymMessage msg;
  std::vector<BigUInt> challenges;

 private:
  const graph::DSymLayout& layout_;
  const hash::LinearHashFamily& family_;
  HonestDSymProver honest_;
  bool neighbourhoods_;
};

TEST(PerNodeRebind, DSymDamSkewedIndexBroadcast) {
  const std::size_t side = 6;
  Rng rng(1603);
  const graph::DSymLayout layout = graph::dsymLayout(side, 1);
  DSymDamProtocol protocol(layout, hash::makeProtocol1FamilyCached(layout.numVertices));
  const Graph g = graph::dsymInstance(graph::randomRigidConnected(side, rng), 1);
  for (const bool neighbourhoods : {false, true}) {
    SCOPED_TRACE(neighbourhoods ? "neighbourhoods" : "lone nodes");
    SkewedDSymProver prover(layout, protocol.family(), neighbourhoods);
    const bool accepted = protocol.run(g, prover, rng).accepted;
    const Vertex root = prover.msg.rootPerNode[0];
    const bool skewedAccepted = expectLocalVerdicts(
        g, root, prover.msg.indexPerNode, prover.challenges[root], accepted,
        [&](Vertex v) { return protocol.nodeDecision(g, v, prover.msg, prover.challenges[v]); });
    EXPECT_EQ(skewedAccepted, neighbourhoods);
  }
}

}  // namespace
}  // namespace dip::core
