// The verifiers' per-node hash path under a non-uniform broadcast.
//
// Each node of SymDmam, SymDam and DSymDam hashes its own two rows on the
// calling thread's shared batch evaluator, rebinding it to the index the
// node was sent. Each node of GniAmam and GniGeneral hashes its
// Goldwasser-Sipser piece of repetition j on the thread's slot evaluator j,
// rebinding it to the seed the node echoes. When nodes echo different
// indices or seeds, consecutive decisions rebind between them. These tests
// send such broadcasts: one node, or the closed neighbourhoods of several
// nodes, echo other in-range indices (seeds), and every chain value (GS
// chain value) is built from the reference LinearHashEvaluator of
// tests/linear_hash_ref under the receiving node's own index. Then:
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
#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "hash/linear_hash.hpp"
#include "linear_hash_ref.hpp"
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
// node accepts iff its neighbours all echo what it echoes (`echo(v)`).
// Returns whether some node echoing other than `base` accepted.
template <typename Echo, typename Base, typename Decide>
bool expectEchoVerdicts(const Graph& g, Vertex root, Echo&& echo, const Base& base,
                         bool runAccepted, Decide&& decide) {
  bool all = true;
  bool skewedAccepted = false;
  for (Vertex v = 0; v < g.numVertices(); ++v) {
    const bool got = decide(v);
    all = all && got;
    if (v == root) continue;
    bool uniform = true;
    g.forEachNeighbor(v, [&](Vertex u) { uniform = uniform && echo(u) == echo(v); });
    EXPECT_EQ(got, uniform) << "node " << v;
    if (got && !(echo(v) == base)) skewedAccepted = true;
  }
  EXPECT_EQ(runAccepted, all);
  return skewedAccepted;
}

template <typename Decide>
bool expectLocalVerdicts(const Graph& g, Vertex root, const Broadcast<BigUInt>& index,
                         const BigUInt& base, bool runAccepted, Decide&& decide) {
  return expectEchoVerdicts(
      g, root, [&](Vertex v) -> const BigUInt& { return index[v]; }, base, runAccepted,
      decide);
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

// ---- GniAmam and GniGeneral (Goldwasser-Sipser pieces) ----

// The echo per node: node 0's challenges, except that the k-th centre alone,
// or its closed neighbourhood, echoes every seed's a shifted by k + 1
// (mod P); later centres overwrite earlier ones.
std::vector<std::vector<GniChallenge>> skewedEchoes(const Graph& g0, const BigUInt& bigP,
                                                    const std::vector<GniChallenge>& base,
                                                    const std::vector<Vertex>& centres,
                                                    bool neighbourhoods) {
  std::vector<std::vector<GniChallenge>> echo(g0.numVertices(), base);
  for (std::size_t c = 0; c < centres.size(); ++c) {
    std::vector<GniChallenge> other = base;
    for (GniChallenge& challenge : other) {
      challenge.seed.a = util::addMod(challenge.seed.a, BigUInt{c + 1}, bigP);
    }
    echo[centres[c]] = other;
    if (neighbourhoods) g0.forEachNeighbor(centres[c], [&](Vertex u) { echo[u] = other; });
  }
  return echo;
}

// pickCentres' centres whose closed neighbourhood leaves out the root: the
// root keeps echoing its own challenges, so a node that hashed under the
// root's seeds instead of its own would fail its chain check.
std::vector<Vertex> gniCentres(const Graph& g0, net::SpanningTreeView tree) {
  std::vector<Vertex> centres = pickCentres(g0, tree);
  std::erase_if(centres, [&](Vertex c) { return g0.hasEdge(c, tree.root); });
  return centres;
}

// The spanning tree a GNI first message unicasts; the root is node 0.
struct UnicastTree {
  std::vector<Vertex> parent;
  std::vector<std::uint32_t> dist;

  template <typename PerNode>
  explicit UnicastTree(const std::vector<PerNode>& perNode) {
    for (const PerNode& m1 : perNode) {
      parent.push_back(m1.parent);
      dist.push_back(m1.dist);
    }
  }
  net::SpanningTreeView view() const { return {0, parent, dist}; }
};

// For each claimed repetition j: h(v)[j] = piece(v, j) + the children's
// h[j], where piece is the oracle's GS piece under v's own echoed seed.
template <typename Piece, typename Chain>
void oracleGsChains(const Graph& g0, net::SpanningTreeView tree, const BigUInt& bigP,
                    const std::vector<std::uint8_t>& claimed, Piece&& piece, Chain&& h) {
  std::vector<Vertex> order;
  net::bottomUpOrderInto(tree, order);
  for (std::size_t j = 0; j < claimed.size(); ++j) {
    if (!claimed[j]) continue;
    for (Vertex v : order) {
      BigUInt value = piece(v, j);
      net::forEachChild(g0, tree, v,
                        [&](Vertex child) { util::addModInPlace(value, h(child)[j], bigP); });
      h(v)[j] = std::move(value);
    }
  }
}

// H's row sigma(v), from the neighbours' commitments s (b = 0) or from v's
// claimed images (b = 1), `width` bits wide.
template <typename M1>
util::DynBitset gsRow(const GniInstance& instance, const std::vector<M1>& perNode, Vertex v,
                      std::size_t j, std::size_t width,
                      std::vector<std::vector<Vertex>> M1::* claims) {
  util::DynBitset row(width);
  if (perNode[v].b[j] == 0) {
    instance.g0.closedRow(v).forEachSet([&](std::size_t u) { row.set(perNode[u].s[j]); });
  } else {
    for (Vertex image : (perNode[v].*claims)[j]) row.set(image);
  }
  return row;
}

std::size_t claimedCount(const std::vector<std::uint8_t>& claimed) {
  std::size_t count = 0;
  for (std::uint8_t c : claimed) count += c;
  return count;
}

class SkewedGniProver : public GniProver {
 public:
  SkewedGniProver(const GniParams& params, bool neighbourhoods)
      : params_(params), honest_(params), neighbourhoods_(neighbourhoods) {}
  GniFirstMessage firstMessage(const GniInstance& instance,
                               const std::vector<std::vector<GniChallenge>>& challenges) override {
    this->challenges = challenges;
    first = honest_.firstMessage(instance, challenges);
    const UnicastTree tree(first.perNode);
    const auto echo = skewedEchoes(instance.g0, params_.gsHash.fieldPrime(), challenges[0],
                                   gniCentres(instance.g0, tree.view()), neighbourhoods_);
    for (Vertex v = 0; v < instance.g0.numVertices(); ++v) first.perNode[v].echo = echo[v];
    return first;
  }
  GniSecondMessage secondMessage(const GniInstance& instance,
                                 const std::vector<std::vector<GniChallenge>>& challenges,
                                 const GniFirstMessage& m1,
                                 const std::vector<BigUInt>& checkChallenges) override {
    this->checkChallenges = checkChallenges;
    second = honest_.secondMessage(instance, challenges, m1, checkChallenges);
    const std::size_t n = instance.g0.numVertices();
    const UnicastTree tree(first.perNode);
    hash::LinearHashEvaluator oracle;
    oracleGsChains(
        instance.g0, tree.view(), params_.gsHash.fieldPrime(), first.perNode[0].claimed,
        [&](Vertex v, std::size_t j) {
          const GniM1PerNode& own = first.perNode[v];
          const util::DynBitset image =
              gsRow(instance, first.perNode, v, j, n, &GniM1PerNode::claims);
          oracle.rebind(params_.gsHash.inner(), own.echo[j].seed.a);
          return oracle.hashMatrixRow(own.s[j], image, n);
        },
        [&](Vertex v) -> std::vector<BigUInt>& { return second.perNode[v].h; });
    return second;
  }

  GniFirstMessage first;
  GniSecondMessage second;
  std::vector<std::vector<GniChallenge>> challenges;
  std::vector<BigUInt> checkChallenges;

 private:
  const GniParams& params_;
  HonestGniProver honest_;
  bool neighbourhoods_;
};

TEST(PerNodeRebind, GniAmamSkewedSeedBroadcast) {
  const std::size_t n = 6;
  Rng setup(1604);
  GniAmamProtocol protocol(GniParams::choose(n, setup));
  Rng rng(1605);
  const GniInstance instance = gniYesInstance(n, rng);
  for (const bool neighbourhoods : {false, true}) {
    SCOPED_TRACE(neighbourhoods ? "neighbourhoods" : "lone nodes");
    SkewedGniProver prover(protocol.params(), neighbourhoods);
    Rng trialRng(1606);
    const bool accepted = protocol.run(instance, prover, trialRng).accepted;
    // The honest claims reach the threshold, so only the echoes decide.
    ASSERT_GE(claimedCount(prover.first.perNode[0].claimed), protocol.params().threshold);
    const bool skewedAccepted = expectEchoVerdicts(
        instance.g0, 0, [&](Vertex v) -> const auto& { return prover.first.perNode[v].echo; },
        prover.challenges[0], accepted, [&](Vertex v) {
          return protocol.nodeDecision(instance, v, prover.first, prover.second,
                                       prover.challenges[v], prover.checkChallenges[v]);
        });
    EXPECT_EQ(skewedAccepted, neighbourhoods);
  }
}

class SkewedGniGeneralProver : public GniGeneralProver {
 public:
  SkewedGniGeneralProver(const GniGeneralParams& params, bool neighbourhoods)
      : params_(params), honest_(params), neighbourhoods_(neighbourhoods) {}
  GniGenFirstMessage firstMessage(
      const GniInstance& instance,
      const std::vector<std::vector<GniChallenge>>& challenges) override {
    this->challenges = challenges;
    first = honest_.firstMessage(instance, challenges);
    const UnicastTree tree(first.perNode);
    const auto echo = skewedEchoes(instance.g0, params_.gsHash.fieldPrime(), challenges[0],
                                   gniCentres(instance.g0, tree.view()), neighbourhoods_);
    for (Vertex v = 0; v < instance.g0.numVertices(); ++v) first.perNode[v].echo = echo[v];
    return first;
  }
  GniGenSecondMessage secondMessage(const GniInstance& instance,
                                    const std::vector<std::vector<GniChallenge>>& challenges,
                                    const GniGenFirstMessage& m1,
                                    const std::vector<BigUInt>& checkChallenges) override {
    this->checkChallenges = checkChallenges;
    second = honest_.secondMessage(instance, challenges, m1, checkChallenges);
    const std::size_t n = instance.g0.numVertices();
    const BigUInt& bigP = params_.gsHash.fieldPrime();
    const UnicastTree tree(first.perNode);
    hash::LinearHashEvaluator oracle;
    oracleGsChains(
        instance.g0, tree.view(), bigP, first.perNode[0].claimed,
        [&](Vertex v, std::size_t j) {
          // H's row sigma(v), padded to the 2n-wide hash, plus alpha's
          // permutation-matrix entry (n + sigma(v), alpha(sigma(v))).
          const GniGenM1PerNode& own = first.perNode[v];
          const util::DynBitset hRow =
              gsRow(instance, first.perNode, v, j, 2 * n, &GniGenM1PerNode::sClaims);
          oracle.rebind(params_.gsHash.inner(), own.echo[j].seed.a);
          return util::addMod(oracle.hashMatrixRow(own.s[j], hRow, 2 * n),
                              oracle.hashMatrixEntry(n + own.s[j], own.a[j], 1, 2 * n), bigP);
        },
        [&](Vertex v) -> std::vector<BigUInt>& { return second.perNode[v].h; });
    return second;
  }

  GniGenFirstMessage first;
  GniGenSecondMessage second;
  std::vector<std::vector<GniChallenge>> challenges;
  std::vector<BigUInt> checkChallenges;

 private:
  const GniGeneralParams& params_;
  HonestGniGeneralProver honest_;
  bool neighbourhoods_;
};

TEST(PerNodeRebind, GniGeneralSkewedSeedBroadcast) {
  const std::size_t n = 6;
  Rng setup(1607);
  GniGeneralProtocol protocol(GniGeneralParams::choose(n, setup));
  Rng rng(1608);
  const GniInstance instance = gniGeneralYesInstance(n, rng);
  for (const bool neighbourhoods : {false, true}) {
    SCOPED_TRACE(neighbourhoods ? "neighbourhoods" : "lone nodes");
    SkewedGniGeneralProver prover(protocol.params(), neighbourhoods);
    Rng trialRng(1609);
    const bool accepted = protocol.run(instance, prover, trialRng).accepted;
    ASSERT_GE(claimedCount(prover.first.perNode[0].claimed), protocol.params().threshold);
    const bool skewedAccepted = expectEchoVerdicts(
        instance.g0, 0, [&](Vertex v) -> const auto& { return prover.first.perNode[v].echo; },
        prover.challenges[0], accepted, [&](Vertex v) {
          return protocol.nodeDecision(instance, v, prover.first, prover.second,
                                       prover.challenges[v], prover.checkChallenges[v]);
        });
    EXPECT_EQ(skewedAccepted, neighbourhoods);
  }
}

}  // namespace
}  // namespace dip::core
