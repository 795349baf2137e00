// The fingerprint-chain frame: what Protocol 1 (sym_dmam), Protocol 2
// (sym_dam), DSym (dsym_dam) and the input-graph extension (sym_input) share.
//
// Each of them fixes a map rho (committed, broadcast or given by the
// layout), lets every node draw a linear-hash index, and has the prover sum
// per-node fingerprint pieces up a spanning tree: chain a sums the
// fingerprints of [v, N(v)], chain b those of [rho(v), rho(N(v))] (the
// input-graph extension adds a claim-consistency pair), and the root
// compares the sums. This module holds that scheme once:
//   - field tables: every prover message lists its fields once, in wire
//     order (Message::fields()), each a broadcast or unicast field of id,
//     seed or value width, one entry, n entries or deg_H(v) + 1 entries per
//     node. Walking a table is the message's codec (core/wire.hpp), its
//     transcript charges (proverRound), its cost model and dry run
//     (SymRounds) and its mutation surface (adv/adapters_wire.cpp);
//   - challengeRound: the index-challenge round with its DIP_AUDIT check
//     (the GNI frame's A2 runs it on its own stream base);
//   - neighboursAgree: a node's check that its neighbours received the same
//     broadcast fields;
//   - chainLinksHold / rowChainLinksHold: a node's check of its chain links
//     (own piece plus the children's sums), and foldChains, the prover's
//     bottom-up fold that produces those sums.
// Every chain value is an element of Z_p, so a message's value fields are
// its chains, in wire order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/broadcast.hpp"
#include "core/prepared.hpp"
#include "core/result.hpp"
#include "graph/graph.hpp"
#include "hash/batch_eval.hpp"
#include "hash/linear_hash.hpp"
#include "net/spanning.hpp"
#include "net/transcript.hpp"
#include "util/biguint.hpp"
#include "util/rng.hpp"

namespace dip::core {

// ---- Field tables ----

// The bit widths of one Sym instance: vertex ids, hash indices (seeds) and
// chain values.
struct SymWidths {
  unsigned idBits = 0;
  std::size_t seedBits = 0;
  std::size_t valueBits = 0;
};

// The widths of an n-node run over `family`.
SymWidths symWidths(const hash::LinearHashFamily& family, std::size_t n);
// The cost models' widths: ids over n, seeds and values as wide as
// 100 n^exponent, the top of the paper's prime window [10 n^e, 100 n^e].
SymWidths symModelWidths(std::size_t n, std::size_t exponent);

enum class SymWidth : std::uint8_t { kId, kSeed, kValue };
// Entries per node: one, n (a whole mapping) or deg_H(v) + 1 (claims over
// v's closed input neighbourhood).
enum class SymCount : std::uint8_t { kOne, kNodes, kClosedInputDegree };

template <typename T>
inline constexpr bool kIsBroadcast = false;
template <typename T>
inline constexpr bool kIsBroadcast<Broadcast<T>> = true;

// One field of a message: a Broadcast<E> member is a broadcast field, a
// std::vector<E> member (one entry per node) a unicast one.
template <typename Message, typename T>
struct SymField {
  using Carrier = T;
  static constexpr bool kBroadcast = kIsBroadcast<T>;

  T Message::*member;
  SymWidth width;
  SymCount count = SymCount::kOne;
};
template <typename Message, typename T>
SymField(T Message::*, SymWidth) -> SymField<Message, T>;
template <typename Message, typename T>
SymField(T Message::*, SymWidth, SymCount) -> SymField<Message, T>;

// Calls fn(field) for every field of Message, in wire order.
template <typename Message, typename Fn>
constexpr void forEachField(Fn&& fn) {
  std::apply([&](const auto&... field) { (fn(field), ...); }, Message::fields());
}

// Number of value fields (chains) of Message.
template <typename Message>
constexpr std::size_t chainCount() {
  std::size_t count = 0;
  forEachField<Message>([&](const auto& field) {
    if (field.width == SymWidth::kValue) ++count;
  });
  return count;
}

inline std::size_t bitsOf(SymWidth width, const SymWidths& widths) {
  switch (width) {
    case SymWidth::kId:
      return widths.idBits;
    case SymWidth::kSeed:
      return widths.seedBits;
    case SymWidth::kValue:
      break;
  }
  return widths.valueBits;
}

// What a message's table is read against: the node count, the widths and,
// for claims over closed input neighbourhoods, the input graph H.
struct SymShape {
  std::size_t n = 0;
  SymWidths widths;
  const graph::Graph* input = nullptr;

  // Entries of a field at node v (a broadcast field's at any node).
  std::size_t countAt(SymCount count, graph::Vertex v) const {
    switch (count) {
      case SymCount::kOne:
        return 1;
      case SymCount::kNodes:
        return n;
      case SymCount::kClosedInputDegree:
        break;
    }
    return input->degree(v) + 1;
  }
};

// The shape of a run on network g (Protocols 1 and 2, DSym).
inline SymShape symShape(const graph::Graph& g, const hash::LinearHashFamily& family) {
  return {g.numVertices(), symWidths(family, g.numVertices()), nullptr};
}

// The bits of one or more prover messages and one index challenge per
// node, from the tables alone: costModel and the dry runs. Every field is
// charged at its width and count, a deg_H(v) + 1 count at
// maxInputDegree + 1.
template <typename... Messages>
struct SymRounds {
  static CostBreakdown cost(const SymWidths& widths, std::size_t n,
                            std::size_t maxInputDegree = 0) {
    CostBreakdown cost;
    cost.bitsToProverPerNode = widths.seedBits;
    const auto add = [&](const auto& field) {
      const std::size_t count = field.count == SymCount::kOne     ? 1
                                : field.count == SymCount::kNodes ? n
                                                                  : maxInputDegree + 1;
      cost.bitsFromProverPerNode += bitsOf(field.width, widths) * count;
    };
    (forEachField<Messages>(add), ...);
    return cost;
  }
};

// ---- Rounds ----

// The index-challenge round: node v draws a hash index of `family` from
// rng.split(streamBase + v), for v = 0..n-1 in order, and sends it to the
// prover. Charged and, under DIP_AUDIT, checked against the challenge codec.
std::vector<util::BigUInt> challengeRound(net::Transcript& transcript, const char* round,
                                          const char* label,
                                          const hash::LinearHashFamily& family,
                                          util::Rng& rng, std::uint64_t streamBase = 0);

// A prover round carrying `message`: opens the transcript round
// Message::kRound, throws std::runtime_error unless every field holds one
// entry per node, charges every field at its width (a claim field at the
// entries it holds) and, under DIP_AUDIT, checks the charges against the
// message's codec. Instantiated for the six Sym messages.
template <typename Message>
void proverRound(net::Transcript& transcript, const Message& message, const SymShape& shape);

// Runs decide(v) for v = 0..n-1 and accepts iff every node does (stops at
// the first rejecting node).
template <typename Decide>
bool allNodesAccept(std::size_t n, Decide&& decide) {
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!decide(v)) return false;
  }
  return true;
}

// ---- Verifier checks ----

// Did every neighbour of v receive what v received in each broadcast field
// of these messages? O(deg v) with uniform broadcasts.
template <typename... Messages>
bool neighboursAgree(const graph::Graph& g, graph::Vertex v, const Messages&... messages) {
  bool agree = true;
  g.row(v).forEachSet([&](std::size_t u) {
    const auto neighbour = static_cast<graph::Vertex>(u);
    const auto check = [&](const auto& message) {
      forEachField<std::decay_t<decltype(message)>>([&](const auto& field) {
        if constexpr (std::decay_t<decltype(field)>::kBroadcast) {
          if (!(message.*field.member).agree(neighbour, v)) agree = false;
        }
      });
    };
    (check(messages), ...);
  });
  return agree;
}

// v's link of several chains over one prime: chain c's claimed value at v,
// claimedAt(c, v), must equal expect[c] (v's own piece on entry; the
// children's sums are added in place) plus claimedAt(c, child) over the
// children forEachChild visits, each of which must be below the prime.
template <typename ForEachChild, typename ClaimedAt>
bool chainLinksHold(graph::Vertex v, ForEachChild&& forEachChild,
                    std::span<util::BigUInt> expect, ClaimedAt&& claimedAt,
                    const util::BigUInt& prime) {
  bool childrenOk = true;
  forEachChild([&](graph::Vertex child) {
    if (!childrenOk) return;
    for (std::size_t c = 0; c < expect.size(); ++c) {
      const util::BigUInt& value = claimedAt(c, child);
      if (value >= prime) {
        childrenOk = false;
        return;
      }
      util::addModInPlace(expect[c], value, prime);
    }
  });
  if (!childrenOk) return false;
  for (std::size_t c = 0; c < expect.size(); ++c) {
    if (!(claimedAt(c, v) == expect[c])) return false;
  }
  return true;
}

// The same for every chain of a Sym message, children under `tree` in g.
template <typename Message>
bool chainLinksHold(const graph::Graph& g, graph::Vertex v, net::SpanningTreeView tree,
                    const Message& message, std::span<util::BigUInt> expect,
                    const util::BigUInt& prime) {
  std::array<const std::vector<util::BigUInt>*, chainCount<Message>()> chains{};
  std::size_t next = 0;
  forEachField<Message>([&](const auto& field) {
    if constexpr (std::is_same_v<typename std::decay_t<decltype(field)>::Carrier,
                                 std::vector<util::BigUInt>>) {
      if (field.width == SymWidth::kValue) chains[next++] = &(message.*field.member);
    }
  });
  return chainLinksHold(
      v, [&](auto&& visit) { net::forEachChild(g, tree, v, visit); }, expect,
      [&](std::size_t c, graph::Vertex u) -> const util::BigUInt& { return (*chains[c])[u]; },
      prime);
}

// The a/b link of Protocols 1 and 2 and DSym at v: a's piece is the
// fingerprint of [v, N(v)], b's of [rho(v), rho(N(v))]. v reads its own row
// and rho on its closed neighbourhood. The rows hash over the calling
// thread's chain evaluator: in an honest trial the prover pinned this index
// moments ago, so the rebind is a no-op; only the public power tables keyed
// by (p, m, index) are shared, the row hashes are recomputed here.
template <typename Message>
bool rowChainLinksHold(const graph::Graph& g, graph::Vertex v, net::SpanningTreeView tree,
                       const hash::LinearHashFamily& family, const util::BigUInt& index,
                       std::span<const graph::Vertex> rho, const Message& message) {
  static_assert(chainCount<Message>() == 2);
  const std::size_t n = g.numVertices();
  hash::BatchLinearHashEvaluator& batch = hash::threadChainEvaluator();
  batch.rebind(family.prime(), family.dimension(), index);
  // Thread-local accumulators keep the fold's limb storage alive across
  // the n decisions of a trial.
  thread_local std::array<util::BigUInt, 2> expect;
  expect[0] = batch.hashMatrixRow(v, g.closedRow(v), n);
  expect[1] = batch.hashMappedRow(rho, v, g.row(v), n);
  return chainLinksHold(g, v, tree, message, expect, family.prime());
}

// ---- Prover side ----

// Subtree sums in place: every column's entry at v becomes v's piece plus
// its children's sums, mod prime, for v along `order`
// (net::bottomUpOrder(tree)).
void foldChains(const graph::Graph& g, net::SpanningTreeView tree,
                std::span<const graph::Vertex> order,
                std::span<std::vector<util::BigUInt>* const> columns,
                const util::BigUInt& prime);

// The a/b chain values of Protocols 1 and 2 and DSym (see rowChainLinksHold)
// under hash index `index`, summed along `tree`.
struct ChainValues {
  std::vector<util::BigUInt> a;
  std::vector<util::BigUInt> b;
};
ChainValues aggregateChains(const graph::Graph& g, const hash::LinearHashFamily& family,
                            const util::BigUInt& index,
                            const std::vector<graph::Vertex>& rho,
                            net::SpanningTreeView tree);
// The same values for the prepared instance's rho and tree, hashing its
// stored rows (prepared must have a tree: see requireTree).
ChainValues aggregateChains(const graph::Graph& g, const hash::LinearHashFamily& family,
                            const util::BigUInt& index, const PreparedSym& prepared);

}  // namespace dip::core
