#include "core/sym_frame.hpp"

#include <stdexcept>
#include <string>

#include "core/dsym_dam.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_input.hpp"
#include "core/wire.hpp"
#include "net/audit.hpp"
#include "util/bitio.hpp"

namespace dip::core {

SymWidths symWidths(const hash::LinearHashFamily& family, std::size_t n) {
  return {util::bitsFor(n), family.seedBits(), family.valueBits()};
}

SymWidths symModelWidths(std::size_t n, std::size_t exponent) {
  const util::BigUInt pHi =
      util::BigUInt{100} * util::BigUInt::pow(util::BigUInt{n}, exponent);
  return {util::bitsFor(n), pHi.bitLength(), pHi.bitLength()};
}

std::vector<util::BigUInt> challengeRound(net::Transcript& transcript, const char* round,
                                          const char* label,
                                          const hash::LinearHashFamily& family,
                                          util::Rng& rng, std::uint64_t streamBase) {
  const std::size_t n = transcript.numNodes();
  transcript.beginRound(round);
  std::vector<util::BigUInt> challenges;
  challenges.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::Rng nodeRng = rng.split(streamBase + v);
    challenges.push_back(family.randomIndex(nodeRng));
    transcript.chargeToProver(v, family.seedBits());
  }
#if DIP_AUDIT
  net::roundArena().reset();
  for (graph::Vertex v = 0; v < n; ++v) {
    net::auditCharge(
        label, v, transcript.roundBitsToProver(v),
        wire::encodeChallenge(challenges[v], family, &net::roundArena()).bitCount());
  }
#else
  (void)label;
#endif
  return challenges;
}

namespace {

// A unicast entry's element count: a claim list is charged at the entries it
// holds (the codec refuses a count other than deg_H(v) + 1), anything else
// is one element.
template <typename Entry>
std::size_t entriesOf(const Entry& entry) {
  if constexpr (std::is_same_v<Entry, std::vector<graph::Vertex>>) {
    return entry.size();
  } else {
    return 1;
  }
}

}  // namespace

template <typename Message>
void proverRound(net::Transcript& transcript, const Message& message, const SymShape& shape) {
  transcript.beginRound(Message::kRound);
  bool shaped = true;
  forEachField<Message>([&](const auto& field) {
    shaped = shaped && (message.*field.member).size() == shape.n;
  });
  if (!shaped) throw std::runtime_error(std::string(Message::kLabel) + ": malformed message");

  std::size_t broadcastBits = 0;
  forEachField<Message>([&](const auto& field) {
    if constexpr (std::decay_t<decltype(field)>::kBroadcast) {
      broadcastBits += bitsOf(field.width, shape.widths) * shape.countAt(field.count, 0);
    }
  });
  transcript.chargeBroadcastFromProver(broadcastBits);
  for (graph::Vertex v = 0; v < shape.n; ++v) {
    std::size_t bits = 0;
    forEachField<Message>([&](const auto& field) {
      if constexpr (!std::decay_t<decltype(field)>::kBroadcast) {
        bits += bitsOf(field.width, shape.widths) * entriesOf((message.*field.member)[v]);
      }
    });
    transcript.chargeFromProver(v, bits);
  }
#if DIP_AUDIT
  net::auditChargedRound(Message::kLabel, transcript, [&] {
    return wire::encodeSym(message, shape, &net::roundArena());
  });
#endif
}

template void proverRound(net::Transcript&, const SymDmamFirstMessage&, const SymShape&);
template void proverRound(net::Transcript&, const SymDmamSecondMessage&, const SymShape&);
template void proverRound(net::Transcript&, const SymDamMessage&, const SymShape&);
template void proverRound(net::Transcript&, const DSymMessage&, const SymShape&);
template void proverRound(net::Transcript&, const SymInputFirstMessage&, const SymShape&);
template void proverRound(net::Transcript&, const SymInputSecondMessage&, const SymShape&);

void foldChains(const graph::Graph& g, net::SpanningTreeView tree,
                std::span<const graph::Vertex> order,
                std::span<std::vector<util::BigUInt>* const> columns,
                const util::BigUInt& prime) {
  for (graph::Vertex v : order) {
    net::forEachChild(g, tree, v, [&](graph::Vertex child) {
      for (std::vector<util::BigUInt>* column : columns) {
        util::addModInPlace((*column)[v], (*column)[child], prime);
      }
    });
  }
}

namespace {

hash::BatchLinearHashEvaluator& chainEvaluator(const hash::LinearHashFamily& family,
                                               const util::BigUInt& index) {
  hash::BatchLinearHashEvaluator& batch = hash::threadChainEvaluator();
  batch.rebind(family.prime(), family.dimension(), index);
  return batch;
}

// Per-vertex row hashes depend only on v, not on tree order: the callers
// evaluate all 2n of them over the shared power tables, then fold.
ChainValues folded(const graph::Graph& g, const hash::LinearHashFamily& family,
                   ChainValues values, net::SpanningTreeView tree,
                   std::span<const graph::Vertex> order) {
  const std::array<std::vector<util::BigUInt>*, 2> columns{&values.a, &values.b};
  foldChains(g, tree, order, columns, family.prime());
  return values;
}

}  // namespace

ChainValues aggregateChains(const graph::Graph& g, const hash::LinearHashFamily& family,
                            const util::BigUInt& index,
                            const std::vector<graph::Vertex>& rho,
                            net::SpanningTreeView tree) {
  const std::size_t n = g.numVertices();
  hash::BatchLinearHashEvaluator& batch = chainEvaluator(family, index);
  ChainValues values;
  values.a.resize(n);
  values.b.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    values.a[v] = batch.hashMatrixRow(v, g.closedRow(v), n);
    values.b[v] = batch.hashMappedRow(rho, v, g.row(v), n);
  }
  thread_local std::vector<graph::Vertex> order;
  net::bottomUpOrderInto(tree, order);
  return folded(g, family, std::move(values), tree, order);
}

ChainValues aggregateChains(const graph::Graph& g, const hash::LinearHashFamily& family,
                            const util::BigUInt& index, const PreparedSym& prepared) {
  const std::size_t n = g.numVertices();
  hash::BatchLinearHashEvaluator& batch = chainEvaluator(family, index);
  ChainValues values;
  batch.hashMatrixRows(prepared.closedIndices, prepared.closedRows, n, values.a);
  batch.hashMatrixRows(prepared.imageIndices, prepared.imageRows, n, values.b);
  return folded(g, family, std::move(values), prepared.tree, prepared.order);
}

}  // namespace dip::core
