#include "core/sym_input_wire.hpp"

#include <stdexcept>

namespace dip::core::wire {

EncodedRound encodeSymInputFirst(const SymInputFirstMessage& message,
                                 const SymInputInstance& instance) {
  const std::size_t n = instance.network.numVertices();
  const unsigned idBits = util::bitsFor(n);
  if (n == 0) throw std::invalid_argument("encodeSymInputFirst: empty round");
  if (message.witnessPerNode.size() != n || message.rho.size() != n ||
      message.parent.size() != n || message.dist.size() != n ||
      message.claims.size() != n) {
    throw std::invalid_argument("encodeSymInputFirst: wrong per-node count");
  }
  if (!message.witnessPerNode.uniform()) {
    throw std::invalid_argument("encodeSymInputFirst: inconsistent witness broadcast");
  }
  for (graph::Vertex v = 0; v < n; ++v) {
    if (message.claims[v].size() != instance.input.degree(v) + 1) {
      throw std::invalid_argument("encodeSymInputFirst: wrong claim count");
    }
  }

  EncodedRound round;
  round.broadcast.writeUInt(message.witnessPerNode[0], idBits);
  round.unicast.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitWriter& writer = round.unicast[v];
    writer.writeUInt(message.rho[v], idBits);
    writer.writeUInt(message.parent[v], idBits);
    writer.writeUInt(message.dist[v], idBits);
    for (graph::Vertex image : message.claims[v]) writer.writeUInt(image, idBits);
  }
  return round;
}

SymInputFirstMessage decodeSymInputFirst(const EncodedRound& round,
                                         const SymInputInstance& instance) {
  const std::size_t n = instance.network.numVertices();
  const unsigned idBits = util::bitsFor(n);
  requireUnicastCount(round, n);

  SymInputFirstMessage message;
  util::BitReader broadcast(round.broadcast);
  graph::Vertex witness = static_cast<graph::Vertex>(broadcast.readUInt(idBits));
  message.witnessPerNode.assign(n, witness);
  message.rho.resize(n);
  message.parent.resize(n);
  message.dist.resize(n);
  message.claims.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitReader reader(round.unicast[v]);
    message.rho[v] = static_cast<graph::Vertex>(reader.readUInt(idBits));
    message.parent[v] = static_cast<graph::Vertex>(reader.readUInt(idBits));
    message.dist[v] = static_cast<std::uint32_t>(reader.readUInt(idBits));
    const std::size_t claimCount = instance.input.degree(v) + 1;
    message.claims[v].reserve(claimCount);
    for (std::size_t i = 0; i < claimCount; ++i) {
      message.claims[v].push_back(static_cast<graph::Vertex>(reader.readUInt(idBits)));
    }
  }
  return message;
}

EncodedRound encodeSymInputSecond(const SymInputSecondMessage& message, std::size_t n,
                                  const hash::LinearHashFamily& family) {
  if (n == 0) throw std::invalid_argument("encodeSymInputSecond: empty round");
  if (message.indexPerNode.size() != n || message.a.size() != n ||
      message.b.size() != n || message.consC.size() != n ||
      message.consT.size() != n) {
    throw std::invalid_argument("encodeSymInputSecond: wrong per-node count");
  }
  if (!message.indexPerNode.uniform()) {
    throw std::invalid_argument("encodeSymInputSecond: inconsistent index echo");
  }

  EncodedRound round;
  round.broadcast.writeBig(message.indexPerNode[0], family.seedBits());
  round.unicast.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitWriter& writer = round.unicast[v];
    writer.writeBig(message.a[v], family.valueBits());
    writer.writeBig(message.b[v], family.valueBits());
    writer.writeBig(message.consC[v], family.valueBits());
    writer.writeBig(message.consT[v], family.valueBits());
  }
  return round;
}

SymInputSecondMessage decodeSymInputSecond(const EncodedRound& round, std::size_t n,
                                           const hash::LinearHashFamily& family) {
  requireUnicastCount(round, n);
  SymInputSecondMessage message;
  util::BitReader broadcast(round.broadcast);
  message.indexPerNode.assign(n, broadcast.readBig(family.seedBits()));
  message.a.resize(n);
  message.b.resize(n);
  message.consC.resize(n);
  message.consT.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitReader reader(round.unicast[v]);
    message.a[v] = reader.readBig(family.valueBits());
    message.b[v] = reader.readBig(family.valueBits());
    message.consC[v] = reader.readBig(family.valueBits());
    message.consT[v] = reader.readBig(family.valueBits());
  }
  return message;
}

}  // namespace dip::core::wire
