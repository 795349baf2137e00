#include "core/wire.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace dip::core::wire {

namespace {

unsigned idBitsFor(std::size_t n) { return util::bitsFor(n); }

void requireConsistentBroadcast(bool consistent) {
  if (!consistent) {
    throw std::invalid_argument(
        "wire: broadcast fields are inconsistent; wire formats encode the "
        "honest message shape");
  }
}

void requireFieldCount(std::size_t actual, std::size_t expected, const char* what) {
  if (actual != expected) {
    throw std::invalid_argument(std::string("wire: ") + what +
                                " has wrong per-node count");
  }
}

void requireNonEmpty(std::size_t n) {
  if (n == 0) throw std::invalid_argument("wire: empty round (n must be positive)");
}

// Empty round with the requested storage backend: heap writers, or arena
// writers when the caller routes the encoding through a per-worker arena.
EncodedRound makeRound(std::size_t n, util::Arena* arena) {
  EncodedRound round;
  if (arena != nullptr) {
    // Emplaced, not copied: a copy of a writer is heap-backed.
    round.broadcast = util::BitWriter(*arena);
    round.unicast.reserve(n);
    for (std::size_t v = 0; v < n; ++v) round.unicast.emplace_back(*arena);
  } else {
    round.unicast.resize(n);
  }
  return round;
}

}  // namespace

void requireUnicastCount(const EncodedRound& round, std::size_t n) {
  if (round.unicast.size() != n) {
    throw std::invalid_argument("wire: round has wrong unicast payload count");
  }
}

// ---- Protocol 1 ----

EncodedRound encodeSymDmamFirst(const SymDmamFirstMessage& message, std::size_t n,
                                util::Arena* arena) {
  const unsigned idBits = idBitsFor(n);
  requireNonEmpty(n);
  requireFieldCount(message.rootPerNode.size(), n, "rootPerNode");
  requireFieldCount(message.rho.size(), n, "rho");
  requireFieldCount(message.parent.size(), n, "parent");
  requireFieldCount(message.dist.size(), n, "dist");
  requireConsistentBroadcast(message.rootPerNode.uniform());
  EncodedRound round = makeRound(n, arena);

  round.broadcast.writeUInt(message.rootPerNode[0], idBits);
  for (graph::Vertex v = 0; v < n; ++v) {
    round.unicast[v].writeUInt(message.rho[v], idBits);
    round.unicast[v].writeUInt(message.parent[v], idBits);
    round.unicast[v].writeUInt(message.dist[v], idBits);
  }
  return round;
}

SymDmamFirstMessage decodeSymDmamFirst(const EncodedRound& round, std::size_t n) {
  const unsigned idBits = idBitsFor(n);
  requireUnicastCount(round, n);
  SymDmamFirstMessage message;
  util::BitReader broadcast(round.broadcast);
  graph::Vertex root = static_cast<graph::Vertex>(broadcast.readUInt(idBits));
  message.rootPerNode.assign(n, root);
  message.rho.resize(n);
  message.parent.resize(n);
  message.dist.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitReader reader(round.unicast[v]);
    message.rho[v] = static_cast<graph::Vertex>(reader.readUInt(idBits));
    message.parent[v] = static_cast<graph::Vertex>(reader.readUInt(idBits));
    message.dist[v] = static_cast<std::uint32_t>(reader.readUInt(idBits));
  }
  return message;
}

EncodedRound encodeSymDmamSecond(const SymDmamSecondMessage& message, std::size_t n,
                                 const hash::LinearHashFamily& family,
                                 util::Arena* arena) {
  requireNonEmpty(n);
  requireFieldCount(message.indexPerNode.size(), n, "indexPerNode");
  requireFieldCount(message.a.size(), n, "a");
  requireFieldCount(message.b.size(), n, "b");
  requireConsistentBroadcast(message.indexPerNode.uniform());
  EncodedRound round = makeRound(n, arena);

  round.broadcast.writeBig(message.indexPerNode[0], family.seedBits());
  for (graph::Vertex v = 0; v < n; ++v) {
    round.unicast[v].writeBig(message.a[v], family.valueBits());
    round.unicast[v].writeBig(message.b[v], family.valueBits());
  }
  return round;
}

SymDmamSecondMessage decodeSymDmamSecond(const EncodedRound& round, std::size_t n,
                                         const hash::LinearHashFamily& family) {
  requireUnicastCount(round, n);
  SymDmamSecondMessage message;
  util::BitReader broadcast(round.broadcast);
  message.indexPerNode.assign(n, broadcast.readBig(family.seedBits()));
  message.a.resize(n);
  message.b.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitReader reader(round.unicast[v]);
    message.a[v] = reader.readBig(family.valueBits());
    message.b[v] = reader.readBig(family.valueBits());
  }
  return message;
}

// ---- Protocol 2 ----

EncodedRound encodeSymDam(const SymDamMessage& message, std::size_t n,
                          const hash::LinearHashFamily& family, util::Arena* arena) {
  const unsigned idBits = idBitsFor(n);
  requireNonEmpty(n);
  requireFieldCount(message.rhoPerNode.size(), n, "rhoPerNode");
  requireFieldCount(message.indexPerNode.size(), n, "indexPerNode");
  requireFieldCount(message.rootPerNode.size(), n, "rootPerNode");
  requireFieldCount(message.parent.size(), n, "parent");
  requireFieldCount(message.dist.size(), n, "dist");
  requireFieldCount(message.a.size(), n, "a");
  requireFieldCount(message.b.size(), n, "b");
  requireFieldCount(message.rhoPerNode[0].size(), n, "rhoPerNode[0]");
  requireConsistentBroadcast(message.rhoPerNode.uniform() &&
                             message.indexPerNode.uniform() &&
                             message.rootPerNode.uniform());
  EncodedRound round = makeRound(n, arena);

  for (graph::Vertex image : message.rhoPerNode[0]) {
    round.broadcast.writeUInt(image, idBits);
  }
  round.broadcast.writeBig(message.indexPerNode[0], family.seedBits());
  round.broadcast.writeUInt(message.rootPerNode[0], idBits);
  for (graph::Vertex v = 0; v < n; ++v) {
    round.unicast[v].writeUInt(message.parent[v], idBits);
    round.unicast[v].writeUInt(message.dist[v], idBits);
    round.unicast[v].writeBig(message.a[v], family.valueBits());
    round.unicast[v].writeBig(message.b[v], family.valueBits());
  }
  return round;
}

SymDamMessage decodeSymDam(const EncodedRound& round, std::size_t n,
                           const hash::LinearHashFamily& family) {
  const unsigned idBits = idBitsFor(n);
  requireUnicastCount(round, n);
  SymDamMessage message;
  util::BitReader broadcast(round.broadcast);
  std::vector<graph::Vertex> rho(n);
  for (graph::Vertex& image : rho) {
    image = static_cast<graph::Vertex>(broadcast.readUInt(idBits));
  }
  message.rhoPerNode.assign(n, std::move(rho));
  message.indexPerNode.assign(n, broadcast.readBig(family.seedBits()));
  message.rootPerNode.assign(
      n, static_cast<graph::Vertex>(broadcast.readUInt(idBits)));
  message.parent.resize(n);
  message.dist.resize(n);
  message.a.resize(n);
  message.b.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitReader reader(round.unicast[v]);
    message.parent[v] = static_cast<graph::Vertex>(reader.readUInt(idBits));
    message.dist[v] = static_cast<std::uint32_t>(reader.readUInt(idBits));
    message.a[v] = reader.readBig(family.valueBits());
    message.b[v] = reader.readBig(family.valueBits());
  }
  return message;
}

// ---- DSym ----

EncodedRound encodeDSym(const DSymMessage& message, std::size_t n,
                        const hash::LinearHashFamily& family, util::Arena* arena) {
  const unsigned idBits = idBitsFor(n);
  requireNonEmpty(n);
  requireFieldCount(message.indexPerNode.size(), n, "indexPerNode");
  requireFieldCount(message.rootPerNode.size(), n, "rootPerNode");
  requireFieldCount(message.parent.size(), n, "parent");
  requireFieldCount(message.dist.size(), n, "dist");
  requireFieldCount(message.a.size(), n, "a");
  requireFieldCount(message.b.size(), n, "b");
  requireConsistentBroadcast(message.indexPerNode.uniform() &&
                             message.rootPerNode.uniform());
  EncodedRound round = makeRound(n, arena);

  round.broadcast.writeBig(message.indexPerNode[0], family.seedBits());
  round.broadcast.writeUInt(message.rootPerNode[0], idBits);
  for (graph::Vertex v = 0; v < n; ++v) {
    round.unicast[v].writeUInt(message.parent[v], idBits);
    round.unicast[v].writeUInt(message.dist[v], idBits);
    round.unicast[v].writeBig(message.a[v], family.valueBits());
    round.unicast[v].writeBig(message.b[v], family.valueBits());
  }
  return round;
}

DSymMessage decodeDSym(const EncodedRound& round, std::size_t n,
                       const hash::LinearHashFamily& family) {
  const unsigned idBits = idBitsFor(n);
  requireUnicastCount(round, n);
  DSymMessage message;
  util::BitReader broadcast(round.broadcast);
  message.indexPerNode.assign(n, broadcast.readBig(family.seedBits()));
  message.rootPerNode.assign(
      n, static_cast<graph::Vertex>(broadcast.readUInt(idBits)));
  message.parent.resize(n);
  message.dist.resize(n);
  message.a.resize(n);
  message.b.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitReader reader(round.unicast[v]);
    message.parent[v] = static_cast<graph::Vertex>(reader.readUInt(idBits));
    message.dist[v] = static_cast<std::uint32_t>(reader.readUInt(idBits));
    message.a[v] = reader.readBig(family.valueBits());
    message.b[v] = reader.readBig(family.valueBits());
  }
  return message;
}

// ---- Challenges ----

util::BitWriter encodeChallenge(const util::BigUInt& index,
                                const hash::LinearHashFamily& family,
                                util::Arena* arena) {
  util::BitWriter writer = arena ? util::BitWriter(*arena) : util::BitWriter();
  writer.writeBig(index, family.seedBits());
  return writer;
}

util::BigUInt decodeChallenge(const util::BitWriter& encoded,
                              const hash::LinearHashFamily& family) {
  util::BitReader reader(encoded);
  return reader.readBig(family.seedBits());
}

}  // namespace dip::core::wire
