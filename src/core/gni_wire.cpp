#include "core/gni_wire.hpp"

#include <stdexcept>

#include "core/gni_general.hpp"

namespace dip::core::wire {

namespace {

void writeSeed(util::BitWriter& writer, const hash::EpsApiHash::Seed& seed,
               std::size_t fieldBits) {
  writer.writeBig(seed.a, fieldBits);
  writer.writeBig(seed.alpha, fieldBits);
  writer.writeBig(seed.beta, fieldBits);
}

hash::EpsApiHash::Seed readSeed(util::BitReader& reader, std::size_t fieldBits) {
  hash::EpsApiHash::Seed seed;
  seed.a = reader.readBig(fieldBits);
  seed.alpha = reader.readBig(fieldBits);
  seed.beta = reader.readBig(fieldBits);
  return seed;
}

}  // namespace

util::BitWriter encodeGniChallenges(const std::vector<GniChallenge>& challenges,
                                    const hash::EpsApiHash& gsHash, std::size_t ell,
                                    util::Arena* arena) {
  const std::size_t fieldBits = gsHash.innerValueBits();
  util::BitWriter writer = arena ? util::BitWriter(*arena) : util::BitWriter();
  for (const GniChallenge& challenge : challenges) {
    writeSeed(writer, challenge.seed, fieldBits);
    writer.writeBig(challenge.y, ell);
  }
  return writer;
}

std::vector<GniChallenge> decodeGniChallenges(const util::BitWriter& encoded,
                                              const hash::EpsApiHash& gsHash,
                                              std::size_t ell, std::size_t repetitions) {
  const std::size_t fieldBits = gsHash.innerValueBits();
  util::BitReader reader(encoded);
  std::vector<GniChallenge> challenges;
  challenges.reserve(repetitions);
  for (std::size_t j = 0; j < repetitions; ++j) {
    GniChallenge challenge;
    challenge.seed = readSeed(reader, fieldBits);
    challenge.y = reader.readBig(ell);
    challenges.push_back(std::move(challenge));
  }
  return challenges;
}

template <typename Shape>
EncodedRound encodeGniFirst(const typename Shape::First& message, const GniInstance& instance,
                            const GsParams<Shape>& params) {
  const std::size_t n = instance.g0.numVertices();
  const unsigned idBits = util::bitsFor(n);
  const std::size_t fieldBits = params.gsHash.innerValueBits();
  const std::size_t k = params.repetitions;
  if (n == 0 || message.perNode.size() != n) {
    throw std::invalid_argument("encodeGniFirst: wrong per-node count");
  }
  const typename Shape::M1& reference = message.perNode[0];
  for (graph::Vertex v = 0; v < n; ++v) {
    const typename Shape::M1& m1 = message.perNode[v];
    if (m1.root != reference.root || m1.echo != reference.echo ||
        m1.claimed != reference.claimed || m1.b != reference.b) {
      throw std::invalid_argument("encodeGniFirst: inconsistent broadcast fields");
    }
  }
  if (reference.echo.size() != k || reference.claimed.size() != k ||
      reference.b.size() != k) {
    throw std::invalid_argument("encodeGniFirst: wrong broadcast repetition count");
  }

  EncodedRound round;
  round.broadcast.writeUInt(reference.root, idBits);
  for (std::size_t j = 0; j < k; ++j) {
    writeSeed(round.broadcast, reference.echo[j].seed, fieldBits);
    round.broadcast.writeBig(reference.echo[j].y, params.ell);
    round.broadcast.writeBit(reference.claimed[j]);
    round.broadcast.writeBit(reference.b[j]);
  }
  round.unicast.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    const typename Shape::M1& m1 = message.perNode[v];
    for (auto field : Shape::kCommitted) {
      if ((m1.*field).size() != k) {
        throw std::invalid_argument("encodeGniFirst: wrong per-repetition count");
      }
    }
    for (auto field : Shape::kClaims) {
      if ((m1.*field).size() != k) {
        throw std::invalid_argument("encodeGniFirst: wrong per-repetition count");
      }
    }
    util::BitWriter& writer = round.unicast[v];
    writer.writeUInt(m1.parent, idBits);
    writer.writeUInt(m1.dist, idBits);
    for (std::size_t j = 0; j < k; ++j) {
      for (auto field : Shape::kCommitted) writer.writeUInt((m1.*field)[j], idBits);
      if (reference.claimed[j] && reference.b[j] == 1) {
        // Claim counts are determined by the node's closed G1 neighborhood.
        for (auto field : Shape::kClaims) {
          for (graph::Vertex image : (m1.*field)[j]) writer.writeUInt(image, idBits);
        }
      }
    }
  }
  return round;
}

template <typename Shape>
typename Shape::First decodeGniFirst(const EncodedRound& round, const GniInstance& instance,
                                     const GsParams<Shape>& params) {
  const std::size_t n = instance.g0.numVertices();
  const unsigned idBits = util::bitsFor(n);
  const std::size_t fieldBits = params.gsHash.innerValueBits();
  const std::size_t k = params.repetitions;
  requireUnicastCount(round, n);

  util::BitReader broadcast(round.broadcast);
  graph::Vertex root = static_cast<graph::Vertex>(broadcast.readUInt(idBits));
  std::vector<GniChallenge> echo;
  echo.reserve(k);
  std::vector<std::uint8_t> claimed(k), b(k);
  for (std::size_t j = 0; j < k; ++j) {
    GniChallenge challenge;
    challenge.seed = readSeed(broadcast, fieldBits);
    challenge.y = broadcast.readBig(params.ell);
    echo.push_back(std::move(challenge));
    claimed[j] = broadcast.readBit() ? 1 : 0;
    b[j] = broadcast.readBit() ? 1 : 0;
  }

  typename Shape::First message;
  message.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    typename Shape::M1& m1 = message.perNode[v];
    m1.root = root;
    m1.echo = echo;
    m1.claimed = claimed;
    m1.b = b;
    util::BitReader reader(round.unicast[v]);
    m1.parent = static_cast<graph::Vertex>(reader.readUInt(idBits));
    m1.dist = static_cast<std::uint32_t>(reader.readUInt(idBits));
    for (auto field : Shape::kCommitted) (m1.*field).resize(k);
    for (auto field : Shape::kClaims) (m1.*field).resize(k);
    const std::size_t claimCount = instance.g1.degree(v) + 1;
    for (std::size_t j = 0; j < k; ++j) {
      for (auto field : Shape::kCommitted) {
        (m1.*field)[j] = static_cast<graph::Vertex>(reader.readUInt(idBits));
      }
      if (claimed[j] && b[j] == 1) {
        for (auto field : Shape::kClaims) {
          for (std::size_t i = 0; i < claimCount; ++i) {
            (m1.*field)[j].push_back(static_cast<graph::Vertex>(reader.readUInt(idBits)));
          }
        }
      }
    }
  }
  return message;
}

template <typename Shape>
EncodedRound encodeGniSecond(const typename Shape::Second& message,
                             const typename Shape::First& first, const GniInstance& instance,
                             const GsParams<Shape>& params) {
  constexpr auto chains = gsChains<Shape>();
  const std::size_t n = instance.g0.numVertices();
  const std::size_t innerBits = params.gsHash.innerValueBits();
  const std::size_t checkBits = params.checkFamily.seedBits();
  const std::size_t k = params.repetitions;
  if (n == 0 || message.perNode.size() != n || first.perNode.size() != n) {
    throw std::invalid_argument("encodeGniSecond: wrong per-node count");
  }
  const typename Shape::M1& flags = first.perNode[0];
  if (flags.claimed.size() != k || flags.b.size() != k) {
    throw std::invalid_argument("wire: wrong M1 flag repetition count");
  }
  for (graph::Vertex v = 0; v < n; ++v) {
    // Every node's unicast layout follows its copy of the M1 flags; the
    // format has one layout, node 0's.
    if (first.perNode[v].claimed != flags.claimed || first.perNode[v].b != flags.b) {
      throw std::invalid_argument("encodeGniSecond: inconsistent M1 flags");
    }
    if (!(message.perNode[v].checkSeed == message.perNode[0].checkSeed)) {
      throw std::invalid_argument("encodeGniSecond: inconsistent check seed");
    }
  }

  EncodedRound round;
  round.broadcast.writeBig(message.perNode[0].checkSeed, checkBits);
  round.unicast.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    const typename Shape::M2& m2 = message.perNode[v];
    for (auto field : chains) {
      if ((m2.*field).size() != k) {
        throw std::invalid_argument("encodeGniSecond: wrong per-repetition count");
      }
    }
    util::BitWriter& writer = round.unicast[v];
    for (std::size_t j = 0; j < k; ++j) {
      if (!flags.claimed[j]) continue;
      const std::size_t count = flags.b[j] == 1 ? chains.size() : Shape::kChains.size();
      for (std::size_t c = 0; c < count; ++c) {
        writer.writeBig((m2.*chains[c])[j], c == 0 ? innerBits : checkBits);
      }
    }
  }
  return round;
}

template <typename Shape>
typename Shape::Second decodeGniSecond(const EncodedRound& round,
                                       const typename Shape::First& first,
                                       const GniInstance& instance,
                                       const GsParams<Shape>& params) {
  constexpr auto chains = gsChains<Shape>();
  const std::size_t n = instance.g0.numVertices();
  const std::size_t innerBits = params.gsHash.innerValueBits();
  const std::size_t checkBits = params.checkFamily.seedBits();
  const std::size_t k = params.repetitions;
  requireUnicastCount(round, n);
  if (first.perNode.size() != n) {
    throw std::invalid_argument("decodeGniSecond: wrong M1 per-node count");
  }
  const typename Shape::M1& flags = first.perNode[0];
  if (flags.claimed.size() != k || flags.b.size() != k) {
    throw std::invalid_argument("wire: wrong M1 flag repetition count");
  }

  util::BitReader broadcast(round.broadcast);
  util::BigUInt checkSeed = broadcast.readBig(checkBits);

  typename Shape::Second message;
  message.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    typename Shape::M2& m2 = message.perNode[v];
    m2.checkSeed = checkSeed;
    for (auto field : chains) (m2.*field).assign(k, util::BigUInt{});
    util::BitReader reader(round.unicast[v]);
    for (std::size_t j = 0; j < k; ++j) {
      if (!flags.claimed[j]) continue;
      const std::size_t count = flags.b[j] == 1 ? chains.size() : Shape::kChains.size();
      for (std::size_t c = 0; c < count; ++c) {
        (m2.*chains[c])[j] = reader.readBig(c == 0 ? innerBits : checkBits);
      }
    }
  }
  return message;
}

template EncodedRound encodeGniFirst<RigidGsShape>(const GniFirstMessage&, const GniInstance&,
                                                   const GniParams&);
template EncodedRound encodeGniFirst<GeneralGsShape>(const GniGenFirstMessage&,
                                                     const GniInstance&,
                                                     const GniGeneralParams&);
template GniFirstMessage decodeGniFirst<RigidGsShape>(const EncodedRound&, const GniInstance&,
                                                      const GniParams&);
template GniGenFirstMessage decodeGniFirst<GeneralGsShape>(const EncodedRound&,
                                                           const GniInstance&,
                                                           const GniGeneralParams&);
template EncodedRound encodeGniSecond<RigidGsShape>(const GniSecondMessage&,
                                                    const GniFirstMessage&,
                                                    const GniInstance&, const GniParams&);
template EncodedRound encodeGniSecond<GeneralGsShape>(const GniGenSecondMessage&,
                                                      const GniGenFirstMessage&,
                                                      const GniInstance&,
                                                      const GniGeneralParams&);
template GniSecondMessage decodeGniSecond<RigidGsShape>(const EncodedRound&,
                                                        const GniFirstMessage&,
                                                        const GniInstance&, const GniParams&);
template GniGenSecondMessage decodeGniSecond<GeneralGsShape>(const EncodedRound&,
                                                             const GniGenFirstMessage&,
                                                             const GniInstance&,
                                                             const GniGeneralParams&);

}  // namespace dip::core::wire
