#include "core/gni_wire.hpp"

#include <stdexcept>

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

util::BitWriter encodeGniChallenges(const std::vector<GniChallenge>& challenges,
                                    const GniParams& params) {
  return encodeGniChallenges(challenges, params.gsHash, params.ell);
}

std::vector<GniChallenge> decodeGniChallenges(const util::BitWriter& encoded,
                                              const GniParams& params) {
  return decodeGniChallenges(encoded, params.gsHash, params.ell, params.repetitions);
}

EncodedRound encodeGniFirst(const GniFirstMessage& message, const GniInstance& instance,
                            const GniParams& params) {
  const std::size_t n = instance.g0.numVertices();
  const unsigned idBits = util::bitsFor(n);
  const std::size_t fieldBits = params.gsHash.innerValueBits();
  if (n == 0 || message.perNode.size() != n) {
    throw std::invalid_argument("encodeGniFirst: wrong per-node count");
  }
  const GniM1PerNode& reference = message.perNode[0];
  for (graph::Vertex v = 0; v < n; ++v) {
    const GniM1PerNode& m1 = message.perNode[v];
    if (m1.root != reference.root || m1.echo != reference.echo ||
        m1.claimed != reference.claimed || m1.b != reference.b) {
      throw std::invalid_argument("encodeGniFirst: inconsistent broadcast fields");
    }
  }

  if (reference.echo.size() != params.repetitions ||
      reference.claimed.size() != params.repetitions ||
      reference.b.size() != params.repetitions) {
    throw std::invalid_argument("encodeGniFirst: wrong broadcast repetition count");
  }

  EncodedRound round;
  round.broadcast.writeUInt(reference.root, idBits);
  for (std::size_t j = 0; j < params.repetitions; ++j) {
    writeSeed(round.broadcast, reference.echo[j].seed, fieldBits);
    round.broadcast.writeBig(reference.echo[j].y, params.ell);
    round.broadcast.writeBit(reference.claimed[j]);
    round.broadcast.writeBit(reference.b[j]);
  }
  round.unicast.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    const GniM1PerNode& m1 = message.perNode[v];
    if (m1.s.size() != params.repetitions || m1.claims.size() != params.repetitions) {
      throw std::invalid_argument("encodeGniFirst: wrong per-repetition count");
    }
    util::BitWriter& writer = round.unicast[v];
    writer.writeUInt(m1.parent, idBits);
    writer.writeUInt(m1.dist, idBits);
    for (std::size_t j = 0; j < params.repetitions; ++j) {
      writer.writeUInt(m1.s[j], idBits);
      if (reference.claimed[j] && reference.b[j] == 1) {
        // Claim count is determined by the node's closed G1 neighborhood.
        for (graph::Vertex image : m1.claims[j]) writer.writeUInt(image, idBits);
      }
    }
  }
  return round;
}

GniFirstMessage decodeGniFirst(const EncodedRound& round, const GniInstance& instance,
                               const GniParams& params) {
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

  GniFirstMessage message;
  message.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    GniM1PerNode& m1 = message.perNode[v];
    m1.root = root;
    m1.echo = echo;
    m1.claimed = claimed;
    m1.b = b;
    util::BitReader reader(round.unicast[v]);
    m1.parent = static_cast<graph::Vertex>(reader.readUInt(idBits));
    m1.dist = static_cast<std::uint32_t>(reader.readUInt(idBits));
    m1.s.resize(k);
    m1.claims.resize(k);
    const std::size_t claimCount = instance.g1.degree(v) + 1;
    for (std::size_t j = 0; j < k; ++j) {
      m1.s[j] = static_cast<graph::Vertex>(reader.readUInt(idBits));
      if (claimed[j] && b[j] == 1) {
        for (std::size_t i = 0; i < claimCount; ++i) {
          m1.claims[j].push_back(static_cast<graph::Vertex>(reader.readUInt(idBits)));
        }
      }
    }
  }
  return message;
}

EncodedRound encodeGniSecond(const GniSecondMessage& message,
                             const GniFirstMessage& first, const GniInstance& instance,
                             const GniParams& params) {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t innerBits = params.gsHash.innerValueBits();
  const std::size_t checkBits = params.checkFamily.seedBits();
  if (n == 0 || message.perNode.size() != n || first.perNode.size() != n) {
    throw std::invalid_argument("encodeGniSecond: wrong per-node count");
  }
  const GniM1PerNode& flags = first.perNode[0];
  if (flags.claimed.size() != params.repetitions || flags.b.size() != params.repetitions) {
    throw std::invalid_argument("wire: wrong M1 flag repetition count");
  }

  for (graph::Vertex v = 0; v < n; ++v) {
    if (!(message.perNode[v].checkSeed == message.perNode[0].checkSeed)) {
      throw std::invalid_argument("encodeGniSecond: inconsistent check seed");
    }
  }

  EncodedRound round;
  round.broadcast.writeBig(message.perNode[0].checkSeed, checkBits);
  round.unicast.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    const GniM2PerNode& m2 = message.perNode[v];
    if (m2.h.size() != params.repetitions || m2.permI.size() != params.repetitions ||
        m2.permS.size() != params.repetitions ||
        m2.consC.size() != params.repetitions ||
        m2.consT.size() != params.repetitions) {
      throw std::invalid_argument("encodeGniSecond: wrong per-repetition count");
    }
    util::BitWriter& writer = round.unicast[v];
    for (std::size_t j = 0; j < params.repetitions; ++j) {
      if (!flags.claimed[j]) continue;
      writer.writeBig(m2.h[j], innerBits);
      writer.writeBig(m2.permI[j], checkBits);
      writer.writeBig(m2.permS[j], checkBits);
      if (flags.b[j] == 1) {
        writer.writeBig(m2.consC[j], checkBits);
        writer.writeBig(m2.consT[j], checkBits);
      }
    }
  }
  return round;
}

GniSecondMessage decodeGniSecond(const EncodedRound& round, const GniFirstMessage& first,
                                 const GniInstance& instance, const GniParams& params) {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t innerBits = params.gsHash.innerValueBits();
  const std::size_t checkBits = params.checkFamily.seedBits();
  const std::size_t k = params.repetitions;
  requireUnicastCount(round, n);
  if (first.perNode.size() != n) {
    throw std::invalid_argument("decodeGniSecond: wrong M1 per-node count");
  }
  const GniM1PerNode& flags = first.perNode[0];
  if (flags.claimed.size() != params.repetitions || flags.b.size() != params.repetitions) {
    throw std::invalid_argument("wire: wrong M1 flag repetition count");
  }

  util::BitReader broadcast(round.broadcast);
  util::BigUInt checkSeed = broadcast.readBig(checkBits);

  GniSecondMessage message;
  message.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    GniM2PerNode& m2 = message.perNode[v];
    m2.checkSeed = checkSeed;
    m2.h.assign(k, util::BigUInt{});
    m2.permI.assign(k, util::BigUInt{});
    m2.permS.assign(k, util::BigUInt{});
    m2.consC.assign(k, util::BigUInt{});
    m2.consT.assign(k, util::BigUInt{});
    util::BitReader reader(round.unicast[v]);
    for (std::size_t j = 0; j < k; ++j) {
      if (!flags.claimed[j]) continue;
      m2.h[j] = reader.readBig(innerBits);
      m2.permI[j] = reader.readBig(checkBits);
      m2.permS[j] = reader.readBig(checkBits);
      if (flags.b[j] == 1) {
        m2.consC[j] = reader.readBig(checkBits);
        m2.consT[j] = reader.readBig(checkBits);
      }
    }
  }
  return message;
}

}  // namespace dip::core::wire
