#include "core/wire.hpp"

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/sym_input_wire.hpp"

namespace dip::core::wire {

namespace {

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

// ---- The Sym messages ----

namespace {

// One entry of a field at its width: an id or distance, a hash-domain value,
// or a list of ids (a whole mapping, a claim list) of `count` entries.
template <typename Entry>
void writeEntry(util::BitWriter& writer, const Entry& entry, std::size_t bits) {
  if constexpr (std::is_same_v<Entry, util::BigUInt>) {
    writer.writeBig(entry, bits);
  } else if constexpr (std::is_same_v<Entry, std::vector<graph::Vertex>>) {
    for (graph::Vertex id : entry) writer.writeUInt(id, static_cast<unsigned>(bits));
  } else {
    writer.writeUInt(entry, static_cast<unsigned>(bits));
  }
}

template <typename Entry>
Entry readEntry(util::BitReader& reader, std::size_t bits, std::size_t count) {
  if constexpr (std::is_same_v<Entry, util::BigUInt>) {
    return reader.readBig(bits);
  } else if constexpr (std::is_same_v<Entry, std::vector<graph::Vertex>>) {
    Entry ids(count);
    for (graph::Vertex& id : ids) {
      id = static_cast<graph::Vertex>(reader.readUInt(static_cast<unsigned>(bits)));
    }
    return ids;
  } else {
    return static_cast<Entry>(reader.readUInt(static_cast<unsigned>(bits)));
  }
}

// Does the entry hold `count` values? A list holds its size, anything
// else one value.
template <typename Entry>
bool holdsCount(const Entry& entry, std::size_t count) {
  if constexpr (std::is_same_v<Entry, std::vector<graph::Vertex>>) {
    return entry.size() == count;
  } else {
    return count == 1;
  }
}

void requireEntryCount(bool matches) {
  if (!matches) {
    throw std::invalid_argument("wire: a mapping or claim list has the wrong entry count");
  }
}

SymShape idShape(std::size_t n) { return {n, {util::bitsFor(n), 0, 0}, nullptr}; }

}  // namespace

template <typename Message>
EncodedRound encodeSym(const Message& message, const SymShape& shape, util::Arena* arena) {
  const std::size_t n = shape.n;
  requireNonEmpty(n);
  bool uniform = true;
  forEachField<Message>([&](const auto& field) {
    const auto& value = message.*field.member;
    requireFieldCount(value.size(), n, "message field");
    if constexpr (std::decay_t<decltype(field)>::kBroadcast) {
      uniform = uniform && value.uniform();
      requireEntryCount(holdsCount(value[0], shape.countAt(field.count, 0)));
    } else {
      for (graph::Vertex v = 0; v < n; ++v) {
        requireEntryCount(holdsCount(value[v], shape.countAt(field.count, v)));
      }
    }
  });
  requireConsistentBroadcast(uniform);

  EncodedRound round = makeRound(n, arena);
  forEachField<Message>([&](const auto& field) {
    if constexpr (std::decay_t<decltype(field)>::kBroadcast) {
      writeEntry(round.broadcast, (message.*field.member)[0], bitsOf(field.width, shape.widths));
    }
  });
  for (graph::Vertex v = 0; v < n; ++v) {
    forEachField<Message>([&](const auto& field) {
      if constexpr (!std::decay_t<decltype(field)>::kBroadcast) {
        writeEntry(round.unicast[v], (message.*field.member)[v],
                   bitsOf(field.width, shape.widths));
      }
    });
  }
  return round;
}

template <typename Message>
Message decodeSym(const EncodedRound& round, const SymShape& shape) {
  const std::size_t n = shape.n;
  requireUnicastCount(round, n);
  Message message;
  util::BitReader broadcast(round.broadcast);
  forEachField<Message>([&](const auto& field) {
    auto& value = message.*field.member;
    if constexpr (std::decay_t<decltype(field)>::kBroadcast) {
      using Entry = std::decay_t<decltype(value[0])>;
      value.assign(n, readEntry<Entry>(broadcast, bitsOf(field.width, shape.widths),
                                       shape.countAt(field.count, 0)));
    } else {
      value.resize(n);
    }
  });
  for (graph::Vertex v = 0; v < n; ++v) {
    util::BitReader reader(round.unicast[v]);
    forEachField<Message>([&](const auto& field) {
      if constexpr (!std::decay_t<decltype(field)>::kBroadcast) {
        auto& value = message.*field.member;
        using Entry = typename std::decay_t<decltype(value)>::value_type;
        value[v] = readEntry<Entry>(reader, bitsOf(field.width, shape.widths),
                                    shape.countAt(field.count, v));
      }
    });
  }
  return message;
}

#define DIP_SYM_CODEC(Message)                                                        \
  template EncodedRound encodeSym(const Message&, const SymShape&, util::Arena*); \
  template Message decodeSym<Message>(const EncodedRound&, const SymShape&)
DIP_SYM_CODEC(SymDmamFirstMessage);
DIP_SYM_CODEC(SymDmamSecondMessage);
DIP_SYM_CODEC(SymDamMessage);
DIP_SYM_CODEC(DSymMessage);
DIP_SYM_CODEC(SymInputFirstMessage);
DIP_SYM_CODEC(SymInputSecondMessage);
#undef DIP_SYM_CODEC

EncodedRound encodeSymDmamFirst(const SymDmamFirstMessage& message, std::size_t n,
                                util::Arena* arena) {
  return encodeSym(message, idShape(n), arena);
}

SymDmamFirstMessage decodeSymDmamFirst(const EncodedRound& round, std::size_t n) {
  return decodeSym<SymDmamFirstMessage>(round, idShape(n));
}

EncodedRound encodeSymDmamSecond(const SymDmamSecondMessage& message, std::size_t n,
                                 const hash::LinearHashFamily& family, util::Arena* arena) {
  return encodeSym(message, {n, symWidths(family, n)}, arena);
}

SymDmamSecondMessage decodeSymDmamSecond(const EncodedRound& round, std::size_t n,
                                         const hash::LinearHashFamily& family) {
  return decodeSym<SymDmamSecondMessage>(round, {n, symWidths(family, n)});
}

EncodedRound encodeSymDam(const SymDamMessage& message, std::size_t n,
                          const hash::LinearHashFamily& family, util::Arena* arena) {
  return encodeSym(message, {n, symWidths(family, n)}, arena);
}

SymDamMessage decodeSymDam(const EncodedRound& round, std::size_t n,
                           const hash::LinearHashFamily& family) {
  return decodeSym<SymDamMessage>(round, {n, symWidths(family, n)});
}

EncodedRound encodeDSym(const DSymMessage& message, std::size_t n,
                        const hash::LinearHashFamily& family, util::Arena* arena) {
  return encodeSym(message, {n, symWidths(family, n)}, arena);
}

DSymMessage decodeDSym(const EncodedRound& round, std::size_t n,
                       const hash::LinearHashFamily& family) {
  return decodeSym<DSymMessage>(round, {n, symWidths(family, n)});
}

EncodedRound encodeSymInputFirst(const SymInputFirstMessage& message,
                                 const SymInputInstance& instance, util::Arena* arena) {
  const std::size_t n = instance.network.numVertices();
  return encodeSym(message, {n, idShape(n).widths, &instance.input}, arena);
}

SymInputFirstMessage decodeSymInputFirst(const EncodedRound& round,
                                         const SymInputInstance& instance) {
  const std::size_t n = instance.network.numVertices();
  return decodeSym<SymInputFirstMessage>(round, {n, idShape(n).widths, &instance.input});
}

EncodedRound encodeSymInputSecond(const SymInputSecondMessage& message, std::size_t n,
                                  const hash::LinearHashFamily& family, util::Arena* arena) {
  return encodeSym(message, {n, symWidths(family, n)}, arena);
}

SymInputSecondMessage decodeSymInputSecond(const EncodedRound& round, std::size_t n,
                                           const hash::LinearHashFamily& family) {
  return decodeSym<SymInputSecondMessage>(round, {n, symWidths(family, n)});
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
