// Wire formats: bit-exact serialization of protocol messages.
//
// Transcripts charge each message its encoded size; this module supplies
// the actual encodings, so the charged numbers are backed by real byte
// streams (tests verify round trips and that encoded lengths equal the
// charged bit counts). Wire formats describe the honest/consistent message
// shape: each broadcast field is encoded once. In memory a broadcast is a
// core::Broadcast, one common value plus per-node overrides, so adversarial
// provers can still attempt inconsistent broadcasts; an encoder checks that
// the broadcast is uniform and refuses one with disagreeing overrides, so
// such a message never reaches a wire. Decoders return uniform broadcasts.
#pragma once

#include <cstddef>
#include <vector>

#include "core/dsym_dam.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_frame.hpp"
#include "util/bitio.hpp"

namespace dip::core::wire {

// A fully encoded prover round: one broadcast payload plus one unicast
// payload per node.
//
// Every encoder takes an optional util::Arena: when given, all payload
// bytes bump-allocate from it (see BitWriter's arena backend) so the
// audit-mode re-encoding inside a trial costs no heap traffic; the round
// must then be dropped before the arena resets. With no arena the payloads
// own heap storage and the round is freestanding.
struct EncodedRound {
  util::BitWriter broadcast;
  std::vector<util::BitWriter> unicast;

  std::size_t broadcastBits() const { return broadcast.bitCount(); }
  std::size_t unicastBits(graph::Vertex v) const { return unicast.at(v).bitCount(); }
  // Bits a single node receives: the broadcast plus its own unicast share.
  std::size_t bitsForNode(graph::Vertex v) const {
    return broadcastBits() + unicastBits(v);
  }
};

// Decoder-side shape check: throws std::invalid_argument unless the round
// carries exactly one unicast payload per node. Every decoder calls this
// before indexing, so a malformed round fails cleanly instead of reading
// out of bounds (BitReader bounds-checks the payloads themselves).
void requireUnicastCount(const EncodedRound& round, std::size_t n);

// ---- The Sym messages (core/sym_frame.hpp) ----

// Any Sym message, walking its field table: the broadcast payload holds its
// broadcast fields in wire order, node v's unicast payload its unicast
// fields' entries at v. The encoder throws std::invalid_argument for
// n == 0, a field without one entry per node, a non-uniform broadcast, a
// mapping without n entries or a claim list without deg_H(v) + 1 entries.
template <typename Message>
EncodedRound encodeSym(const Message& message, const SymShape& shape,
                       util::Arena* arena = nullptr);
template <typename Message>
Message decodeSym(const EncodedRound& round, const SymShape& shape);

// The same codecs under their protocols' names.

// Protocol 1 (dMAM).
EncodedRound encodeSymDmamFirst(const SymDmamFirstMessage& message, std::size_t n,
                                util::Arena* arena = nullptr);
SymDmamFirstMessage decodeSymDmamFirst(const EncodedRound& round, std::size_t n);

EncodedRound encodeSymDmamSecond(const SymDmamSecondMessage& message, std::size_t n,
                                 const hash::LinearHashFamily& family,
                                 util::Arena* arena = nullptr);
SymDmamSecondMessage decodeSymDmamSecond(const EncodedRound& round, std::size_t n,
                                         const hash::LinearHashFamily& family);

// Protocol 2 (dAM).
EncodedRound encodeSymDam(const SymDamMessage& message, std::size_t n,
                          const hash::LinearHashFamily& family,
                          util::Arena* arena = nullptr);
SymDamMessage decodeSymDam(const EncodedRound& round, std::size_t n,
                           const hash::LinearHashFamily& family);

// DSym (dAM).
EncodedRound encodeDSym(const DSymMessage& message, std::size_t n,
                        const hash::LinearHashFamily& family,
                        util::Arena* arena = nullptr);
DSymMessage decodeDSym(const EncodedRound& round, std::size_t n,
                       const hash::LinearHashFamily& family);

// ---- Challenges (verifier -> prover) ----

// Encodes one node's hash-index challenge; exactly family.seedBits() bits.
util::BitWriter encodeChallenge(const util::BigUInt& index,
                                const hash::LinearHashFamily& family,
                                util::Arena* arena = nullptr);
util::BigUInt decodeChallenge(const util::BitWriter& encoded,
                              const hash::LinearHashFamily& family);

}  // namespace dip::core::wire
