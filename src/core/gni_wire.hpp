// Wire formats for the GNI dAMAM protocol messages (honest/consistent
// shape), completing the bit-exact serialization story: challenges, the M1
// commitment round and the M2 chain round all round-trip through real byte
// streams whose lengths match the transcript charges.
#pragma once

#include "core/gni_amam.hpp"
#include "core/wire.hpp"

namespace dip::core::wire {

// One node's A1 challenge block (k repetitions of seed + target). The
// (gsHash, ell) overloads serve any Goldwasser-Sipser-style parameter set
// (the rigid dAMAM protocol and the general-graph variant alike). With an
// arena the block's bytes bump-allocate from it (see core/wire.hpp).
util::BitWriter encodeGniChallenges(const std::vector<GniChallenge>& challenges,
                                    const hash::EpsApiHash& gsHash, std::size_t ell,
                                    util::Arena* arena = nullptr);
std::vector<GniChallenge> decodeGniChallenges(const util::BitWriter& encoded,
                                              const hash::EpsApiHash& gsHash,
                                              std::size_t ell, std::size_t repetitions);
util::BitWriter encodeGniChallenges(const std::vector<GniChallenge>& challenges,
                                    const GniParams& params);
std::vector<GniChallenge> decodeGniChallenges(const util::BitWriter& encoded,
                                              const GniParams& params);

// M1: broadcast = root + echo + claimed/b bits; unicast = tree + s values +
// claims for claimed b=1 repetitions.
EncodedRound encodeGniFirst(const GniFirstMessage& message, const GniInstance& instance,
                            const GniParams& params);
GniFirstMessage decodeGniFirst(const EncodedRound& round, const GniInstance& instance,
                               const GniParams& params);

// M2: broadcast = check-seed echo; unicast = per-claimed-repetition chains.
// Decoding needs M1 (claimed/b flags decide which fields are present).
EncodedRound encodeGniSecond(const GniSecondMessage& message,
                             const GniFirstMessage& first, const GniInstance& instance,
                             const GniParams& params);
GniSecondMessage decodeGniSecond(const EncodedRound& round, const GniFirstMessage& first,
                                 const GniInstance& instance, const GniParams& params);

}  // namespace dip::core::wire
