// Wire formats for the GNI dAMAM protocol messages (honest/consistent
// shape), completing the bit-exact serialization story: challenges, the M1
// commitment round and the M2 chain round all round-trip through real byte
// streams whose lengths match the transcript charges.
//
// The M1/M2 codecs are the Goldwasser-Sipser frame's (core/gni_frame.hpp):
// one definition per round, templated over the shape and deduced from the
// params, whose tables give the field order. The general shape's names are
// in gni_general_wire.hpp.
#pragma once

#include "core/gni_amam.hpp"
#include "core/wire.hpp"

namespace dip::core::wire {

// One node's A1 challenge block (k repetitions of seed + target). The
// (gsHash, ell) form serves any Goldwasser-Sipser parameter set. With an
// arena the block's bytes bump-allocate from it (see core/wire.hpp).
util::BitWriter encodeGniChallenges(const std::vector<GniChallenge>& challenges,
                                    const hash::EpsApiHash& gsHash, std::size_t ell,
                                    util::Arena* arena = nullptr);
std::vector<GniChallenge> decodeGniChallenges(const util::BitWriter& encoded,
                                              const hash::EpsApiHash& gsHash,
                                              std::size_t ell, std::size_t repetitions);
template <typename Shape>
util::BitWriter encodeGniChallenges(const std::vector<GniChallenge>& challenges,
                                    const GsParams<Shape>& params) {
  return encodeGniChallenges(challenges, params.gsHash, params.ell);
}
template <typename Shape>
std::vector<GniChallenge> decodeGniChallenges(const util::BitWriter& encoded,
                                              const GsParams<Shape>& params) {
  return decodeGniChallenges(encoded, params.gsHash, params.ell, params.repetitions);
}

// M1: broadcast = root + echo + claimed/b bits; unicast = tree + the
// committed values per repetition + the claims of claimed b=1 repetitions
// (kCommitted, then kClaims order).
template <typename Shape>
EncodedRound encodeGniFirst(const typename Shape::First& message, const GniInstance& instance,
                            const GsParams<Shape>& params);
template <typename Shape>
typename Shape::First decodeGniFirst(const EncodedRound& round, const GniInstance& instance,
                                     const GsParams<Shape>& params);

// M2: broadcast = check-seed echo; unicast = per-claimed-repetition chains
// (gsChains order, the b=1 chains where b = 1). Decoding needs M1 (the
// claimed/b flags decide which fields are present).
template <typename Shape>
EncodedRound encodeGniSecond(const typename Shape::Second& message,
                             const typename Shape::First& first, const GniInstance& instance,
                             const GsParams<Shape>& params);
template <typename Shape>
typename Shape::Second decodeGniSecond(const EncodedRound& round,
                                       const typename Shape::First& first,
                                       const GniInstance& instance,
                                       const GsParams<Shape>& params);

}  // namespace dip::core::wire
