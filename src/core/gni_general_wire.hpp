// Wire formats for the general-graph GNI dAMAM protocol: the frame's codecs
// (gni_wire.hpp) at the general shape. Per repetition the prover unicasts
// both sigma(v) and alpha(sigma(v)), and M2 carries the five
// permutation/automorphism chains plus four b=1 consistency chains.
#pragma once

#include "core/gni_general.hpp"
#include "core/gni_wire.hpp"

namespace dip::core::wire {

inline constexpr auto& encodeGniGenFirst = encodeGniFirst<GeneralGsShape>;
inline constexpr auto& decodeGniGenFirst = decodeGniFirst<GeneralGsShape>;
inline constexpr auto& encodeGniGenSecond = encodeGniSecond<GeneralGsShape>;
inline constexpr auto& decodeGniGenSecond = decodeGniSecond<GeneralGsShape>;

}  // namespace dip::core::wire
