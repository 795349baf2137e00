// The 32-bit limb packing that BigUInt::fromLimbs did before it was removed:
// little-endian 32-bit limbs, two to a 64-bit word. The old bit codec and the
// old Rng::nextBigBits built their values this way, so the differential tests
// keep it as part of their oracles.
#pragma once

#include <cstdint>
#include <vector>

#include "util/biguint.hpp"

namespace dip::testutil {

inline util::BigUInt fromLimbs32(const std::vector<std::uint32_t>& limbs) {
  std::vector<util::BigUInt::Limb> words((limbs.size() + 1) / 2, 0);
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    words[i / 2] |= static_cast<util::BigUInt::Limb>(limbs[i]) << (32 * (i & 1));
  }
  return util::BigUInt::fromWords(words);
}

}  // namespace dip::testutil
