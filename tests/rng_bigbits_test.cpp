// Rng::nextBigBits packs its 32-bit draws straight into the BigUInt's limbs.
// The oracle below is the construction it replaced: a vector<uint32_t> of
// draws, the top one masked, packed two to a 64-bit limb. Every challenge in
// the protocols is drawn through these two calls, so the values AND the
// generator state after each call must match for every width.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "limbs32.hpp"
#include "util/biguint.hpp"
#include "util/rng.hpp"

namespace dip::util {
namespace {

BigUInt oracleBigBits(Rng& rng, std::size_t bits) {
  std::vector<std::uint32_t> limbs((bits + 31) / 32, 0);
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    limbs[i] = static_cast<std::uint32_t>(rng.nextU64());
  }
  unsigned topBits = static_cast<unsigned>(bits % 32);
  if (topBits != 0) limbs.back() &= (1u << topBits) - 1u;
  return testutil::fromLimbs32(limbs);
}

BigUInt oracleBigBelow(Rng& rng, const BigUInt& bound) {
  for (;;) {
    BigUInt candidate = oracleBigBits(rng, bound.bitLength());
    if (candidate < bound) return candidate;
  }
}

TEST(RngBigBits, EveryWidthMatchesLimb32Oracle) {
  Rng rng(0xB16B175ull);
  Rng oracle(0xB16B175ull);
  for (std::size_t bits = 0; bits <= 300; ++bits) {
    SCOPED_TRACE(bits);
    for (int repeat = 0; repeat < 8; ++repeat) {
      const BigUInt got = rng.nextBigBits(bits);
      EXPECT_EQ(got, oracleBigBits(oracle, bits));
      EXPECT_LE(got.bitLength(), bits);
    }
    EXPECT_EQ(rng.nextU64(), oracle.nextU64());  // Same state afterwards.
  }
}

TEST(RngBigBits, BigBelowMatchesLimb32Oracle) {
  std::vector<BigUInt> bounds = {
      BigUInt{1},
      BigUInt{2},
      BigUInt{3},
      BigUInt{0xFFFFFFFFull},
      BigUInt{1} << 32,
      BigUInt{~0ull},
      BigUInt{1} << 64,
      (BigUInt{1} << 64) + BigUInt{1},
      BigUInt::fromDecimal("151116715106150634492593"),  // A 78-bit value.
      (BigUInt{1} << 128) - BigUInt{1},
      BigUInt{1} << 128,
      (BigUInt{1} << 200) + BigUInt{12345},
  };
  Rng widths(0xB0B0ull);
  for (int i = 0; i < 60; ++i) {
    BigUInt bound = widths.nextBigBits(1 + widths.nextBelow(300));
    bounds.push_back(bound.isZero() ? BigUInt{1} : bound);
  }
  Rng rng(0xBE10Full);
  Rng oracle(0xBE10Full);
  for (const BigUInt& bound : bounds) {
    SCOPED_TRACE(bound.toHex());
    for (int repeat = 0; repeat < 20; ++repeat) {
      const BigUInt got = rng.nextBigBelow(bound);
      EXPECT_EQ(got, oracleBigBelow(oracle, bound));
      EXPECT_LT(got, bound);
    }
    EXPECT_EQ(rng.nextU64(), oracle.nextU64());
  }
}

}  // namespace
}  // namespace dip::util
