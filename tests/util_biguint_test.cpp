// Unit and property tests for the arbitrary-precision integer substrate.
#include "util/biguint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace dip::util {
namespace {

TEST(BigUInt, DefaultIsZero) {
  BigUInt zero;
  EXPECT_TRUE(zero.isZero());
  EXPECT_EQ(zero.bitLength(), 0u);
  EXPECT_EQ(zero.toDecimal(), "0");
  EXPECT_EQ(zero.toHex(), "0");
  EXPECT_EQ(zero.toU64(), 0u);
}

TEST(BigUInt, U64RoundTrip) {
  for (std::uint64_t value : {0ull, 1ull, 2ull, 255ull, 4294967295ull, 4294967296ull,
                              18446744073709551615ull}) {
    BigUInt big{value};
    EXPECT_TRUE(big.fitsU64());
    EXPECT_EQ(big.toU64(), value);
  }
}

TEST(BigUInt, DecimalRoundTrip) {
  const std::string digits = "123456789012345678901234567890123456789012345678901234567890";
  BigUInt big = BigUInt::fromDecimal(digits);
  EXPECT_EQ(big.toDecimal(), digits);
}

TEST(BigUInt, HexRoundTrip) {
  const std::string hex = "deadbeefcafebabe0123456789abcdef";
  BigUInt big = BigUInt::fromHex(hex);
  EXPECT_EQ(big.toHex(), hex);
}

TEST(BigUInt, HexAndDecimalAgree) {
  BigUInt fromHex = BigUInt::fromHex("ff");
  BigUInt fromDec = BigUInt::fromDecimal("255");
  EXPECT_EQ(fromHex, fromDec);
}

TEST(BigUInt, ParseRejectsGarbage) {
  EXPECT_THROW(BigUInt::fromDecimal(""), std::invalid_argument);
  EXPECT_THROW(BigUInt::fromDecimal("12a"), std::invalid_argument);
  EXPECT_THROW(BigUInt::fromHex(""), std::invalid_argument);
  EXPECT_THROW(BigUInt::fromHex("xyz"), std::invalid_argument);
}

TEST(BigUInt, ComparisonOrdering) {
  BigUInt small{7};
  BigUInt large = BigUInt::fromDecimal("123456789123456789123456789");
  EXPECT_LT(small, large);
  EXPECT_GT(large, small);
  EXPECT_EQ(small, BigUInt{7});
  EXPECT_LE(small, BigUInt{7});
  EXPECT_NE(small, BigUInt{8});
}

TEST(BigUInt, AdditionCarriesAcrossLimbs) {
  BigUInt a = BigUInt::fromHex("ffffffffffffffff");  // 2^64 - 1.
  BigUInt sum = a + BigUInt{1};
  EXPECT_EQ(sum.toHex(), "10000000000000000");
}

TEST(BigUInt, SubtractionBorrowsAcrossLimbs) {
  BigUInt a = BigUInt::fromHex("10000000000000000");
  BigUInt diff = a - BigUInt{1};
  EXPECT_EQ(diff.toHex(), "ffffffffffffffff");
}

TEST(BigUInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUInt{1} - BigUInt{2}, std::underflow_error);
}

TEST(BigUInt, MultiplicationKnownValue) {
  BigUInt a = BigUInt::fromDecimal("123456789123456789");
  BigUInt b = BigUInt::fromDecimal("987654321987654321");
  // Verified externally.
  EXPECT_EQ((a * b).toDecimal(), "121932631356500531347203169112635269");
}

TEST(BigUInt, ShiftLeftThenRightRestores) {
  BigUInt value = BigUInt::fromDecimal("98765432109876543210");
  for (std::size_t shift : {1u, 31u, 32u, 33u, 64u, 100u}) {
    BigUInt shifted = (value << shift) >> shift;
    EXPECT_EQ(shifted, value) << "shift=" << shift;
  }
}

TEST(BigUInt, ShiftRightDropsBits) {
  BigUInt value{0b1011};
  EXPECT_EQ((value >> 2).toU64(), 0b10u);
  EXPECT_TRUE((value >> 64).isZero());
}

TEST(BigUInt, BitAccess) {
  BigUInt value = BigUInt{1} << 100;
  EXPECT_TRUE(value.bit(100));
  EXPECT_FALSE(value.bit(99));
  EXPECT_FALSE(value.bit(101));
  EXPECT_EQ(value.bitLength(), 101u);
}

TEST(BigUInt, DivisionByZeroThrows) {
  EXPECT_THROW(divMod(BigUInt{1}, BigUInt{}), std::domain_error);
  EXPECT_THROW(BigUInt{5}.modU32(0), std::domain_error);
}

TEST(BigUInt, DivModKnownValues) {
  auto [q1, r1] = divMod(BigUInt{17}, BigUInt{5});
  EXPECT_EQ(q1.toU64(), 3u);
  EXPECT_EQ(r1.toU64(), 2u);

  BigUInt big = BigUInt::fromDecimal("340282366920938463463374607431768211456");  // 2^128.
  auto [q2, r2] = divMod(big, BigUInt::fromDecimal("18446744073709551616"));      // 2^64.
  EXPECT_EQ(q2.toDecimal(), "18446744073709551616");
  EXPECT_TRUE(r2.isZero());
}

TEST(BigUInt, ModU32MatchesDivMod) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    BigUInt value = rng.nextBigBits(1 + rng.nextBelow(200));
    std::uint32_t modulus = static_cast<std::uint32_t>(1 + rng.nextBelow(1u << 31));
    EXPECT_EQ(value.modU32(modulus), (value % BigUInt{modulus}).toU64());
  }
}

TEST(BigUInt, PowKnownValues) {
  EXPECT_EQ(BigUInt::pow(BigUInt{2}, 10).toU64(), 1024u);
  EXPECT_EQ(BigUInt::pow(BigUInt{10}, 0).toU64(), 1u);
  EXPECT_EQ(BigUInt::pow(BigUInt{}, 5).toU64(), 0u);
  EXPECT_EQ(BigUInt::pow(BigUInt{3}, 40).toDecimal(), "12157665459056928801");
}

TEST(BigUInt, PowModMatchesReference) {
  // pow(2, 100, 1e9+7) cross-checked with an external big-integer library.
  BigUInt p = BigUInt::fromDecimal("1000000007");
  EXPECT_EQ(powMod(BigUInt{2}, BigUInt{100}, p).toDecimal(), "976371285");
  // Fermat's little theorem: a^(p-1) = 1 mod p for prime p, gcd(a, p) = 1.
  EXPECT_EQ(powMod(BigUInt{12345}, p - BigUInt{1}, p), BigUInt{1});
}

TEST(BigUInt, PowModEvenModulusBelow64Bits) {
  // An even modulus below 2^64 runs the u64 ladder: 3^40 mod 2^63 is the low
  // 63 bits of 3^40 (12157665459056928801), 2^64 - 2 is the widest even
  // modulus it takes, and 7^5 mod 10^18 is exact.
  const BigUInt twoTo63 = BigUInt{1} << 63;
  EXPECT_EQ(powMod(BigUInt{3}, BigUInt{40}, twoTo63).toDecimal(), "2934293422202152993");
  EXPECT_EQ(powMod(BigUInt{3}, BigUInt{41}, BigUInt{~0ull - 1}).toDecimal(),
            "18026252303461234789");
  EXPECT_EQ(powMod(BigUInt{7}, BigUInt{5}, BigUInt{1000000000000000000ull}).toU64(), 16807u);
  // No field is an even number of 64 bits or more, and powMod rejects one.
  EXPECT_THROW(powMod(BigUInt{3}, BigUInt{5}, BigUInt{1} << 64), std::invalid_argument);
}

TEST(BigUInt, ModularHelpers) {
  BigUInt m{97};
  EXPECT_EQ(addMod(BigUInt{96}, BigUInt{5}, m).toU64(), 4u);
  EXPECT_EQ(mulMod(BigUInt{96}, BigUInt{96}, m).toU64(), 1u);
}

TEST(BigUInt, Log2Approximation) {
  EXPECT_NEAR((BigUInt{1} << 200).log2(), 200.0, 1e-9);
  EXPECT_NEAR(BigUInt{1024}.log2(), 10.0, 1e-9);
  BigUInt big = BigUInt::fromDecimal("1000000000000000000000000000000");
  EXPECT_NEAR(big.log2(), 99.65784284662088, 1e-6);
}

TEST(BigUInt, ToDoubleLargeIsFiniteOrInf) {
  EXPECT_DOUBLE_EQ(BigUInt{12345}.toDouble(), 12345.0);
  BigUInt huge = BigUInt{1} << 2000;
  EXPECT_TRUE(std::isinf(huge.toDouble()));
}

// Randomized algebraic property sweep at several operand widths.
class BigUIntPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BigUIntPropertyTest, DivModReconstructsDividend) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    BigUInt a = rng.nextBigBits(1 + rng.nextBelow(GetParam()));
    BigUInt b = rng.nextBigBits(1 + rng.nextBelow(GetParam() / 2 + 1));
    if (b.isZero()) continue;
    auto [q, r] = divMod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST_P(BigUIntPropertyTest, AdditionSubtractionInverse) {
  Rng rng(GetParam() + 1);
  for (int i = 0; i < 300; ++i) {
    BigUInt a = rng.nextBigBits(GetParam());
    BigUInt b = rng.nextBigBits(GetParam());
    EXPECT_EQ(a + b - b, a);
    EXPECT_EQ(b + a - a, b);
  }
}

TEST_P(BigUIntPropertyTest, MultiplicationDistributesOverAddition) {
  Rng rng(GetParam() + 2);
  for (int i = 0; i < 100; ++i) {
    BigUInt a = rng.nextBigBits(GetParam());
    BigUInt b = rng.nextBigBits(GetParam());
    BigUInt c = rng.nextBigBits(GetParam());
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST_P(BigUIntPropertyTest, PowModAgreesWithIteratedMulMod) {
  Rng rng(GetParam() + 3);
  BigUInt m = rng.nextBigBits(GetParam());
  if (m < BigUInt{2}) m = BigUInt{97};
  // An odd modulus, so every width runs powMod's ladder; the even-modulus
  // refusal is pinned by PowModEvenModulusBelow64Bits.
  if (!m.isOdd()) m = m + BigUInt{1};
  for (int i = 0; i < 20; ++i) {
    BigUInt base = rng.nextBigBelow(m);
    std::uint64_t exp = rng.nextBelow(50);
    BigUInt expect{1};
    for (std::uint64_t e = 0; e < exp; ++e) expect = mulMod(expect, base, m);
    EXPECT_EQ(powMod(base, BigUInt{exp}, m), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigUIntPropertyTest,
                         ::testing::Values(16, 48, 64, 96, 160, 320, 1024));

}  // namespace
}  // namespace dip::util
