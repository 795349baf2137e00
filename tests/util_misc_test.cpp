// Tests for the RNG, bit-exact message I/O, dynamic bitsets, primality, and
// numeric helpers.
#include <gtest/gtest.h>

#include <set>

#include "util/bitio.hpp"
#include "util/bitset.hpp"
#include "util/mathutil.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::util {
namespace {

// ---- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.nextU64() != b.nextU64()) ++differing;
  }
  EXPECT_GE(differing, 15);
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t value = rng.nextBelow(10);
    ASSERT_LT(value, 10u);
    ++counts[value];
  }
  for (int count : counts) {
    EXPECT_GT(count, 800);
    EXPECT_LT(count, 1200);
  }
}

TEST(Rng, NextBitsMasksCorrectly) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.nextBits(5), 32u);
    EXPECT_EQ(rng.nextBits(0), 0u);
  }
}

TEST(Rng, BigBelowStaysBelow) {
  Rng rng(5);
  BigUInt bound = BigUInt::fromDecimal("123456789123456789123456789");
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.nextBigBelow(bound), bound);
}

TEST(Rng, BigBitsBounded) {
  Rng rng(6);
  for (std::size_t bits : {1u, 7u, 32u, 33u, 65u, 200u}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_LE(rng.nextBigBits(bits).bitLength(), bits);
    }
  }
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(9), parent2(9);
  Rng childA1 = parent1.split(0);
  Rng childA2 = parent2.split(0);
  EXPECT_EQ(childA1.nextU64(), childA2.nextU64());

  Rng parent3(9);
  Rng childX = parent3.split(0);
  Rng childY = parent3.split(1);
  EXPECT_NE(childX.nextU64(), childY.nextU64());
}

// ---- BitWriter / BitReader ----

TEST(BitIo, UIntRoundTrip) {
  BitWriter writer;
  writer.writeUInt(0b101, 3);
  writer.writeUInt(0xFFFF, 16);
  writer.writeUInt(0, 1);
  writer.writeUInt(12345678901234ull, 44);
  EXPECT_EQ(writer.bitCount(), 3u + 16 + 1 + 44);

  BitReader reader(writer);
  EXPECT_EQ(reader.readUInt(3), 0b101u);
  EXPECT_EQ(reader.readUInt(16), 0xFFFFu);
  EXPECT_EQ(reader.readUInt(1), 0u);
  EXPECT_EQ(reader.readUInt(44), 12345678901234ull);
  EXPECT_EQ(reader.bitsRemaining(), 0u);
}

TEST(BitIo, ValueMustFitWidth) {
  BitWriter writer;
  EXPECT_THROW(writer.writeUInt(4, 2), std::invalid_argument);
  EXPECT_THROW(writer.writeUInt(1, 65), std::invalid_argument);
  writer.writeUInt(0xFF, 8);
  BitReader reader(writer);
  EXPECT_THROW(reader.readUInt(65), std::invalid_argument);
}

TEST(BitIo, BigRoundTrip) {
  BigUInt value = BigUInt::fromDecimal("987654321987654321987654321");
  BitWriter writer;
  writer.writeBig(value, 96);
  EXPECT_EQ(writer.bitCount(), 96u);
  BitReader reader(writer);
  EXPECT_EQ(reader.readBig(96), value);
}

TEST(BitIo, BigRejectsOverflow) {
  BitWriter writer;
  EXPECT_THROW(writer.writeBig(BigUInt{256}, 8), std::invalid_argument);
}

TEST(BitIo, VarUIntRoundTrip) {
  BitWriter writer;
  std::vector<std::uint64_t> values{0, 1, 127, 128, 300, 1ull << 40, UINT64_MAX};
  for (auto value : values) writer.writeVarUInt(value);
  BitReader reader(writer);
  for (auto value : values) EXPECT_EQ(reader.readVarUInt(), value);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter writer;
  writer.writeUInt(1, 1);
  BitReader reader(writer);
  reader.readBit();
  EXPECT_THROW(reader.readBit(), std::out_of_range);
}

TEST(BitIo, BitsForCounts) {
  EXPECT_EQ(bitsFor(1), 1u);
  EXPECT_EQ(bitsFor(2), 1u);
  EXPECT_EQ(bitsFor(3), 2u);
  EXPECT_EQ(bitsFor(4), 2u);
  EXPECT_EQ(bitsFor(5), 3u);
  EXPECT_EQ(bitsFor(1024), 10u);
  EXPECT_EQ(bitsFor(1025), 11u);
}

// ---- DynBitset ----

TEST(DynBitset, SetTestCount) {
  DynBitset bits(130);
  EXPECT_TRUE(bits.none());
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(64));
  EXPECT_FALSE(bits.test(63));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset(64);
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_THROW(bits.test(130), std::out_of_range);
}

TEST(DynBitset, ForEachSetAscending) {
  DynBitset bits(200);
  std::vector<std::size_t> expected{3, 63, 64, 127, 128, 199};
  for (auto i : expected) bits.set(i);
  std::vector<std::size_t> seen;
  bits.forEachSet([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(DynBitset, XorAndIntersects) {
  DynBitset a(70), b(70);
  a.set(1);
  a.set(69);
  b.set(69);
  EXPECT_TRUE(a.intersects(b));
  a ^= b;
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(69));
  EXPECT_FALSE(a.intersects(b));
}

TEST(DynBitset, FirstSet) {
  DynBitset bits(100);
  EXPECT_EQ(bits.firstSet(), 100u);
  bits.set(77);
  EXPECT_EQ(bits.firstSet(), 77u);
  bits.set(5);
  EXPECT_EQ(bits.firstSet(), 5u);
}

TEST(DynBitset, EqualityAndHash) {
  DynBitset a(50), b(50), c(51);
  a.set(10);
  b.set(10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hashValue(), b.hashValue());
  EXPECT_NE(a, c);
}

TEST(DynBitset, InlineToHeapBoundary) {
  // Sizes straddling the single-word small-size optimization (<= 64 bits
  // inline, > 64 heap-backed) must behave identically through every op.
  for (std::size_t size : {63u, 64u, 65u, 128u, 129u}) {
    DynBitset bits(size);
    EXPECT_EQ(bits.wordCount(), (size + 63) / 64);
    bits.set(0);
    bits.set(size - 1);
    EXPECT_EQ(bits.count(), size == 1 ? 1u : 2u);
    EXPECT_TRUE(bits.test(size - 1));
    EXPECT_EQ(bits.firstSet(), 0u);
    EXPECT_THROW(bits.set(size), std::out_of_range);

    DynBitset other(size);
    other.set(size - 1);
    EXPECT_TRUE(bits.intersects(other));
    bits ^= other;
    EXPECT_FALSE(bits.test(size - 1));
    EXPECT_TRUE(bits.test(0));

    // Copies must be independent (deep-copied heap words, detached SSO).
    DynBitset copy = other;
    copy.reset(size - 1);
    EXPECT_TRUE(other.test(size - 1));
    EXPECT_FALSE(copy.test(size - 1));
    EXPECT_NE(copy, other);
  }
}

// ---- Primes ----

TEST(Primes, SmallKnownValues) {
  Rng rng(11);
  for (std::uint32_t prime : {2u, 3u, 5u, 7u, 97u, 251u, 257u, 65537u}) {
    EXPECT_TRUE(isProbablePrime(BigUInt{prime}, rng)) << prime;
  }
  for (std::uint32_t composite : {0u, 1u, 4u, 9u, 91u, 255u, 561u, 65535u}) {
    EXPECT_FALSE(isProbablePrime(BigUInt{composite}, rng)) << composite;
  }
}

TEST(Primes, CarmichaelNumbersRejected) {
  Rng rng(12);
  // Carmichael numbers fool Fermat but not Miller-Rabin.
  for (std::uint64_t carmichael : {561ull, 1105ull, 1729ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(isProbablePrime(BigUInt{carmichael}, rng)) << carmichael;
  }
}

TEST(Primes, LargeKnownPrime) {
  Rng rng(13);
  // 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite.
  BigUInt mersenne = (BigUInt{1} << 127) - BigUInt{1};
  EXPECT_TRUE(isProbablePrime(mersenne, rng));
  BigUInt fermatLike = (BigUInt{1} << 128) + BigUInt{1};
  EXPECT_FALSE(isProbablePrime(fermatLike, rng));
}

TEST(Primes, FindPrimeInRangeRespectsBounds) {
  Rng rng(14);
  BigUInt lo{1000000};
  BigUInt hi{2000000};
  for (int i = 0; i < 5; ++i) {
    BigUInt prime = findPrimeInRange(lo, hi, rng);
    EXPECT_GE(prime, lo);
    EXPECT_LE(prime, hi);
    EXPECT_TRUE(isProbablePrime(prime, rng));
  }
}

TEST(Primes, FindPrimeWithBitsHasExactWidth) {
  Rng rng(15);
  for (std::size_t bits : {8u, 20u, 64u, 128u, 256u}) {
    BigUInt prime = findPrimeWithBits(bits, rng);
    EXPECT_EQ(prime.bitLength(), bits);
    EXPECT_TRUE(isProbablePrime(prime, rng));
  }
}

// ---- Math helpers ----

TEST(MathUtil, Factorial) {
  EXPECT_EQ(factorial(0).toU64(), 1u);
  EXPECT_EQ(factorial(5).toU64(), 120u);
  EXPECT_EQ(factorial(20).toDecimal(), "2432902008176640000");
  EXPECT_EQ(factorial(25).toDecimal(), "15511210043330985984000000");
}

TEST(MathUtil, WilsonIntervalCoversPointEstimate) {
  auto interval = wilson95(70, 100);
  EXPECT_NEAR(interval.pointEstimate, 0.7, 1e-12);
  EXPECT_LT(interval.low, 0.7);
  EXPECT_GT(interval.high, 0.7);
  EXPECT_GT(interval.low, 0.59);
  EXPECT_LT(interval.high, 0.79);
}

TEST(MathUtil, WilsonDegenerateCases) {
  auto zero = wilson95(0, 100);
  EXPECT_GE(zero.low, 0.0);
  EXPECT_LT(zero.high, 0.05);
  auto all = wilson95(100, 100);
  EXPECT_GT(all.low, 0.95);
  EXPECT_LE(all.high, 1.0);
  auto empty = wilson95(0, 0);
  EXPECT_EQ(empty.low, 0.0);
  EXPECT_EQ(empty.high, 1.0);
}

TEST(MathUtil, BinomialTail) {
  EXPECT_DOUBLE_EQ(binomialTailGE(10, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomialTailGE(10, 0.5, 11), 0.0);
  EXPECT_NEAR(binomialTailGE(10, 0.5, 5), 0.623046875, 1e-9);
  EXPECT_NEAR(binomialTailGE(1, 0.3, 1), 0.3, 1e-12);
  // Monotone in p.
  EXPECT_LT(binomialTailGE(100, 0.2, 30), binomialTailGE(100, 0.4, 30));
}

}  // namespace
}  // namespace dip::util
