// Randomized differential suite: the 64-bit BigUInt engine against the
// frozen 32-bit reference implementation (biguint_ref), the same oracle
// pattern as tests/iso_ref for the graph layer. Every op runs
// thousands of random operand pairs through both engines and demands
// bit-identical results, from single limbs up to 2048-bit products and the
// 4096-bit decimal conversion.
//
// CI runs this suite under ASan/UBSan (full ctest) and TSan (the sanitizer
// preset's regex includes biguint_diff).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "biguint_ref.hpp"
#include "util/biguint.hpp"
#include "util/rng.hpp"

namespace dip::util {
namespace {

constexpr int kPairsPerOp = 10000;

// Hex is the bridge between the engines: both sides implement it
// independently, so a round-trip mismatch is itself a finding.
BigUInt toNew(const BigUIntRef& ref) { return BigUInt::fromHex(ref.toHex()); }
BigUIntRef toRef(const BigUInt& x) { return BigUIntRef::fromHex(x.toHex()); }

void expectMatch(const BigUInt& got, const BigUIntRef& want, const char* op) {
  EXPECT_EQ(got.toHex(), want.toHex()) << "op: " << op;
}

// A random value of random width in [0, maxBits], biased toward odd 32-bit
// limb counts so 64-bit packing sees half-full top limbs.
BigUIntRef randomRef(Rng& rng, std::size_t maxBits) {
  std::size_t bits = rng.nextBelow(maxBits + 1);
  std::vector<std::uint32_t> limbs((bits + 31) / 32);
  for (auto& limb : limbs) limb = static_cast<std::uint32_t>(rng.nextU64());
  if (!limbs.empty() && bits % 32 != 0) {
    limbs.back() &= (std::uint32_t{1} << (bits % 32)) - 1;
  }
  return BigUIntRef::fromLimbs(std::move(limbs));
}

// Exactly `limbs64` full 64-bit limbs with the top bit set.
BigUIntRef randomRefWithLimbs64(Rng& rng, std::size_t limbs64) {
  std::vector<std::uint32_t> limbs(limbs64 * 2);
  for (auto& limb : limbs) limb = static_cast<std::uint32_t>(rng.nextU64());
  if (!limbs.empty()) limbs.back() |= 0x80000000u;
  return BigUIntRef::fromLimbs(std::move(limbs));
}

TEST(biguint_diff, HexRoundTripAgrees) {
  Rng rng(0xD1FF001ull);
  for (int i = 0; i < kPairsPerOp; ++i) {
    BigUIntRef a = randomRef(rng, 1024);
    BigUInt converted = toNew(a);
    EXPECT_EQ(converted.toHex(), a.toHex());
    EXPECT_EQ(toRef(converted).toHex(), a.toHex());
  }
}

TEST(biguint_diff, DecimalRoundTripAgrees) {
  Rng rng(0xD1FF002ull);
  for (int i = 0; i < kPairsPerOp; ++i) {
    BigUIntRef a = randomRef(rng, 768);
    std::string decimal = a.toDecimal();
    EXPECT_EQ(toNew(a).toDecimal(), decimal);
    EXPECT_EQ(BigUInt::fromDecimal(decimal).toHex(), a.toHex());
  }
}

TEST(biguint_diff, AddSubMatchOracle) {
  Rng rng(0xD1FF003ull);
  for (int i = 0; i < kPairsPerOp; ++i) {
    BigUIntRef a = randomRef(rng, 1024);
    BigUIntRef b = randomRef(rng, 1024);
    expectMatch(toNew(a) + toNew(b), a + b, "+");
    const BigUIntRef& hi = a < b ? b : a;
    const BigUIntRef& lo = a < b ? a : b;
    expectMatch(toNew(hi) - toNew(lo), hi - lo, "-");
  }
}

TEST(biguint_diff, MulMatchesOracle) {
  Rng rng(0xD1FF004ull);
  for (int i = 0; i < kPairsPerOp; ++i) {
    // Mixed widths: balanced products and ones whose longer operand is four
    // times the shorter.
    BigUIntRef a = randomRef(rng, 2048);
    BigUIntRef b = randomRef(rng, i % 3 == 0 ? 2048 : 512);
    expectMatch(toNew(a) * toNew(b), a * b, "*");
  }
}

TEST(biguint_diff, DivModMatchesOracle) {
  Rng rng(0xD1FF006ull);
  for (int i = 0; i < kPairsPerOp; ++i) {
    BigUIntRef a = randomRef(rng, 1536);
    BigUIntRef b = randomRef(rng, i % 4 == 0 ? 64 : 768);
    if (b.isZero()) b = BigUIntRef{1};
    DivModResult got = divMod(toNew(a), toNew(b));
    DivModResultRef want = refDivMod(a, b);
    expectMatch(got.quotient, want.quotient, "/");
    expectMatch(got.remainder, want.remainder, "%");
  }
}

TEST(biguint_diff, ShiftsMatchOracle) {
  Rng rng(0xD1FF007ull);
  for (int i = 0; i < kPairsPerOp; ++i) {
    BigUIntRef a = randomRef(rng, 1024);
    std::size_t shift = rng.nextBelow(200);
    expectMatch(toNew(a) << shift, a << shift, "<<");
    expectMatch(toNew(a) >> shift, a >> shift, ">>");
  }
}

TEST(biguint_diff, ModularOpsMatchOracle) {
  Rng rng(0xD1FF008ull);
  for (int i = 0; i < kPairsPerOp; ++i) {
    BigUIntRef m = randomRef(rng, 512);
    if (m < BigUIntRef{2}) m = BigUIntRef{2};
    BigUIntRef a = randomRef(rng, 512) % m;
    BigUIntRef b = randomRef(rng, 512) % m;
    expectMatch(addMod(toNew(a), toNew(b), toNew(m)), refAddMod(a, b, m), "addMod");
    expectMatch(mulMod(toNew(a), toNew(b), toNew(m)), refMulMod(a, b, m), "mulMod");
  }
}

TEST(biguint_diff, PowModMatchesNaiveOracle) {
  Rng rng(0xD1FF009ull);
  // powMod has two backends (the u64 ladder for any m below 2^64, Montgomery
  // for a wider odd m) and rejects a wider even m; vary modulus width and
  // parity to hit all three.
  for (int i = 0; i < 2000; ++i) {
    std::size_t mBits = i % 3 == 0 ? 48 : 320;
    BigUIntRef m = randomRef(rng, mBits);
    if (m < BigUIntRef{2}) m = BigUIntRef{2};
    BigUIntRef base = randomRef(rng, mBits);
    BigUIntRef exponent = randomRef(rng, 64);
    if (!m.isOdd() && m.bitLength() > 64) {
      EXPECT_THROW(powMod(toNew(base), toNew(exponent), toNew(m)), std::invalid_argument);
      continue;
    }
    expectMatch(powMod(toNew(base), toNew(exponent), toNew(m)),
                refPowMod(base, exponent, m), "powMod");
  }
}

TEST(biguint_diff, ToDecimal4096BitLength) {
  // Chunked toDecimal regression: 2^4096 has exactly 1234 decimal digits
  // and round-trips; a dense 4096-bit value agrees with the oracle's
  // digit-at-a-time conversion (interior zero chunks must be padded).
  BigUInt big = BigUInt{1} << 4096;
  std::string decimal = big.toDecimal();
  EXPECT_EQ(decimal.size(), 1234u);
  EXPECT_EQ(BigUInt::fromDecimal(decimal).toHex(), big.toHex());

  Rng rng(0xD1FF00Aull);
  for (int i = 0; i < 20; ++i) {
    BigUIntRef dense = randomRefWithLimbs64(rng, 64);  // 4096 bits.
    EXPECT_EQ(toNew(dense).toDecimal(), dense.toDecimal());
  }
  // Values with long runs of zero limbs exercise the full-chunk zero
  // padding between the most significant chunk and the tail.
  BigUInt sparse = (BigUInt{1} << 4095) + BigUInt{7};
  EXPECT_EQ(BigUInt::fromDecimal(sparse.toDecimal()).toHex(), sparse.toHex());
}

// ---- Inline/heap storage boundary ----
//
// Values of up to two limbs live inside the BigUInt; wider ones move to a
// heap block. Every operation must give the same value on both sides of that
// line, and a heap-backed value equals the inline value of the same number.

constexpr BigUInt::Limb kAllOnes = ~BigUInt::Limb{0};

// A value with exactly `limbs` limbs: every limb all ones.
BigUInt allOnes(std::size_t limbs) {
  return BigUInt::fromWords(std::vector<BigUInt::Limb>(limbs, kAllOnes));
}

TEST(biguint_diff, ValuesOfZeroToThreeLimbsMatchOracle) {
  Rng rng(0xD1FF00Bull);
  for (std::size_t limbs = 0; limbs <= 3; ++limbs) {
    SCOPED_TRACE(limbs);
    const BigUInt ones = allOnes(limbs);
    EXPECT_EQ(ones.words().size(), limbs);
    EXPECT_EQ(ones.bitLength(), 64 * limbs);
    EXPECT_EQ(ones.toHex(), limbs == 0 ? "0" : std::string(16 * limbs, 'f'));
    for (int i = 0; i < 200; ++i) {
      BigUIntRef a = randomRefWithLimbs64(rng, limbs);
      BigUIntRef b = randomRef(rng, 64 * limbs);
      const BigUInt x = toNew(a);
      const BigUInt y = toNew(b);
      EXPECT_EQ(x.words().size(), limbs);
      expectMatch(x + y, a + b, "+ (boundary)");
      expectMatch(x * y, a * b, "* (boundary)");
      expectMatch(x << 64, a << 64, "<< (boundary)");
      expectMatch(x >> 64, a >> 64, ">> (boundary)");
      if (b <= a) expectMatch(x - y, a - b, "- (boundary)");
      if (!b.isZero()) {
        DivModResult got = divMod(x, y);
        DivModResultRef want = refDivMod(a, b);
        expectMatch(got.quotient, want.quotient, "/ (boundary)");
        expectMatch(got.remainder, want.remainder, "% (boundary)");
      }
    }
  }
}

TEST(biguint_diff, CarryOutOfTwoLimbsAndShrinkBack) {
  // 2^128 - 1 is the widest inline value; + 1 carries into a third limb.
  BigUInt x = allOnes(2);
  x += BigUInt{1};
  EXPECT_EQ(x.words().size(), 3u);
  EXPECT_EQ(x, BigUInt{1} << 128);
  EXPECT_EQ(x.toHex(), "1" + std::string(32, '0'));

  // Back under the line: the heap-backed value equals the inline one.
  x -= BigUInt{1};
  EXPECT_EQ(x.words().size(), 2u);
  EXPECT_EQ(x, allOnes(2));
  x -= allOnes(2) - BigUInt{4};
  EXPECT_EQ(x, BigUInt{4});
  EXPECT_EQ(x.words().size(), 1u);
  x -= BigUInt{4};
  EXPECT_TRUE(x.isZero());
  EXPECT_EQ(x, BigUInt{});

  // Grows again from a heap block that kept its capacity.
  x += allOnes(3);
  EXPECT_EQ(x, allOnes(3));
  x += BigUInt{1};
  EXPECT_EQ(x, BigUInt{1} << 192);
}

TEST(biguint_diff, AliasedOperandsMatchOracle) {
  Rng rng(0xD1FF00Cull);
  for (std::size_t limbs = 1; limbs <= 3; ++limbs) {
    SCOPED_TRACE(limbs);
    for (int i = 0; i < 50; ++i) {
      // The top bit is set, so x += x always carries into a new limb: at two
      // limbs that is the inline-to-heap move with rhs aliasing *this.
      BigUIntRef a = randomRefWithLimbs64(rng, limbs);
      BigUInt doubled = toNew(a);
      doubled += doubled;
      expectMatch(doubled, a + a, "x += x");
      BigUInt zeroed = toNew(a);
      zeroed -= zeroed;
      EXPECT_TRUE(zeroed.isZero());
      EXPECT_EQ(zeroed, BigUInt{});
      BigUInt squared = toNew(a);
      BigUInt::mulInto(squared, squared, squared);
      expectMatch(squared, a * a, "mulInto(x, x, x)");
    }
  }
  // mulInto into an inline out: products that stay inline and ones that
  // force it onto the heap.
  BigUInt out{7};
  for (std::size_t an = 0; an <= 3; ++an) {
    for (std::size_t bn = 0; bn <= 3; ++bn) {
      BigUIntRef a = randomRefWithLimbs64(rng, an);
      BigUIntRef b = randomRefWithLimbs64(rng, bn);
      BigUInt inlineOut{9};
      BigUInt::mulInto(toNew(a), toNew(b), inlineOut);
      expectMatch(inlineOut, a * b, "mulInto (inline out)");
      BigUInt::mulInto(toNew(a), toNew(b), out);
      expectMatch(out, a * b, "mulInto (reused out)");
    }
  }
}

TEST(biguint_diff, CopyMoveAndSelfAssignKeepValues) {
  const BigUInt small = BigUInt{0x1234};
  const BigUInt pair = allOnes(2);
  const BigUInt wide = allOnes(3) - BigUInt{5};
  for (const BigUInt* source : {&small, &pair, &wide}) {
    SCOPED_TRACE(source->toHex());
    BigUInt copy = *source;
    EXPECT_EQ(copy, *source);
    BigUInt moved = std::move(copy);
    EXPECT_EQ(moved, *source);
    copy = BigUInt{3};  // A moved-from value is reusable.
    EXPECT_EQ(copy, BigUInt{3});

    BigUInt& alias = moved;
    moved = alias;
    EXPECT_EQ(moved, *source);
    moved = std::move(alias);
    EXPECT_EQ(moved, *source);

    // Copy- and move-assign over inline and heap-backed destinations.
    for (const BigUInt* target : {&small, &pair, &wide}) {
      BigUInt dst = *target;
      dst = *source;
      EXPECT_EQ(dst, *source);
      BigUInt tmp = *source;
      BigUInt dst2 = *target;
      dst2 = std::move(tmp);
      EXPECT_EQ(dst2, *source);
      dst2 += BigUInt{1};
      EXPECT_EQ(dst2, *source + BigUInt{1});
    }
  }
}

TEST(biguint_diff, AssignU64OnHeapBackedValue) {
  BigUInt x = allOnes(4);
  x.assignU64(42);
  EXPECT_EQ(x, BigUInt{42});
  EXPECT_EQ(x.words().size(), 1u);
  EXPECT_EQ(x.toU64(), 42u);
  x.assignU64(0);
  EXPECT_TRUE(x.isZero());
  EXPECT_EQ(x, BigUInt{});
  x.assignU64(kAllOnes);
  x += x;
  EXPECT_EQ(x, (BigUInt{kAllOnes} << 1));
}

TEST(biguint_diff, FromWordsDropsTrailingZeroLimbs) {
  using Words = std::vector<BigUInt::Limb>;
  EXPECT_EQ(BigUInt::fromWords(Words{}), BigUInt{});
  EXPECT_EQ(BigUInt::fromWords(Words{0, 0, 0}), BigUInt{});
  EXPECT_TRUE(BigUInt::fromWords(Words{0, 0, 0}).words().empty());
  const BigUInt five = BigUInt::fromWords(Words{5, 0, 0, 0});
  EXPECT_EQ(five, BigUInt{5});
  EXPECT_EQ(five.words().size(), 1u);
  const BigUInt two = BigUInt::fromWords(Words{1, 2, 0});
  EXPECT_EQ(two, (BigUInt{2} << 64) + BigUInt{1});
  EXPECT_EQ(two.words().size(), 2u);
  const BigUInt three = BigUInt::fromWords(Words{1, 0, 3, 0, 0});
  EXPECT_EQ(three, (BigUInt{3} << 128) + BigUInt{1});
  EXPECT_EQ(three.words().size(), 3u);
}

}  // namespace
}  // namespace dip::util
