// Montgomery arithmetic tests: exact agreement with the reference modular
// routines across widths, plus edge cases. The flat-limb kernels
// (util/mont_kernels.hpp) are checked instance by instance against the
// frozen BigUIntRef oracle: every fixed width K and the runtime-k instance
// at every width, on random moduli, on moduli whose top limb is all ones
// (m just below R) and on moduli barely wider than k - 1 limbs (m far below
// R, so an unreduced operand can exceed m many times over).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "biguint_ref.hpp"
#include "util/mont_kernels.hpp"
#include "util/montgomery.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::util {
namespace {

TEST(Montgomery, RejectsEvenOrTinyModulus) {
  EXPECT_THROW(MontgomeryContext(BigUInt{10}), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigUInt{1}), std::invalid_argument);
  EXPECT_NO_THROW(MontgomeryContext(BigUInt{3}));
}

// a * b mod m through the in-domain value API: convert in, one REDC
// product, convert out.
BigUInt mulViaContext(const MontgomeryContext& ctx, const BigUInt& a, const BigUInt& b) {
  MontgomeryContext::Scratch scratch;
  MontgomeryValue product;
  ctx.mulValue(ctx.toValue(a), ctx.toValue(b), product, scratch);
  return ctx.fromValue(product);
}

TEST(Montgomery, RoundTripThroughRepresentation) {
  Rng rng(291);
  MontgomeryContext ctx(findPrimeWithBits(128, rng));
  for (int i = 0; i < 50; ++i) {
    BigUInt x = rng.nextBigBelow(ctx.modulus());
    EXPECT_EQ(ctx.fromValue(ctx.toValue(x)), x);
  }
}

TEST(Montgomery, MulModMatchesReference) {
  Rng rng(292);
  for (std::size_t bits : {33u, 64u, 96u, 160u, 256u, 521u}) {
    BigUInt modulus = findPrimeWithBits(bits, rng);
    MontgomeryContext ctx(modulus);
    for (int i = 0; i < 30; ++i) {
      BigUInt a = rng.nextBigBelow(modulus);
      BigUInt b = rng.nextBigBelow(modulus);
      EXPECT_EQ(mulViaContext(ctx, a, b), mulMod(a, b, modulus)) << bits;
    }
  }
}

TEST(Montgomery, PowModMatchesReference) {
  Rng rng(293);
  for (std::size_t bits : {40u, 128u, 300u}) {
    BigUInt modulus = findPrimeWithBits(bits, rng);
    MontgomeryContext ctx(modulus);
    for (int i = 0; i < 10; ++i) {
      BigUInt base = rng.nextBigBelow(modulus);
      BigUInt exponent = rng.nextBigBits(bits);
      EXPECT_EQ(ctx.powMod(base, exponent), powMod(base, exponent, modulus)) << bits;
    }
  }
}

TEST(Montgomery, PowModEdgeCases) {
  Rng rng(294);
  BigUInt modulus = findPrimeWithBits(100, rng);
  MontgomeryContext ctx(modulus);
  EXPECT_EQ(ctx.powMod(BigUInt{5}, BigUInt{}), BigUInt{1});    // x^0 = 1.
  EXPECT_EQ(ctx.powMod(BigUInt{}, BigUInt{9}), BigUInt{});     // 0^e = 0.
  EXPECT_EQ(ctx.powMod(BigUInt{1}, rng.nextBigBits(90)), BigUInt{1});
  // Operands larger than the modulus reduce first.
  BigUInt big = modulus * BigUInt{7} + BigUInt{11};
  EXPECT_EQ(ctx.powMod(big, BigUInt{1}), BigUInt{11});
  EXPECT_EQ(mulViaContext(ctx, big, BigUInt{2}), BigUInt{22});
}

TEST(Montgomery, OddCompositeModuliWork) {
  // Montgomery needs oddness, not primality.
  Rng rng(295);
  BigUInt modulus = BigUInt::fromDecimal("123456789123456789123456789");  // Odd composite.
  MontgomeryContext ctx(modulus);
  for (int i = 0; i < 20; ++i) {
    BigUInt a = rng.nextBigBelow(modulus);
    BigUInt b = rng.nextBigBelow(modulus);
    EXPECT_EQ(mulViaContext(ctx, a, b), mulMod(a, b, modulus));
  }
}

TEST(Montgomery, FermatWitnessViaContext) {
  // A full Miller-Rabin-style use: a^(p-1) = 1 mod p through the context.
  Rng rng(296);
  BigUInt p = findPrimeWithBits(200, rng);
  MontgomeryContext ctx(p);
  for (int i = 0; i < 5; ++i) {
    BigUInt a = addMod(rng.nextBigBelow(p - BigUInt{2}), BigUInt{2}, p);
    EXPECT_EQ(ctx.powMod(a, p - BigUInt{1}), BigUInt{1});
  }
}

// ---- Flat-limb kernels against BigUIntRef ----------------------------------

using mont::Limb;

BigUIntRef refOf(const Limb* limbs, std::size_t k) {
  std::vector<std::uint32_t> words;
  for (std::size_t i = 0; i < k; ++i) {
    words.push_back(static_cast<std::uint32_t>(limbs[i]));
    words.push_back(static_cast<std::uint32_t>(limbs[i] >> 32));
  }
  return BigUIntRef::fromLimbs(std::move(words));
}

BigUIntRef refOf(const std::vector<Limb>& limbs) { return refOf(limbs.data(), limbs.size()); }

std::vector<Limb> randomLimbs(Rng& rng, std::size_t k) {
  std::vector<Limb> out(k);
  for (Limb& limb : out) limb = rng.nextU64();
  return out;
}

std::vector<Limb> limbsOf(const BigUIntRef& value, std::size_t k) {
  std::vector<Limb> out(k, 0);
  const std::vector<std::uint32_t>& words = value.limbs();
  for (std::size_t i = 0; i < words.size(); ++i) {
    out[i / 2] |= static_cast<Limb>(words[i]) << (32 * (i % 2));
  }
  return out;
}

// A value below the bound (by reduction; the bias is irrelevant here).
std::vector<Limb> randomBelow(Rng& rng, const BigUIntRef& bound, std::size_t k) {
  return limbsOf(refOf(randomLimbs(rng, k)) % bound, k);
}

enum class ModulusShape { kRandom, kTopAllOnes, kTopOne };

std::vector<Limb> oddModulus(Rng& rng, std::size_t k, ModulusShape shape) {
  std::vector<Limb> m = randomLimbs(rng, k);
  switch (shape) {
    case ModulusShape::kRandom: m.back() |= Limb{1} << 63; break;
    case ModulusShape::kTopAllOnes: m.back() = ~Limb{0}; break;
    case ModulusShape::kTopOne: m.back() = 1; break;
  }
  m.front() |= 1;
  if (k == 1 && m.front() < 3) m.front() = 3;
  return m;
}

// One kernel instance (K fixed, or K == 0 reading the width from mod.k) on
// one modulus: mul with an unreduced first operand, add, lazy add and
// convert-out, each against the oracle, including the aliasing forms.
template <std::size_t K>
void checkInstance(Rng& rng, const MontgomeryContext& ctx, int cases) {
  const mont::Modulus mod = ctx.kernelModulus();
  const std::size_t k = mod.k;
  const BigUIntRef m = refOf(mod.m, k);
  const BigUIntRef r = BigUIntRef{1} << (64 * k);
  const std::string where = "K=" + std::to_string(K) + " k=" + std::to_string(k) +
                            " m=" + m.toHex();
  std::vector<Limb> t(k + 2);
  for (int c = 0; c < cases; ++c) {
    const std::vector<Limb> a = randomLimbs(rng, k);  // Any value below R.
    const std::vector<Limb> b = randomBelow(rng, m, k);
    const std::vector<Limb> x = randomBelow(rng, m, k);

    // mul: t < m and t * R == a * b (mod m) pins t = a * b * R^-1 mod m.
    mont::mul<K>(mod, a.data(), b.data(), t.data());
    const BigUIntRef product = refOf(t.data(), k);
    ASSERT_LT(product, m) << where;
    ASSERT_EQ(((product * r) % m).toHex(), ((refOf(a) * refOf(b)) % m).toHex()) << where;
    ASSERT_EQ(t[k], 0u) << where;

    // add, out aliasing the first operand.
    std::vector<Limb> sum = x;
    mont::add<K>(mod, sum.data(), b.data(), sum.data());
    ASSERT_EQ(refOf(sum).toHex(), ((refOf(x) + refOf(b)) % m).toHex()) << where;

    // addLazy: exact integer sum while it stays below R.
    std::vector<Limb> lazy = x;
    mont::addLazy<K>(mod, lazy.data(), b.data());
    if (refOf(x) + refOf(b) < r) {
      ASSERT_EQ(refOf(lazy).toHex(), (refOf(x) + refOf(b)).toHex()) << where;
    }

    // redc on any a < R, in place: out < m and out * R == a (mod m).
    std::vector<Limb> out = a;
    mont::redc<K>(mod, out.data(), out.data());
    ASSERT_LT(refOf(out), m) << where;
    ASSERT_EQ(((refOf(out) * r) % m).toHex(), (refOf(a) % m).toHex()) << where;
  }
  // The boundary operands: a = R - 1 against b = m - 1, and a = m exactly.
  std::vector<Limb> top(k, ~Limb{0});
  std::vector<Limb> mMinus1 = limbsOf(m - BigUIntRef{1}, k);
  mont::mul<K>(mod, top.data(), mMinus1.data(), t.data());
  ASSERT_EQ(((refOf(t.data(), k) * r) % m).toHex(),
            ((refOf(top) * (m - BigUIntRef{1})) % m).toHex())
      << where;
  std::vector<Limb> mLimbs = limbsOf(m, k);
  mont::redc<K>(mod, mLimbs.data(), mLimbs.data());
  ASSERT_TRUE(refOf(mLimbs).isZero()) << where;
}

TEST(MontKernels, EveryInstanceMatchesReference) {
  Rng rng(0x5EED0001ull);
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u}) {
    for (ModulusShape shape :
         {ModulusShape::kRandom, ModulusShape::kTopAllOnes, ModulusShape::kTopOne}) {
      if (k == 1 && shape == ModulusShape::kTopOne) continue;  // m would be 1.
      const std::vector<Limb> mLimbs = oddModulus(rng, k, shape);
      const MontgomeryContext ctx(BigUInt::fromWords(mLimbs));
      ASSERT_EQ(ctx.numLimbs(), k);
      // The instance dispatch picks for k, then the runtime-k instance.
      mont::dispatch(k, [&](auto width) {
        checkInstance<decltype(width)::value>(rng, ctx, 40);
      });
      checkInstance<0>(rng, ctx, 40);
    }
  }
}

TEST(MontKernels, DispatchPicksFixedWidthsAndRuntimeFallback) {
  for (std::size_t k = 1; k <= 20; ++k) {
    const std::size_t picked =
        mont::dispatch(k, [](auto width) { return decltype(width)::value; });
    const bool fixed = k == 1 || k == 2 || k == 3 || k == 4 || k == 8 || k == 16;
    EXPECT_EQ(picked, fixed ? k : 0u) << k;
  }
}

TEST(MontKernels, ContextRawApiMatchesReference) {
  // The context's thin dispatchers (toRaw, mulRaw, addRaw, rawToPlain,
  // fromValue) at fixed widths, runtime widths on the stack (5, 17) and a
  // runtime width past the stack accumulator (130 limbs), with out aliasing
  // an operand.
  Rng rng(0x5EED0002ull);
  auto ref = [](const BigUInt& x) { return BigUIntRef::fromHex(x.toHex()); };
  for (std::size_t k : {1u, 2u, 4u, 5u, 16u, 17u, 130u}) {
    const BigUInt modulus = BigUInt::fromWords(oddModulus(rng, k, ModulusShape::kRandom));
    const MontgomeryContext ctx(modulus);
    const BigUIntRef m = ref(modulus);
    std::vector<Limb> x(k);
    std::vector<Limb> y(k);
    for (int i = 0; i < (k > 100 ? 3 : 20); ++i) {
      const BigUInt a = rng.nextBigBelow(modulus);
      const BigUInt b = rng.nextBigBelow(modulus);
      ctx.toRaw(a, x.data());
      ctx.toRaw(b, y.data());
      ctx.mulRaw(x.data(), y.data(), x.data());
      ASSERT_EQ(ctx.rawToPlain(x.data()).toHex(), ((ref(a) * ref(b)) % m).toHex()) << k;
      ctx.toRaw(a, x.data());
      ctx.addRaw(x.data(), y.data(), y.data());
      ASSERT_EQ(ctx.rawToPlain(y.data()).toHex(), ((ref(a) + ref(b)) % m).toHex()) << k;
      ASSERT_EQ(ctx.fromValue(ctx.toValue(a)), a) << k;
    }
    // toRaw reduces operands at or above the modulus first.
    ctx.toRaw(modulus + BigUInt{5}, x.data());
    EXPECT_EQ(ctx.rawToPlain(x.data()), BigUInt{5}) << k;
  }
}

}  // namespace
}  // namespace dip::util
