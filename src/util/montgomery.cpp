#include "util/montgomery.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>

namespace dip::util {

namespace {

using Limb = BigUInt::Limb;
using DLimb = BigUInt::DLimb;
constexpr unsigned kLimbBits = BigUInt::kLimbBits;

// Inverse of an odd limb modulo 2^kLimbBits, by Newton iteration
// (x -> x (2 - a x) doubles the number of correct low bits each step;
// x = a is already correct mod 8, so six steps cover 64 bits with margin).
Limb inverseModLimbBase(Limb odd) {
  Limb x = odd;
  for (int iteration = 0; iteration < 6; ++iteration) {
    x *= static_cast<Limb>(2) - odd * x;
  }
  return x;
}

std::vector<Limb> paddedWords(const BigUInt& x, std::size_t k) {
  std::vector<Limb> out(k, 0);
  const auto words = x.words();
  std::copy(words.begin(), words.end(), out.begin());
  return out;
}

// a <=> b over exactly k limbs.
int compareRaw(const Limb* a, const Limb* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// dst -= m over exactly k limbs (any final borrow is absorbed by the
// caller's carry limb).
void subModulusRaw(Limb* dst, const Limb* m, std::size_t k) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    Limb t1 = dst[i] - m[i];
    Limb b1 = t1 > dst[i];
    Limb t2 = t1 - borrow;
    Limb b2 = t2 > t1;
    dst[i] = t2;
    borrow = b1 | b2;
  }
}

// CIOS (coarsely integrated operand scanning) Montgomery multiply, base
// 2^kLimbBits: t <- a * b * B^-k mod m, with t left in [0, 2m) before the
// final conditional subtract. Two things this shape buys that measurably
// matter on the baseline container:
//  - The __restrict qualifiers: t is a caller-provided scratch that never
//    aliases the operands or the modulus, so the compiler can hoist the
//    b[j]/m[j] loads out of the carry chains.
//  - kFixed: when nonzero it is the compile-time limb count, and the hot
//    modulus widths (dispatched in montMulRaw) get fully static trip counts
//    and addressing -- worth ~20% over the runtime-k form at 16 limbs.
//    kFixed == 0 falls back to the runtime count in kRuntime.
// The i = 0 row is peeled: t starts at zero, so the first product row needs
// no accumulator loads, which also replaces the explicit zero-fill.
// (A BMI2/mulx target_clones variant and a fused FIOS pass were both tried
// and measured slower than this plain unrolled form, so the kernel stays
// single-version and two-pass.)
template <std::size_t kFixed>
void ciosKernelImpl(const Limb* __restrict a, const Limb* __restrict b,
                    Limb* __restrict t, const Limb* __restrict m,
                    const Limb mPrime, const std::size_t kRuntime) {
  const std::size_t k = kFixed != 0 ? kFixed : kRuntime;

  // Row i = 0: t = a_0 * b, then one reduction pass.
  {
    const Limb a0 = a[0];
    Limb carry = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(a0) * b[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    t[k] = carry;

    const Limb u = t[0] * mPrime;
    DLimb cur0 = static_cast<DLimb>(t[0]) + static_cast<DLimb>(u) * m[0];
    carry = static_cast<Limb>(cur0 >> kLimbBits);  // Low word is zero by construction.
#pragma GCC unroll 8
    for (std::size_t j = 1; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(t[j]) + static_cast<DLimb>(u) * m[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    DLimb tail = static_cast<DLimb>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(tail);
    t[k] = static_cast<Limb>(tail >> kLimbBits);
    t[k + 1] = 0;
  }

  for (std::size_t i = 1; i < k; ++i) {
    const Limb ai = a[i];

    // t += a_i * b.
    Limb carry = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(t[j]) + static_cast<DLimb>(ai) * b[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    DLimb top = static_cast<DLimb>(t[k]) + carry;
    t[k] = static_cast<Limb>(top);
    t[k + 1] = static_cast<Limb>(top >> kLimbBits);

    // u = t[0] * mPrime mod B; t += u * m; then shift one limb down.
    const Limb u = t[0] * mPrime;
    DLimb cur0 = static_cast<DLimb>(t[0]) + static_cast<DLimb>(u) * m[0];
    carry = static_cast<Limb>(cur0 >> kLimbBits);  // Low word is zero by construction.
#pragma GCC unroll 8
    for (std::size_t j = 1; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(t[j]) + static_cast<DLimb>(u) * m[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    DLimb tail = static_cast<DLimb>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(tail);
    t[k] = t[k + 1] + static_cast<Limb>(tail >> kLimbBits);
    t[k + 1] = 0;
  }

  // Result is in t[0..k] with t[k] in {0, 1} and value < 2m.
  if (t[k] != 0 || compareRaw(t, m, k) >= 0) {
    subModulusRaw(t, m, k);
  }
  t[k] = 0;
}

}  // namespace

MontgomeryContext::MontgomeryContext(BigUInt modulus) : m_(std::move(modulus)) {
  if (!m_.isOdd() || m_ < BigUInt{3}) {
    throw std::invalid_argument("MontgomeryContext: modulus must be odd and >= 3");
  }
  numLimbs_ = m_.words().size();
  mPrime_ = static_cast<Limb>(0) - inverseModLimbBase(m_.words()[0]);
  BigUInt r = BigUInt{1} << (kLimbBits * numLimbs_);
  BigUInt rModM = r % m_;
  BigUInt rSquared = (rModM * rModM) % m_;
  one_.limbs_ = paddedWords(rModM, numLimbs_);
  rSquared_.limbs_ = paddedWords(rSquared, numLimbs_);
  zero_.limbs_.assign(numLimbs_, 0);
  plainOne_.assign(numLimbs_, 0);
  plainOne_[0] = 1;
}

void MontgomeryContext::montMulRaw(const Limb* __restrict a, const Limb* __restrict b,
                                   Limb* __restrict t) const {
  // Dispatch the widths the protocols actually hit to fixed-k instances:
  // k <= 2 covers every n^(n+2) hash prime up to n = 16, k = 4/8/16 the
  // 256/512/1024-bit Miller-Rabin and benchmark operands. Anything else
  // (e.g. 4096-bit stress sizes) takes the runtime-k fallback.
  const Limb* m = m_.words().data();
  switch (numLimbs_) {
    case 1:  ciosKernelImpl<1>(a, b, t, m, mPrime_, 1); break;
    case 2:  ciosKernelImpl<2>(a, b, t, m, mPrime_, 2); break;
    case 3:  ciosKernelImpl<3>(a, b, t, m, mPrime_, 3); break;
    case 4:  ciosKernelImpl<4>(a, b, t, m, mPrime_, 4); break;
    case 8:  ciosKernelImpl<8>(a, b, t, m, mPrime_, 8); break;
    case 16: ciosKernelImpl<16>(a, b, t, m, mPrime_, 16); break;
    default: ciosKernelImpl<0>(a, b, t, m, mPrime_, numLimbs_); break;
  }
}

const MontgomeryContext::Limb* MontgomeryContext::stagePlain(const BigUInt& x,
                                                             Scratch& scratch) const {
  if (scratch.stage.size() < numLimbs_) scratch.stage.resize(numLimbs_);
  std::fill(scratch.stage.begin(), scratch.stage.begin() + numLimbs_, 0);
  if (x < m_) {
    const auto words = x.words();
    std::copy(words.begin(), words.end(), scratch.stage.begin());
  } else {
    BigUInt reduced = x % m_;
    const auto words = reduced.words();
    std::copy(words.begin(), words.end(), scratch.stage.begin());
  }
  return scratch.stage.data();
}

void MontgomeryContext::toValue(const BigUInt& x, MontgomeryValue& out,
                                Scratch& scratch) const {
  const std::size_t k = numLimbs_;
  const Limb* staged = stagePlain(x, scratch);
  if (scratch.t.size() < k + 2) scratch.t.resize(k + 2);
  montMulRaw(staged, rSquared_.limbs_.data(), scratch.t.data());
  out.limbs_.resize(k);
  std::copy(scratch.t.begin(), scratch.t.begin() + k, out.limbs_.begin());
}

MontgomeryValue MontgomeryContext::toValue(const BigUInt& x) const {
  thread_local Scratch scratch;
  MontgomeryValue out;
  toValue(x, out, scratch);
  return out;
}

BigUInt MontgomeryContext::fromValue(const MontgomeryValue& v) const {
  thread_local std::vector<Limb> t;
  const std::size_t k = numLimbs_;
  if (t.size() < k + 2) t.resize(k + 2);
  montMulRaw(v.limbs_.data(), plainOne_.data(), t.data());
  return BigUInt::fromWords(std::span<const Limb>(t.data(), k));
}

void MontgomeryContext::mulValue(const MontgomeryValue& a, const MontgomeryValue& b,
                                 MontgomeryValue& out, Scratch& scratch) const {
  const std::size_t k = numLimbs_;
  if (scratch.t.size() < k + 2) scratch.t.resize(k + 2);
  montMulRaw(a.limbs_.data(), b.limbs_.data(), scratch.t.data());
  out.limbs_.resize(k);
  std::copy(scratch.t.begin(), scratch.t.begin() + k, out.limbs_.begin());
}

void MontgomeryContext::addValue(const MontgomeryValue& a, const MontgomeryValue& b,
                                 MontgomeryValue& out) const {
  const std::size_t k = numLimbs_;
  const Limb* m = m_.words().data();
  out.limbs_.resize(k);
  const Limb* ap = a.limbs_.data();
  const Limb* bp = b.limbs_.data();
  Limb* op = out.limbs_.data();
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    DLimb cur = static_cast<DLimb>(ap[i]) + bp[i] + carry;
    op[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> kLimbBits);
  }
  if (carry || compareRaw(op, m, k) >= 0) subModulusRaw(op, m, k);
}

void MontgomeryContext::subValue(const MontgomeryValue& a, const MontgomeryValue& b,
                                 MontgomeryValue& out) const {
  const std::size_t k = numLimbs_;
  const Limb* m = m_.words().data();
  out.limbs_.resize(k);
  const Limb* ap = a.limbs_.data();
  const Limb* bp = b.limbs_.data();
  Limb* op = out.limbs_.data();
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    Limb t1 = ap[i] - bp[i];
    Limb b1 = t1 > ap[i];
    Limb t2 = t1 - borrow;
    Limb b2 = t2 > t1;
    op[i] = t2;
    borrow = b1 | b2;
  }
  if (borrow) {
    // Wrapped below zero: add m back (the final carry cancels the borrow).
    Limb carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      DLimb cur = static_cast<DLimb>(op[i]) + m[i] + carry;
      op[i] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
  }
}

void MontgomeryContext::mulRaw(const Limb* a, const Limb* b, Limb* out,
                               Scratch& scratch) const {
  const std::size_t k = numLimbs_;
  if (scratch.t.size() < k + 2) scratch.t.resize(k + 2);
  montMulRaw(a, b, scratch.t.data());
  std::copy(scratch.t.begin(), scratch.t.begin() + k, out);
}

void MontgomeryContext::addRaw(const Limb* a, const Limb* b, Limb* out) const {
  const std::size_t k = numLimbs_;
  const Limb* m = m_.words().data();
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    DLimb cur = static_cast<DLimb>(a[i]) + b[i] + carry;
    out[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> kLimbBits);
  }
  if (carry || compareRaw(out, m, k) >= 0) subModulusRaw(out, m, k);
}

void MontgomeryContext::valueToRaw(const MontgomeryValue& v, Limb* out) const {
  std::copy(v.limbs_.begin(), v.limbs_.end(), out);
}

BigUInt MontgomeryContext::rawToPlain(const Limb* v) const {
  thread_local std::vector<Limb> t;
  const std::size_t k = numLimbs_;
  if (t.size() < k + 2) t.resize(k + 2);
  montMulRaw(v, plainOne_.data(), t.data());
  return BigUInt::fromWords(std::span<const Limb>(t.data(), k));
}

void MontgomeryContext::buildWindowTable(const Limb* base, unsigned wMax, Limb* table,
                                         Limb* t) const {
  const std::size_t k = numLimbs_;
  std::copy(one_.limbs_.begin(), one_.limbs_.end(), table);
  if (wMax >= 1) std::copy(base, base + k, table + k);
  for (unsigned w = 2; w <= wMax; ++w) {
    montMulRaw(table + (w - 1) * k, table + k, t);
    std::copy(t, t + k, table + w * k);
  }
}

void MontgomeryContext::powWithTable(const Limb* table, const BigUInt& exponent,
                                     MontgomeryValue& out, Scratch& scratch) const {
  const std::size_t k = numLimbs_;
  const std::size_t bits = exponent.bitLength();
  if (bits == 0) {
    out.limbs_ = one_.limbs_;
    return;
  }
  if (scratch.t.size() < k + 2) scratch.t.resize(k + 2);
  Limb* t = scratch.t.data();

  auto windowAt = [&](std::size_t w) {
    unsigned value = 0;
    for (unsigned b = 0; b < 4; ++b) {
      std::size_t idx = w * 4 + b;
      if (idx < bits && exponent.bit(idx)) value |= 1u << b;
    }
    return value;
  };

  const std::size_t nWindows = (bits + 3) / 4;
  out.limbs_.resize(k);
  const unsigned topWindow = windowAt(nWindows - 1);
  std::copy(table + topWindow * k, table + (topWindow + 1) * k, out.limbs_.begin());
  for (std::size_t w = nWindows - 1; w-- > 0;) {
    for (int square = 0; square < 4; ++square) {
      montMulRaw(out.limbs_.data(), out.limbs_.data(), t);
      std::copy(t, t + k, out.limbs_.begin());
    }
    const unsigned value = windowAt(w);
    if (value) {
      montMulRaw(out.limbs_.data(), table + value * k, t);
      std::copy(t, t + k, out.limbs_.begin());
    }
  }
}

void MontgomeryContext::powValue(const MontgomeryValue& base, const BigUInt& exponent,
                                 MontgomeryValue& out, Scratch& scratch) const {
  const std::size_t k = numLimbs_;
  const std::size_t bits = exponent.bitLength();
  if (bits == 0) {
    out.limbs_ = one_.limbs_;
    return;
  }
  if (scratch.t.size() < k + 2) scratch.t.resize(k + 2);
  if (scratch.table.size() < 16 * k) scratch.table.resize(16 * k);
  // table[w] = base^w in-domain; small exponents only need a prefix.
  const unsigned wMax = bits >= 4 ? 15u : static_cast<unsigned>((1u << bits) - 1);
  buildWindowTable(base.limbs_.data(), wMax, scratch.table.data(), scratch.t.data());
  powWithTable(scratch.table.data(), exponent, out, scratch);
}

void MontgomeryContext::prepareWindow(const MontgomeryValue& base, PowWindow& window,
                                      Scratch& scratch) const {
  const std::size_t k = numLimbs_;
  if (scratch.t.size() < k + 2) scratch.t.resize(k + 2);
  window.table.resize(16 * k);
  buildWindowTable(base.limbs_.data(), 15, window.table.data(), scratch.t.data());
  window.limbs = k;
}

void MontgomeryContext::powValueWindowed(const PowWindow& window,
                                         const BigUInt& exponent, MontgomeryValue& out,
                                         Scratch& scratch) const {
  if (window.limbs != numLimbs_) {
    throw std::logic_error("powValueWindowed: window not built for this context");
  }
  powWithTable(window.table.data(), exponent, out, scratch);
}

BigUInt MontgomeryContext::mulMod(const BigUInt& a, const BigUInt& b) const {
  thread_local Scratch scratch;
  thread_local MontgomeryValue bMont;
  const std::size_t k = numLimbs_;
  // a * Mont(b) under one more REDC is a * b * R * R^-1 = a * b mod m: two
  // REDC passes total and no convert-out.
  toValue(b, bMont, scratch);
  const Limb* staged = stagePlain(a, scratch);
  if (scratch.t.size() < k + 2) scratch.t.resize(k + 2);
  montMulRaw(staged, bMont.limbs_.data(), scratch.t.data());
  return BigUInt::fromWords(std::span<const Limb>(scratch.t.data(), k));
}

BigUInt MontgomeryContext::powMod(const BigUInt& base, const BigUInt& exponent) const {
  thread_local Scratch scratch;
  thread_local MontgomeryValue baseMont;
  thread_local MontgomeryValue resultMont;
  toValue(base, baseMont, scratch);
  powValue(baseMont, exponent, resultMont, scratch);
  return fromValue(resultMont);
}

BigUInt MontgomeryContext::toMontgomery(const BigUInt& x) const {
  thread_local Scratch scratch;
  thread_local MontgomeryValue xMont;
  toValue(x, xMont, scratch);
  return BigUInt::fromWords(xMont.limbs_);
}

BigUInt MontgomeryContext::fromMontgomery(const BigUInt& x) const {
  thread_local Scratch scratch;
  const std::size_t k = numLimbs_;
  const Limb* staged = stagePlain(x, scratch);
  if (scratch.t.size() < k + 2) scratch.t.resize(k + 2);
  montMulRaw(staged, plainOne_.data(), scratch.t.data());
  return BigUInt::fromWords(std::span<const Limb>(scratch.t.data(), k));
}

// --- BarrettContext -------------------------------------------------------

namespace {

// The low n limbs of x (x mod B^n).
BigUInt lowWords(const BigUInt& x, std::size_t n) {
  const auto words = x.words();
  if (words.size() <= n) return x;
  return BigUInt::fromWords(words.first(n));
}

}  // namespace

BarrettContext::BarrettContext(BigUInt modulus) : m_(std::move(modulus)) {
  if (m_ < BigUInt{2}) {
    throw std::invalid_argument("BarrettContext: modulus must be >= 2");
  }
  k_ = m_.words().size();
  mu_ = (BigUInt{1} << (2 * k_ * kLimbBits)) / m_;
}

BigUInt BarrettContext::reduce(const BigUInt& x) const {
  if (x < m_) return x;
  // HAC 14.42 requires x < b^(2k); anything wider (an unreduced caller
  // input -- products of two reduced values always fit) would corrupt the
  // quotient estimate and turn the correction loop into ~b^k subtractions.
  if (x.words().size() > 2 * k_) return x % m_;
  // HAC Algorithm 14.42.
  BigUInt q = ((x >> ((k_ - 1) * kLimbBits)) * mu_) >> ((k_ + 1) * kLimbBits);
  BigUInt r1 = lowWords(x, k_ + 1);
  BigUInt r2 = lowWords(q * m_, k_ + 1);
  BigUInt r;
  if (r1 >= r2) {
    r = r1 - r2;
  } else {
    r = (BigUInt{1} << ((k_ + 1) * kLimbBits)) + r1 - r2;
  }
  while (r >= m_) r -= m_;  // At most two iterations.
  return r;
}

BigUInt BarrettContext::mulMod(const BigUInt& a, const BigUInt& b) const {
  return reduce(reduce(a) * reduce(b));
}

BigUInt BarrettContext::powMod(const BigUInt& base, const BigUInt& exponent) const {
  BigUInt result{1};
  BigUInt square = reduce(base);
  BigUInt product;
  const std::size_t bits = exponent.bitLength();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exponent.bit(i)) {
      product = result * square;
      result = reduce(product);
    }
    if (i + 1 < bits) {
      product = square * square;
      square = reduce(product);
    }
  }
  return result;
}

// --- Memoized Montgomery contexts ----------------------------------------

namespace {

// One memoized context. `done` flips exactly once, under `lock`, after
// `context` is written; single-flight is the building/waiting split below
// (same discipline as the prime cache in primes.cpp).
struct MontgomeryCacheEntry {
  std::mutex lock;
  std::condition_variable ready;
  bool done = false;
  std::shared_ptr<const MontgomeryContext> context;
};

// Orders key vectors and BigUInt::words() spans alike, so a lookup builds no
// key; the key vector is made only when a modulus is first seen.
struct LimbsLess {
  using is_transparent = void;
  bool operator()(std::span<const Limb> a, std::span<const Limb> b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }
};

struct MontgomeryCacheState {
  std::mutex tableLock;
  std::map<std::vector<Limb>, std::shared_ptr<MontgomeryCacheEntry>, LimbsLess> table;
  std::atomic<std::size_t> builds{0};
};

MontgomeryCacheState& montgomeryCacheState() {
  static MontgomeryCacheState state;
  return state;
}

}  // namespace

std::shared_ptr<const MontgomeryContext> cachedMontgomeryContext(const BigUInt& modulus) {
  if (!modulus.isOdd() || modulus < BigUInt{3}) {
    throw std::invalid_argument(
        "cachedMontgomeryContext: modulus must be odd and >= 3");
  }
  MontgomeryCacheState& state = montgomeryCacheState();

  std::shared_ptr<MontgomeryCacheEntry> entry;
  bool firstUser = false;
  {
    std::lock_guard<std::mutex> guard(state.tableLock);
    const std::span<const Limb> key = modulus.words();
    auto it = state.table.find(key);
    if (it == state.table.end()) {
      it = state.table
               .emplace(std::vector<Limb>(key.begin(), key.end()),
                        std::make_shared<MontgomeryCacheEntry>())
               .first;
      firstUser = true;
    }
    entry = it->second;
  }

  if (firstUser) {
    // Single flight: this thread builds the one context for the modulus
    // (the modulus was validated above, so construction cannot throw and
    // strand the waiters).
    auto context = std::make_shared<const MontgomeryContext>(modulus);
    state.builds.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> guard(entry->lock);
    entry->context = std::move(context);
    entry->done = true;
    entry->ready.notify_all();
    return entry->context;
  }

  std::unique_lock<std::mutex> guard(entry->lock);
  entry->ready.wait(guard, [&] { return entry->done; });
  return entry->context;
}

std::size_t montgomeryCacheBuildCount() {
  return montgomeryCacheState().builds.load(std::memory_order_relaxed);
}

void montgomeryCacheResetForTests() {
  MontgomeryCacheState& state = montgomeryCacheState();
  std::lock_guard<std::mutex> guard(state.tableLock);
  state.table.clear();
  state.builds.store(0, std::memory_order_relaxed);
}

}  // namespace dip::util
