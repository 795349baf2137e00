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

// The runtime-k product: a stack accumulator up to kStackLimbs limbs (8192
// bits), the heap beyond (no protocol field comes near).
constexpr std::size_t kStackLimbs = 128;

void mulRuntimeWidth(const mont::Modulus& mod, const Limb* a, const Limb* b, Limb* out) {
  if (mod.k <= kStackLimbs) {
    Limb t[kStackLimbs + 2];
    std::fill_n(t, mod.k + 2, Limb{0});
    mont::mul<0>(mod, a, b, t);
    std::copy_n(t, mod.k, out);
    return;
  }
  std::vector<Limb> t(mod.k + 2);
  mont::mul<0>(mod, a, b, t.data());
  std::copy_n(t.data(), mod.k, out);
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
}

void MontgomeryContext::mulRaw(const Limb* a, const Limb* b, Limb* out) const {
  const mont::Modulus mod = kernelModulus();
  mont::dispatch(numLimbs_, [&](auto width) {
    constexpr std::size_t K = decltype(width)::value;
    if constexpr (K != 0) {
      Limb t[K + 2] = {};
      mont::mul<K>(mod, a, b, t);
      std::copy_n(t, K, out);
    } else {
      mulRuntimeWidth(mod, a, b, out);
    }
  });
}

void MontgomeryContext::padReduced(const BigUInt& x, Limb* out) const {
  std::fill(out, out + numLimbs_, 0);
  if (x < m_) {
    const auto words = x.words();
    std::copy(words.begin(), words.end(), out);
  } else {
    BigUInt reduced = x % m_;
    const auto words = reduced.words();
    std::copy(words.begin(), words.end(), out);
  }
}

const MontgomeryContext::Limb* MontgomeryContext::stagePlain(const BigUInt& x,
                                                             Scratch& scratch) const {
  if (scratch.stage.size() < numLimbs_) scratch.stage.resize(numLimbs_);
  padReduced(x, scratch.stage.data());
  return scratch.stage.data();
}

void MontgomeryContext::toRaw(const BigUInt& x, Limb* out) const {
  padReduced(x, out);
  mulRaw(out, rSquared_.limbs_.data(), out);
}

void MontgomeryContext::toValue(const BigUInt& x, MontgomeryValue& out,
                                Scratch& /*scratch*/) const {
  out.limbs_.resize(numLimbs_);
  toRaw(x, out.limbs_.data());
}

MontgomeryValue MontgomeryContext::toValue(const BigUInt& x) const {
  MontgomeryValue out;
  out.limbs_.resize(numLimbs_);
  toRaw(x, out.limbs_.data());
  return out;
}

BigUInt MontgomeryContext::rawToPlain(const Limb* v) const {
  const mont::Modulus mod = kernelModulus();
  return BigUInt::fromWords(numLimbs_, [&](std::span<Limb> out) {
    mont::dispatch(numLimbs_, [&](auto width) {
      mont::redc<decltype(width)::value>(mod, v, out.data());
    });
  });
}

BigUInt MontgomeryContext::fromValue(const MontgomeryValue& v) const {
  return rawToPlain(v.limbs_.data());
}

void MontgomeryContext::mulValue(const MontgomeryValue& a, const MontgomeryValue& b,
                                 MontgomeryValue& out, Scratch& /*scratch*/) const {
  out.limbs_.resize(numLimbs_);
  mulRaw(a.limbs_.data(), b.limbs_.data(), out.limbs_.data());
}

void MontgomeryContext::addValue(const MontgomeryValue& a, const MontgomeryValue& b,
                                 MontgomeryValue& out) const {
  out.limbs_.resize(numLimbs_);
  addRaw(a.limbs_.data(), b.limbs_.data(), out.limbs_.data());
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

void MontgomeryContext::addRaw(const Limb* a, const Limb* b, Limb* out) const {
  const mont::Modulus mod = kernelModulus();
  mont::dispatch(numLimbs_, [&](auto width) {
    mont::add<decltype(width)::value>(mod, a, b, out);
  });
}

void MontgomeryContext::buildWindowTable(const Limb* base, unsigned wMax,
                                         Limb* table) const {
  const std::size_t k = numLimbs_;
  std::copy(one_.limbs_.begin(), one_.limbs_.end(), table);
  if (wMax >= 1) std::copy(base, base + k, table + k);
  for (unsigned w = 2; w <= wMax; ++w) {
    mulRaw(table + (w - 1) * k, table + k, table + w * k);
  }
}

void MontgomeryContext::powWithTable(const Limb* table, const BigUInt& exponent,
                                     MontgomeryValue& out) const {
  const std::size_t k = numLimbs_;
  const std::size_t bits = exponent.bitLength();
  if (bits == 0) {
    out.limbs_ = one_.limbs_;
    return;
  }

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
  Limb* acc = out.limbs_.data();
  const unsigned topWindow = windowAt(nWindows - 1);
  std::copy(table + topWindow * k, table + (topWindow + 1) * k, acc);
  for (std::size_t w = nWindows - 1; w-- > 0;) {
    for (int square = 0; square < 4; ++square) mulRaw(acc, acc, acc);
    const unsigned value = windowAt(w);
    if (value) mulRaw(acc, table + value * k, acc);
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
  if (scratch.table.size() < 16 * k) scratch.table.resize(16 * k);
  // table[w] = base^w in-domain; small exponents only need a prefix.
  const unsigned wMax = bits >= 4 ? 15u : static_cast<unsigned>((1u << bits) - 1);
  buildWindowTable(base.limbs_.data(), wMax, scratch.table.data());
  powWithTable(scratch.table.data(), exponent, out);
}

BigUInt MontgomeryContext::mulMod(const BigUInt& a, const BigUInt& b) const {
  thread_local Scratch scratch;
  thread_local MontgomeryValue bMont;
  // a * Mont(b) under one more REDC is a * b * R * R^-1 = a * b mod m: two
  // REDC passes total and no convert-out.
  toValue(b, bMont, scratch);
  const Limb* staged = stagePlain(a, scratch);
  return BigUInt::fromWords(numLimbs_, [&](std::span<Limb> out) {
    mulRaw(staged, bMont.limbs_.data(), out.data());
  });
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
  return BigUInt::fromWords(toValue(x).limbs_);
}

BigUInt MontgomeryContext::fromMontgomery(const BigUInt& x) const {
  thread_local Scratch scratch;
  return rawToPlain(stagePlain(x, scratch));
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
