#include "util/montgomery.hpp"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>

namespace dip::util {

namespace {

using Limb = BigUInt::Limb;
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

void MontgomeryContext::powValue(const MontgomeryValue& base, const BigUInt& exponent,
                                 MontgomeryValue& out, Scratch& scratch) const {
  const std::size_t k = numLimbs_;
  const std::size_t bits = exponent.bitLength();
  if (bits == 0) {
    out.limbs_ = one_.limbs_;
    return;
  }
  if (scratch.table.size() < 16 * k) scratch.table.resize(16 * k);
  // table[w] = base^w in-domain; small exponents only need a prefix. The
  // table is built before out is written, so out may alias base.
  Limb* table = scratch.table.data();
  const unsigned wMax = bits >= 4 ? 15u : static_cast<unsigned>((1u << bits) - 1);
  buildWindowTable(base.limbs_.data(), wMax, table);

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

BigUInt MontgomeryContext::powMod(const BigUInt& base, const BigUInt& exponent) const {
  thread_local Scratch scratch;
  thread_local MontgomeryValue baseMont;
  thread_local MontgomeryValue resultMont;
  toValue(base, baseMont, scratch);
  powValue(baseMont, exponent, resultMont, scratch);
  return fromValue(resultMont);
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

void montgomeryCacheResetForTests() {
  MontgomeryCacheState& state = montgomeryCacheState();
  std::lock_guard<std::mutex> guard(state.tableLock);
  state.table.clear();
}

}  // namespace dip::util
