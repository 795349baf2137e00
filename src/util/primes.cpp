#include "util/primes.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/montgomery.hpp"

namespace dip::util {

namespace {

// Small primes for cheap trial division before Miller-Rabin.
constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// One Miller-Rabin round with the given base; n must be odd and > 3,
// n - 1 == d * 2^s with d odd. The whole round runs inside the Montgomery
// domain: equality in-domain is equality of residues, so comparing against
// Mont(1) and Mont(n-1) needs zero convert-outs.
bool millerRabinRound(const MontgomeryContext& ctx, MontgomeryContext::Scratch& scratch,
                      const MontgomeryValue& oneV, const MontgomeryValue& nMinus1V,
                      const BigUInt& d, std::size_t s, const BigUInt& base) {
  MontgomeryValue x;
  ctx.toValue(base, x, scratch);
  ctx.powValue(x, d, x, scratch);
  if (x == oneV || x == nMinus1V) return true;
  for (std::size_t i = 1; i < s; ++i) {
    ctx.mulValue(x, x, x, scratch);
    if (x == nMinus1V) return true;
    if (x == oneV) return false;  // Non-trivial sqrt of 1 found.
  }
  return false;
}

// Miller-Rabin witness rounds for an odd candidate > 3 (no trial division).
// Draws one base from `rng` per round, exactly like the seed implementation,
// so callers' Rng streams are consumed identically.
bool millerRabinIsPrime(const BigUInt& candidate, Rng& rng, int rounds) {
  BigUInt nMinus1 = candidate - BigUInt{1};
  BigUInt d = nMinus1;
  std::size_t s = 0;
  while (!d.isOdd()) {
    d >>= 1;
    ++s;
  }
  MontgomeryContext ctx(candidate);
  MontgomeryContext::Scratch scratch;
  MontgomeryValue nMinus1V;
  ctx.toValue(nMinus1, nMinus1V, scratch);
  const MontgomeryValue& oneV = ctx.oneValue();
  BigUInt lowBound{2};
  BigUInt span = nMinus1 - BigUInt{2};  // Bases drawn from [2, n-2].
  for (int round = 0; round < rounds; ++round) {
    BigUInt base = addMod(rng.nextBigBelow(span), lowBound, candidate);
    if (!millerRabinRound(ctx, scratch, oneV, nMinus1V, d, s, base)) return false;
  }
  return true;
}

// --- Small-prime sieve prefilter -----------------------------------------
//
// Every odd prime below 2^16, packed into 64-bit products of consecutive
// primes. One modU64 pass per product plus one u64 gcd rejects any candidate
// sharing a factor with the group — ~90% of random odd candidates die in
// the first few groups, before any Miller-Rabin witness round. Only valid
// for candidates > 2^16 (a candidate cannot itself be one of the sieved
// primes there).

struct SieveGroups {
  std::vector<std::uint64_t> products;
};

const SieveGroups& smallPrimeSieve() {
  static const SieveGroups groups = [] {
    constexpr std::uint32_t kBound = 1u << 16;
    std::vector<bool> composite(kBound, false);
    SieveGroups out;
    std::uint64_t product = 1;
    for (std::uint32_t p = 3; p < kBound; p += 2) {
      if (composite[p]) continue;
      for (std::uint64_t q = static_cast<std::uint64_t>(p) * p; q < kBound; q += 2 * p) {
        composite[static_cast<std::uint32_t>(q)] = true;
      }
      if (product > (~0ull) / p) {
        out.products.push_back(product);
        product = 1;
      }
      product *= p;
    }
    if (product > 1) out.products.push_back(product);
    return out;
  }();
  return groups;
}

// False iff the candidate shares a factor with some odd prime < 2^16.
// Requires an odd candidate with more than 32 bits.
bool passesSmallPrimeSieve(const BigUInt& candidate) {
  const SieveGroups& sieve = smallPrimeSieve();
  for (std::uint64_t product : sieve.products) {
    std::uint64_t r = candidate.modU64(product);
    if (std::gcd(r, product) != 1) return false;
  }
  return true;
}

}  // namespace

bool isProbablePrime(const BigUInt& candidate, Rng& rng, int rounds) {
  if (candidate < BigUInt{2}) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (candidate == BigUInt{p}) return true;
    if (candidate.modU32(p) == 0) return false;
  }
  // candidate is odd and > 251 here.
  return millerRabinIsPrime(candidate, rng, rounds);
}

BigUInt findPrimeInRange(const BigUInt& lo, const BigUInt& hi, Rng& rng) {
  if (hi < lo) throw std::invalid_argument("findPrimeInRange: empty range");
  BigUInt span = hi - lo + BigUInt{1};
  // By the prime number theorem a random value near x is prime with
  // probability ~ 1/ln(x); budget generously.
  const std::size_t bits = hi.bitLength();
  const std::size_t maxAttempts = 400 + 60 * bits;
  for (std::size_t attempt = 0; attempt < maxAttempts; ++attempt) {
    BigUInt candidate = lo + rng.nextBigBelow(span);
    if (!candidate.isOdd()) {
      if (candidate + BigUInt{1} > hi) continue;
      candidate += BigUInt{1};
    }
    if (isProbablePrime(candidate, rng)) return candidate;
  }
  throw std::runtime_error("findPrimeInRange: attempt budget exhausted");
}

BigUInt findPrimeInRangeSieved(const BigUInt& lo, const BigUInt& hi, Rng& rng) {
  if (hi < lo) throw std::invalid_argument("findPrimeInRangeSieved: empty range");
  BigUInt span = hi - lo + BigUInt{1};
  const std::size_t bits = hi.bitLength();
  const std::size_t maxAttempts = 400 + 60 * bits;
  for (std::size_t attempt = 0; attempt < maxAttempts; ++attempt) {
    BigUInt candidate = lo + rng.nextBigBelow(span);
    if (!candidate.isOdd()) {
      if (candidate + BigUInt{1} > hi) continue;
      candidate += BigUInt{1};
    }
    if (candidate.bitLength() <= 32) {
      // Too small for the sieve's "not itself a sieved prime" precondition.
      if (isProbablePrime(candidate, rng)) return candidate;
      continue;
    }
    if (!passesSmallPrimeSieve(candidate)) continue;
    if (millerRabinIsPrime(candidate, rng, 24)) return candidate;
  }
  throw std::runtime_error("findPrimeInRangeSieved: attempt budget exhausted");
}

BigUInt findPrimeWithBits(std::size_t bits, Rng& rng) {
  if (bits < 2) throw std::invalid_argument("findPrimeWithBits: need >= 2 bits");
  BigUInt lo = BigUInt{1} << (bits - 1);
  BigUInt hi = (BigUInt{1} << bits) - BigUInt{1};
  return findPrimeInRange(lo, hi, rng);
}

// --- Memoized prime search -----------------------------------------------

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Fold a BigUInt into a running 64-bit digest, bit-length first so windows
// with shared low bits stay distinct.
std::uint64_t foldBig(std::uint64_t acc, const BigUInt& value) {
  acc = mix64(acc ^ value.bitLength());
  const std::size_t bits = value.bitLength();
  for (std::size_t base = 0; base < bits; base += 64) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < 64 && base + i < bits; ++i) {
      if (value.bit(base + i)) word |= (1ull << i);
    }
    acc = mix64(acc ^ word);
  }
  return acc;
}

// One memoized window. `done` flips exactly once, under `lock`, after
// `value` is written; single-flight is the searching/waiting split below.
struct PrimeCacheEntry {
  std::mutex lock;
  std::condition_variable ready;
  bool done = false;
  BigUInt value;
};

struct PrimeCacheState {
  std::mutex tableLock;
  std::map<std::pair<BigUInt, BigUInt>, std::shared_ptr<PrimeCacheEntry>> table;
  std::atomic<std::size_t> searches{0};
};

PrimeCacheState& primeCacheState() {
  static PrimeCacheState state;
  return state;
}

}  // namespace

std::uint64_t primeSearchSeed(const BigUInt& lo, const BigUInt& hi) {
  std::uint64_t acc = 0x9E3779B97F4A7C15ull;
  acc = foldBig(acc, lo);
  acc = foldBig(acc, hi);
  return mix64(acc);
}

BigUInt cachedPrimeInRange(const BigUInt& lo, const BigUInt& hi) {
  if (hi < lo) throw std::invalid_argument("cachedPrimeInRange: empty range");
  PrimeCacheState& state = primeCacheState();

  std::shared_ptr<PrimeCacheEntry> entry;
  bool firstUser = false;
  {
    std::lock_guard<std::mutex> guard(state.tableLock);
    auto [it, inserted] =
        state.table.try_emplace(std::make_pair(lo, hi), nullptr);
    if (inserted) {
      it->second = std::make_shared<PrimeCacheEntry>();
      firstUser = true;
    }
    entry = it->second;
  }

  if (firstUser) {
    // Single flight: this thread performs the one search for the window.
    // The search seed depends only on the window, so the memoized prime is
    // identical to a cold search with the same derived Rng. Windows below 64
    // bits keep the seed search verbatim (their cached primes are pinned by
    // committed experiment tables); big windows — new acceptance tiers —
    // take the sieve-prefiltered searcher, whose Rng interleaving differs
    // (rejected candidates never draw witness bases).
    Rng rng(primeSearchSeed(lo, hi));
    BigUInt prime = hi.bitLength() >= 64 ? findPrimeInRangeSieved(lo, hi, rng)
                                         : findPrimeInRange(lo, hi, rng);
    state.searches.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> guard(entry->lock);
    entry->value = std::move(prime);
    entry->done = true;
    entry->ready.notify_all();
    return entry->value;
  }

  std::unique_lock<std::mutex> guard(entry->lock);
  entry->ready.wait(guard, [&] { return entry->done; });
  return entry->value;
}

std::size_t primeCacheSearchCount() {
  return primeCacheState().searches.load(std::memory_order_relaxed);
}

void primeCacheResetForTests() {
  PrimeCacheState& state = primeCacheState();
  std::lock_guard<std::mutex> guard(state.tableLock);
  state.table.clear();
  state.searches.store(0, std::memory_order_relaxed);
}

}  // namespace dip::util
