// Primality testing and prime search.
//
// The paper's hash family (Theorem 3.2) is parameterized by a prime p;
// Protocol 1 uses p in [10 n^3, 100 n^3], Protocol 2 uses
// p in [10 n^(n+2), 100 n^(n+2)] (whose existence the paper gets from
// Bertrand's postulate), and the GNI protocol's eps-API hash needs a prime
// field of ~ log2(n!) + O(log n) bits. findPrimeInRange performs a
// randomized search with Miller-Rabin certification; each witness round runs
// in the Montgomery domain of the candidate (MontgomeryContext's value API,
// the same windowed ladder as powMod).
#pragma once

#include <cstdint>

#include "util/biguint.hpp"
#include "util/rng.hpp"

namespace dip::util {

// Miller-Rabin probabilistic primality test. Error probability at most
// 4^-rounds for composites; always correct for primes.
bool isProbablePrime(const BigUInt& candidate, Rng& rng, int rounds = 24);

// Finds a (probable) prime in [lo, hi]; throws std::runtime_error if the
// randomized search exhausts its attempt budget (essentially impossible for
// ranges [x, 10x] by the prime number theorem).
BigUInt findPrimeInRange(const BigUInt& lo, const BigUInt& hi, Rng& rng);

// Like findPrimeInRange, but prefilters each candidate through a packed
// small-prime sieve (all odd primes < 2^16, folded into 64-bit products; one
// modU64 + gcd pass per product) before any Miller-Rabin witness round.
// Faster for big windows, but consumes the Rng differently from
// findPrimeInRange (sieve-rejected candidates never draw witness bases), so
// the two searchers find different primes for the same window and seed.
BigUInt findPrimeInRangeSieved(const BigUInt& lo, const BigUInt& hi, Rng& rng);

// Finds a (probable) prime with exactly `bits` bits (top bit set).
BigUInt findPrimeWithBits(std::size_t bits, Rng& rng);

// --- Memoized prime search -----------------------------------------------
//
// Protocol families re-derive a prime for the same window [lo, hi] (e.g.
// [10 n^(n+2), 100 n^(n+2)]) on every construction; under the trial engine
// many workers would otherwise race to repeat the identical Miller-Rabin
// search. The cache below memoizes one prime per window for the whole
// process, with single-flight locking: concurrent first-users of a window
// block on the one thread performing the search.
//
// Determinism contract: the cached prime for a window is a pure function of
// (lo, hi) — the search runs on Rng(primeSearchSeed(lo, hi)), never on a
// caller's stream — so results cannot depend on which trial or thread asked
// first, and a cold search with the same derived seed reproduces the cached
// value exactly. Windows whose hi is below 64 bits reproduce a cold
// findPrimeInRange; wider windows (the new big-prime acceptance tiers) use
// findPrimeInRangeSieved.

// The seed the cache derives for a window (exposed so tests can reproduce
// the cold search bit-for-bit).
std::uint64_t primeSearchSeed(const BigUInt& lo, const BigUInt& hi);

// Memoized equivalent of findPrimeInRange.
BigUInt cachedPrimeInRange(const BigUInt& lo, const BigUInt& hi);

// Observability hooks for tests: how many real window searches ran since
// process start (or the last reset), and a test-only reset that drops every
// memoized window.
std::size_t primeCacheSearchCount();
void primeCacheResetForTests();

}  // namespace dip::util
