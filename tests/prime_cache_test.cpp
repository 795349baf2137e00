// The process-wide memoized prime cache (util/primes): hit/miss semantics,
// reproducibility of the window-derived search, and single-flight locking
// under concurrent first use.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/biguint.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::util {
namespace {

TEST(prime_cache, CachedMatchesColdSearch) {
  primeCacheResetForTests();
  const BigUInt lo{10000};
  const BigUInt hi{100000};

  BigUInt cached = cachedPrimeInRange(lo, hi);
  // The determinism contract: the cache seeds its search purely from the
  // window, so a cold search with the derived seed reproduces it exactly.
  Rng cold(primeSearchSeed(lo, hi));
  BigUInt fresh = findPrimeInRange(lo, hi, cold);
  EXPECT_EQ(cached, fresh);
  EXPECT_TRUE(cached >= lo);
  EXPECT_TRUE(cached <= hi);
}

TEST(prime_cache, SecondLookupIsAHit) {
  primeCacheResetForTests();
  const BigUInt lo{3000};
  const BigUInt hi{30000};

  BigUInt first = cachedPrimeInRange(lo, hi);
  std::size_t searches = primeCacheSearchCount();
  EXPECT_EQ(searches, 1u);
  BigUInt second = cachedPrimeInRange(lo, hi);
  EXPECT_EQ(first, second);
  EXPECT_EQ(primeCacheSearchCount(), searches);  // No new search ran.

  // A different window is a distinct entry.
  cachedPrimeInRange(BigUInt{50000}, BigUInt{500000});
  EXPECT_EQ(primeCacheSearchCount(), searches + 1);
}

TEST(prime_cache, ConcurrentFirstUseRunsExactlyOneSearch) {
  primeCacheResetForTests();
  const BigUInt lo{7000000};
  const BigUInt hi{70000000};

  const std::size_t threads = 8;
  std::vector<BigUInt> seen(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] { seen[i] = cachedPrimeInRange(lo, hi); });
  }
  for (std::thread& t : pool) t.join();

  // Single-flight: every thread observed the same value and only one real
  // search ran, no matter how the threads raced to the empty cache.
  EXPECT_EQ(primeCacheSearchCount(), 1u);
  for (std::size_t i = 1; i < threads; ++i) EXPECT_EQ(seen[i], seen[0]);
  Rng cold(primeSearchSeed(lo, hi));
  EXPECT_EQ(seen[0], findPrimeInRange(lo, hi, cold));
}

}  // namespace
}  // namespace dip::util
