// Canonical-form tests, including the independent cross-validation of the
// isomorphism engine and the census.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "canonical_ref.hpp"
#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "lb/census.hpp"
#include "util/rng.hpp"

namespace dip::graph {
namespace {

TEST(Canonical, InvariantUnderRelabeling) {
  util::Rng rng(271);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = erdosRenyi(6, 0.5, rng);
    Graph h = randomIsomorphicCopy(g, rng);
    EXPECT_EQ(canonicalForm(g), canonicalForm(h));
  }
}

TEST(Canonical, InvariantUnderRelabelingLargerGraphs) {
  // The branch-and-bound engine handles sizes the n! sweep never could;
  // relabeling invariance is the property test that needs no oracle.
  util::Rng rng(273);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 9 + static_cast<std::size_t>(trial % 8);
    Graph g = erdosRenyi(n, 0.4, rng);
    Graph h = randomIsomorphicCopy(g, rng);
    EXPECT_EQ(canonicalForm(g), canonicalForm(h)) << "n=" << n;
  }
}

TEST(Canonical, SeparatesNonIsomorphicGraphs) {
  EXPECT_NE(canonicalForm(pathGraph(5)), canonicalForm(starGraph(5)));
  Graph twoTriangles =
      Graph::fromEdges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_NE(canonicalForm(cycleGraph(6)), canonicalForm(twoTriangles));
}

TEST(Canonical, AgreesWithBruteForceOracleExhaustively) {
  // The IR-pruned branch-and-bound must equal the all-permutations minimum
  // on EVERY graph with n <= 6 (2^15 graphs at n = 6 alone).
  for (std::size_t n = 1; n <= 6; ++n) {
    const std::size_t slots = n * (n - 1) / 2;
    for (std::uint64_t code = 0; code < (1ull << slots); ++code) {
      Graph g = Graph::fromUpperTriangleCode(n, code);
      ASSERT_EQ(canonicalForm(g), bruteForceCanonicalForm(g))
          << "n=" << n << " code=" << code;
    }
  }
}

TEST(Canonical, AgreesWithSearchEngineOnRandomPairs) {
  // Two independent isomorphism deciders must agree on every pair.
  util::Rng rng(272);
  for (int trial = 0; trial < 40; ++trial) {
    Graph g0 = erdosRenyi(5, 0.5, rng);
    Graph g1 = (trial % 3 == 0) ? randomIsomorphicCopy(g0, rng) : erdosRenyi(5, 0.5, rng);
    EXPECT_EQ(isomorphicByCanonicalForm(g0, g1), areIsomorphic(g0, g1)) << trial;
  }
}

TEST(Canonical, ClassCountsMatchBurnsideCensus) {
  // Counting isomorphism classes two entirely different ways — canonical
  // deduplication vs Burnside orbit counting — must agree exactly.
  for (std::size_t n = 1; n <= 5; ++n) {
    EXPECT_EQ(countIsoClassesByCanonicalForm(n), lb::exhaustiveCensus(n).isoClasses)
        << "n=" << n;
  }
}

TEST(Canonical, RejectsOversizedGraphs) {
  // The brute oracle still stops at n = 8 (9! permutations is already too
  // many); the branch-and-bound engine stops at the 64-bit pattern limit.
  EXPECT_THROW(bruteForceCanonicalForm(Graph(9)), std::invalid_argument);
  EXPECT_THROW(canonicalForm(Graph(65)), std::invalid_argument);
  EXPECT_NO_THROW(canonicalForm(Graph(9)));
}

TEST(CanonicalCache, SecondLookupIsAHit) {
  canonicalFormCacheResetForTests();
  util::Rng rng(274);
  Graph g = erdosRenyi(7, 0.5, rng);
  const std::size_t before = canonicalFormCacheSearches();
  std::vector<std::uint8_t> first = cachedCanonicalForm(g);
  EXPECT_EQ(canonicalFormCacheSearches(), before + 1);
  EXPECT_EQ(cachedCanonicalForm(g), first);
  EXPECT_EQ(canonicalFormCacheSearches(), before + 1);  // No new search ran.
  EXPECT_EQ(first, canonicalForm(g));

  // A different graph is a distinct entry.
  cachedCanonicalForm(erdosRenyi(7, 0.5, rng));
  EXPECT_EQ(canonicalFormCacheSearches(), before + 2);
}

TEST(CanonicalCache, ConcurrentFirstUseRunsExactlyOneSearch) {
  canonicalFormCacheResetForTests();
  util::Rng rng(275);
  Graph g = erdosRenyi(8, 0.5, rng);
  const std::size_t before = canonicalFormCacheSearches();

  const std::size_t threads = 8;
  std::vector<std::vector<std::uint8_t>> seen(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] { seen[i] = cachedCanonicalForm(g); });
  }
  for (std::thread& t : pool) t.join();

  // Single-flight: every thread observed the same form and only one search
  // ran, no matter how the threads raced to the empty cache.
  EXPECT_EQ(canonicalFormCacheSearches(), before + 1);
  for (std::size_t i = 1; i < threads; ++i) EXPECT_EQ(seen[i], seen[0]);
  EXPECT_EQ(seen[0], canonicalForm(g));
}

}  // namespace
}  // namespace dip::graph
