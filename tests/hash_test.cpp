// Tests for the hashing substrate: the linear family of Theorem 3.2 and the
// distributed eps-almost-pairwise-independent hash of Section 4. Row and
// entry hashes come from the batch engine; sparse vectors, which only the
// reference evaluator of tests/linear_hash_ref hashes, check them.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <utility>

#include "graph/generators.hpp"
#include "hash/batch_eval.hpp"
#include "hash/eps_api.hpp"
#include "hash/linear_hash.hpp"
#include "linear_hash_ref.hpp"
#include "util/bitio.hpp"
#include "util/mathutil.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::hash {
namespace {

using util::BigUInt;
using util::DynBitset;
using util::Rng;

LinearHashFamily smallFamily(std::uint64_t p, std::uint64_t n) {
  return LinearHashFamily(BigUInt{p}, n * n);
}

BigUInt hashSparse(const LinearHashFamily& family, const BigUInt& a,
                   std::span<const std::pair<std::uint64_t, std::uint64_t>> entries) {
  return LinearHashEvaluator(family, a).hashSparse(entries);
}

BigUInt hashMatrixRow(const LinearHashFamily& family, const BigUInt& a,
                      std::uint64_t rowIndex, const DynBitset& row, std::uint64_t n) {
  BatchLinearHashEvaluator batch;
  batch.rebind(family, a);
  return batch.hashMatrixRow(rowIndex, row, n);
}

TEST(LinearHash, Linearity) {
  // Theorem 3.2 property (1): h(x + x') = h(x) + h(x') — verified on
  // disjoint matrix rows, which is exactly how the protocols use it.
  Rng rng(61);
  const std::uint64_t n = 8;
  LinearHashFamily family = makeProtocol1Family(n, rng);
  graph::Graph g = graph::randomConnected(n, 6, rng);

  BigUInt a = family.randomIndex(rng);
  BigUInt sumOfRowHashes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> allEntries;
  for (graph::Vertex v = 0; v < n; ++v) {
    DynBitset closed = g.closedRow(v);
    sumOfRowHashes =
        util::addMod(sumOfRowHashes, hashMatrixRow(family, a, v, closed, n), family.prime());
    closed.forEachSet([&](std::size_t w) { allEntries.push_back({v * n + w, 1}); });
  }
  EXPECT_EQ(hashSparse(family, a, allEntries), sumOfRowHashes);
}

TEST(LinearHash, RowHashMatchesSparseHash) {
  Rng rng(62);
  const std::uint64_t n = 6;
  LinearHashFamily family = smallFamily(10007, n);
  DynBitset row(n);
  row.set(0);
  row.set(3);
  row.set(5);
  BigUInt a{1234};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries{
      {2 * n + 0, 1}, {2 * n + 3, 1}, {2 * n + 5, 1}};
  EXPECT_EQ(hashMatrixRow(family, a, 2, row, n), hashSparse(family, a, entries));
}

TEST(LinearHash, MatrixEntryWithCoefficient) {
  const std::uint64_t n = 5;
  LinearHashFamily family = smallFamily(101, n);
  BigUInt a{7};
  // coefficient * a^(position+1) mod p, position = 3*n+2 = 17.
  BigUInt expect = util::mulMod(util::powMod(a, BigUInt{18}, family.prime()),
                                BigUInt{4}, family.prime());
  BatchLinearHashEvaluator batch;
  batch.rebind(family, a);
  EXPECT_EQ(batch.hashMatrixEntry(3, 2, 4, n), expect);
}

TEST(LinearHash, RejectsEvenModulusAboveTwoToTheSixtyFour) {
  // An even p >= 2^64 is not prime and no evaluator backend serves it; p = 2
  // (the default family's) fits the u64 backend.
  const BigUInt even = (BigUInt{1} << 64) + BigUInt{2};
  EXPECT_THROW(LinearHashFamily(even, 4), std::invalid_argument);
  EXPECT_THROW(LinearHashFamily(BigUInt{1}, 4), std::invalid_argument);
  const LinearHashFamily placeholder;
  DynBitset row(1);
  row.set(0);
  EXPECT_EQ(hashMatrixRow(placeholder, BigUInt{1}, 0, row, 1), BigUInt{1});
}

TEST(LinearHash, EmpiricalCollisionRateWithinBound) {
  // Theorem 3.2 property (2): Pr[h(x) = h(x')] <= m/p for x != x'.
  Rng rng(63);
  const std::uint64_t n = 6;
  const std::uint64_t m = n * n;
  LinearHashFamily family = smallFamily(4099, n);  // Prime ~ 4x the bound's 10n^3.

  std::size_t collisions = 0;
  const std::size_t trials = 4000;
  for (std::size_t t = 0; t < trials; ++t) {
    // Two distinct random sparse vectors.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> x1{{rng.nextBelow(m), 1}};
    std::vector<std::pair<std::uint64_t, std::uint64_t>> x2{{rng.nextBelow(m), 1}};
    if (x1 == x2) continue;
    BigUInt a = family.randomIndex(rng);
    if (hashSparse(family, a, x1) == hashSparse(family, a, x2)) ++collisions;
  }
  double rate = static_cast<double>(collisions) / trials;
  EXPECT_LE(rate, family.collisionBound() * 2.0 + 0.005);
}

TEST(LinearHash, Protocol1FamilyParameters) {
  Rng rng(64);
  for (std::size_t n : {4u, 16u, 64u}) {
    LinearHashFamily family = makeProtocol1Family(n, rng);
    BigUInt n3 = BigUInt::pow(BigUInt{n}, 3);
    EXPECT_GE(family.prime(), BigUInt{10} * n3);
    EXPECT_LE(family.prime(), BigUInt{100} * n3);
    EXPECT_EQ(family.dimension(), n * n);
    EXPECT_TRUE(util::isProbablePrime(family.prime(), rng));
    // Soundness headroom: m/p <= 1/(10 n) < 1/3.
    EXPECT_LT(family.collisionBound(), 1.0 / (10.0 * static_cast<double>(n)) + 1e-12);
  }
}

TEST(LinearHash, Protocol2FamilyParameters) {
  Rng rng(65);
  for (std::size_t n : {4u, 8u, 12u}) {
    LinearHashFamily family = makeProtocol2Family(n, rng);
    BigUInt nPow = BigUInt::pow(BigUInt{n}, n + 2);
    EXPECT_GE(family.prime(), BigUInt{10} * nPow);
    EXPECT_LE(family.prime(), BigUInt{100} * nPow);
    // Seed length is Theta(n log n): enough to union bound n^n mappings.
    EXPECT_GE(family.seedBits(), n);
  }
}

TEST(LinearHash, DistinctMatricesRarelyCollideUnderProtocolFamilies) {
  // End-to-end fingerprint property on real graphs: the fingerprints of
  // sum [v, N(v)] and sum [rho(v), rho(N(v))] for a non-automorphism rho
  // differ for almost every index.
  Rng rng(66);
  const std::size_t n = 8;
  LinearHashFamily family = makeProtocol1Family(n, rng);
  graph::Graph g = graph::randomRigidConnected(n, rng);
  graph::Permutation rho = graph::randomPermutation(n, rng);
  while (graph::isIdentity(rho)) rho = graph::randomPermutation(n, rng);

  std::size_t collisions = 0;
  const std::size_t trials = 300;
  for (std::size_t t = 0; t < trials; ++t) {
    BigUInt a = family.randomIndex(rng);
    BigUInt lhs, rhs;
    for (graph::Vertex v = 0; v < n; ++v) {
      lhs = util::addMod(lhs, hashMatrixRow(family, a, v, g.closedRow(v), n),
                         family.prime());
      rhs = util::addMod(
          rhs,
          hashMatrixRow(family, a, rho[v], graph::Graph::imageOf(g.closedRow(v), rho), n),
          family.prime());
    }
    if (lhs == rhs) ++collisions;
  }
  // Expected collision rate <= n^2/p ~ 1/80; 300 trials should see < 15.
  EXPECT_LT(collisions, 15u);
}

// ---- eps-API hash ----

TEST(EpsApi, ParametersAndEpsilon) {
  Rng rng(67);
  EpsApiHash h = EpsApiHash::create(6, 12, rng);
  EXPECT_EQ(h.n(), 6u);
  EXPECT_EQ(h.outputBits(), 12u);
  // P >= 2^ell * n^2 * 2^slack.
  EXPECT_GE(h.fieldPrime(), (BigUInt{1} << 12) * BigUInt{36} * BigUInt{128});
  EXPECT_LT(h.epsilonBound(), 0.1);
  EXPECT_TRUE(util::isProbablePrime(h.fieldPrime(), rng));
}

TEST(EpsApi, TreeCombineMatchesDirectHash) {
  // The recursive h(T_v) = f(h(T_u1), ..., I(v)) computation must agree
  // with hashing the whole matrix at once.
  Rng rng(68);
  const std::size_t n = 7;
  EpsApiHash h = EpsApiHash::create(n, 10, rng);
  graph::Graph g = graph::randomConnected(n, 5, rng);
  EpsApiHash::Seed seed = h.randomSeed(rng);

  std::vector<DynBitset> rows;
  for (graph::Vertex v = 0; v < n; ++v) rows.push_back(g.closedRow(v));

  LinearHashEvaluator inner(h.inner(), seed.a);
  BigUInt combined;
  for (graph::Vertex v = 0; v < n; ++v) {
    combined = h.combine(combined, inner.hashMatrixRow(v, rows[v], n));
  }
  EXPECT_EQ(h.outer(seed, combined), h.hashRows(seed, rows));
}

TEST(EpsApi, OutputsInRange) {
  Rng rng(70);
  EpsApiHash h = EpsApiHash::create(5, 9, rng);
  BigUInt bound = BigUInt{1} << 9;
  for (int i = 0; i < 50; ++i) {
    EpsApiHash::Seed seed = h.randomSeed(rng);
    BigUInt value = h.outer(seed, rng.nextBigBelow(h.fieldPrime()));
    EXPECT_LT(value, bound);
  }
}

TEST(EpsApi, MarginalsNearUniform) {
  // Property (2) of eps-API (near-regularity): Pr[H(x) = y] ~ 2^-ell.
  Rng rng(71);
  const std::size_t n = 5;
  const std::size_t ell = 4;  // Small range so statistics converge fast.
  EpsApiHash h = EpsApiHash::create(n, ell, rng);
  graph::Graph g = graph::completeGraph(n);
  std::vector<DynBitset> rows;
  for (graph::Vertex v = 0; v < n; ++v) rows.push_back(g.closedRow(v));

  std::vector<std::size_t> histogram(1u << ell, 0);
  const std::size_t trials = 6000;
  for (std::size_t t = 0; t < trials; ++t) {
    EpsApiHash::Seed seed = h.randomSeed(rng);
    histogram[h.hashRows(seed, rows).toU64()] += 1;
  }
  const double expected = static_cast<double>(trials) / (1u << ell);
  for (std::size_t bucket = 0; bucket < histogram.size(); ++bucket) {
    EXPECT_GT(histogram[bucket], expected * 0.6) << "bucket " << bucket;
    EXPECT_LT(histogram[bucket], expected * 1.4) << "bucket " << bucket;
  }
}

TEST(EpsApi, PairwiseCollisionsNearUniform) {
  // The eps-API pairwise property, measured as a collision rate between two
  // fixed distinct matrices: should be ~ 2^-ell (1 + eps).
  Rng rng(72);
  const std::size_t n = 5;
  const std::size_t ell = 4;
  EpsApiHash h = EpsApiHash::create(n, ell, rng);
  graph::Graph g1 = graph::completeGraph(n);
  graph::Graph g2 = graph::cycleGraph(n);
  std::vector<DynBitset> rows1, rows2;
  for (graph::Vertex v = 0; v < n; ++v) {
    rows1.push_back(g1.closedRow(v));
    rows2.push_back(g2.closedRow(v));
  }

  std::size_t collisions = 0;
  const std::size_t trials = 8000;
  for (std::size_t t = 0; t < trials; ++t) {
    EpsApiHash::Seed seed = h.randomSeed(rng);
    if (h.hashRows(seed, rows1) == h.hashRows(seed, rows2)) ++collisions;
  }
  const double rate = static_cast<double>(collisions) / trials;
  const double ideal = 1.0 / (1u << ell);
  EXPECT_GT(rate, ideal * 0.5);
  EXPECT_LT(rate, ideal * (1.0 + h.epsilonBound()) * 1.6);
}

TEST(EpsApi, SeedBitsMatchTheorem) {
  // With ell = Theta(n log n), the seed is O(n log n) bits — the budget of
  // Theorem 1.5.
  Rng rng(73);
  for (std::size_t n : {4u, 6u, 8u}) {
    std::size_t ell = util::factorial(n).bitLength() + 2;
    EpsApiHash h = EpsApiHash::create(n, ell, rng);
    EXPECT_LE(h.seedBits(), 3 * (ell + 2 * util::BigUInt{n}.bitLength() + 9));
  }
}

}  // namespace
}  // namespace dip::hash
