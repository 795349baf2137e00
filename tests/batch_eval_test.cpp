// Randomized differential suite: the batch hash engine against the
// reference LinearHashEvaluator of tests/linear_hash_ref, the same oracle
// pattern as biguint_diff_test. Every batch entry point runs seeded random
// (seed, input) matrices through both engines and demands bit-identical
// results, on both backends:
//   - kU64: random moduli anywhere below 2^64 (k = 1 limb);
//   - kMontgomery: random ODD wider moduli at k = 2, 3, 4, 8 and 16 limbs —
//     the fixed-k CIOS kernel widths — and at 5 and 17, which run the
//     runtime-k instance (the context does not require primality, so no
//     prime search in the hot test loop).
// An even modulus wider than 64 bits is rejected.
//
// The single-call forms (hashMatrixEntry, hashMatrixRow) and the
// entry-series accumulator — the shapes behind sym_input's piecesFor
// fingerprints and the GNI eps-API consistency series — get their own
// 10^4-case sweep, and the u64 backend's AVX2 residue lanes are pinned
// against the portable kernel at every gather-tail remainder.
//
// The Montgomery backend's flat-limb loops get their own edge suite: dense
// all-ones rows up to n = 64, moduli whose top limb is all ones (no
// headroom, so row sums must reduce per add) and a prime exactly at the
// lazy-sum boundary bitLength(p) + bitWidth(n) = 64k.
// The shared per-thread chain evaluator is checked across the rebind
// pattern of one trial (prover, adversary, verifier).
//
// CI runs this suite under ASan/UBSan (full ctest) and TSan (the sanitizer
// preset's regex includes batch_eval).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "hash/linear_hash.hpp"
#include "linear_hash_ref.hpp"
#include "net/spanning.hpp"
#include "util/biguint.hpp"
#include "util/bitset.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::hash {
namespace {

// Total (seed, input) matrices per differential test; the Montgomery sweep
// splits its budget evenly across its limb widths.
constexpr int kMatrixCases = 10000;

util::DynBitset randomBits(util::Rng& rng, std::size_t size) {
  util::DynBitset bits(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (rng.nextU64() & 1) bits.set(i);
  }
  return bits;
}

// A modulus of exactly `limbs` 64-bit limbs (top limb nonzero) with the
// requested parity: odd ones run the Montgomery backend, even ones are
// refused.
util::BigUInt randomWideModulus(util::Rng& rng, std::size_t limbs, bool odd) {
  std::vector<std::uint64_t> words(limbs);
  for (auto& word : words) word = rng.nextU64();
  words.back() |= std::uint64_t{1} << 63;
  if (odd) {
    words.front() |= 1;
  } else {
    words.front() &= ~std::uint64_t{1};
  }
  return util::BigUInt::fromWords(words);
}

util::BigUInt randomBelow(util::Rng& rng, const util::BigUInt& bound,
                          std::size_t limbs) {
  for (;;) {
    std::vector<std::uint64_t> words(limbs);
    for (auto& word : words) word = rng.nextU64();
    util::BigUInt value = util::BigUInt::fromWords(words);
    if (value < bound) return value;
  }
}

// One differential case: random n x n matrix slice (row indices + bitset
// rows), hashed by the batch engine and re-hashed row-by-row by the scalar
// evaluator; also checks the accumulate shape against the scalar fold.
void runMatrixCase(util::Rng& rng, const util::BigUInt& p, const util::BigUInt& a,
                   BatchLinearHashEvaluator& batch, LinearHashEvaluator& scalar) {
  const std::uint64_t n = 1 + rng.nextBelow(17);
  batch.rebind(p, n * n, a);
  scalar.rebind(p, n * n, a);

  const std::size_t rowCount = 1 + rng.nextBelow(n);
  std::vector<std::uint64_t> rowIndices;
  std::vector<util::DynBitset> rows;
  rowIndices.reserve(rowCount);
  rows.reserve(rowCount);
  for (std::size_t i = 0; i < rowCount; ++i) {
    rowIndices.push_back(rng.nextBelow(n));
    rows.push_back(randomBits(rng, n));
  }

  std::vector<util::BigUInt> got;
  batch.hashMatrixRows(rowIndices, rows, n, got);
  ASSERT_EQ(got.size(), rowCount);
  util::BigUInt sum;
  for (std::size_t i = 0; i < rowCount; ++i) {
    util::BigUInt want = scalar.hashMatrixRow(rowIndices[i], rows[i], n);
    ASSERT_EQ(got[i].toHex(), want.toHex())
        << "p=" << p.toHex() << " a=" << a.toHex() << " n=" << n << " row " << i;
    sum = util::addMod(sum, want, p);
  }
  EXPECT_EQ(batch.accumulateMatrixRows(rowIndices, rows, n).toHex(), sum.toHex());
}

TEST(batch_eval, U64MatrixRowsMatchScalar) {
  util::Rng rng(0xBA7C4001ull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  for (int i = 0; i < kMatrixCases; ++i) {
    // Random width in [2, 64] bits so small fields and near-2^64 moduli both
    // appear; the add-with-conditional-subtract trick must hold everywhere.
    const std::size_t bits = 2 + rng.nextBelow(63);
    std::uint64_t p = rng.nextU64() >> (64 - bits);
    if (p < 2) p = 2;
    const util::BigUInt pBig{p};
    const util::BigUInt a{rng.nextU64() % p};
    runMatrixCase(rng, pBig, a, batch, scalar);
  }
}

TEST(batch_eval, MontgomeryMatrixRowsMatchScalarAllKernelWidths) {
  util::Rng rng(0xBA7C4002ull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  const std::size_t kernelWidths[] = {2, 3, 4, 5, 8, 16, 17};
  // A handful of moduli per width (context construction is the expensive
  // part), many (seed, input) matrices per modulus.
  const int modsPerWidth = 20;
  const int casesPerMod =
      kMatrixCases / (static_cast<int>(std::size(kernelWidths)) * modsPerWidth);
  for (std::size_t k : kernelWidths) {
    for (int m = 0; m < modsPerWidth; ++m) {
      const util::BigUInt p = randomWideModulus(rng, k, /*odd=*/true);
      for (int c = 0; c < casesPerMod; ++c) {
        const util::BigUInt a = randomBelow(rng, p, k);
        runMatrixCase(rng, p, a, batch, scalar);
      }
    }
  }
}

TEST(batch_eval, EvenWideModulusIsRejected) {
  // No prime is even and wider than 64 bits: rebind refuses such a p and
  // leaves the evaluator bound to its previous field.
  util::Rng rng(0xBA7C4003ull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  const util::BigUInt p{1009};
  batch.rebind(p, 16, util::BigUInt{7});
  scalar.rebind(p, 16, util::BigUInt{7});
  util::DynBitset row(4);
  row.set(1);
  row.set(3);
  for (int i = 0; i < 100; ++i) {
    const std::size_t k = 2 + rng.nextBelow(3);
    const util::BigUInt even = randomWideModulus(rng, k, /*odd=*/false);
    EXPECT_THROW(batch.rebind(even, 16, randomBelow(rng, even, k)), std::invalid_argument);
    EXPECT_THROW(scalar.rebind(even, 16, util::BigUInt{3}), std::invalid_argument);
  }
  EXPECT_EQ(batch.hashMatrixRow(2, row, 4).toHex(), scalar.hashMatrixRow(2, row, 4).toHex());
}

// One differential case for the single-call forms and the entry-series
// accumulator under a pinned index: random entry coordinates against the
// scalar evaluator, plus the scalar fold for accumulateMatrixEntries.
void runEntryCase(util::Rng& rng, const util::BigUInt& p, const util::BigUInt& a,
                  BatchLinearHashEvaluator& batch, LinearHashEvaluator& scalar) {
  const std::uint64_t n = 1 + rng.nextBelow(17);
  batch.rebind(p, n * n, a);
  scalar.rebind(p, n * n, a);

  const std::size_t count = 1 + rng.nextBelow(2 * n);
  std::vector<std::uint64_t> rowIndices(count);
  std::vector<std::uint64_t> colIndices(count);
  util::BigUInt sum;
  for (std::size_t i = 0; i < count; ++i) {
    rowIndices[i] = rng.nextBelow(n);
    colIndices[i] = rng.nextBelow(n);
    sum = util::addMod(sum, scalar.hashMatrixEntry(rowIndices[i], colIndices[i], 1, n),
                       p);
  }
  EXPECT_EQ(batch.accumulateMatrixEntries(rowIndices, colIndices, n).toHex(),
            sum.toHex())
      << "p=" << p.toHex() << " a=" << a.toHex() << " n=" << n;

  const std::uint64_t coefficient = 1 + rng.nextBelow(7);
  ASSERT_EQ(
      batch.hashMatrixEntry(rowIndices[0], colIndices[0], coefficient, n).toHex(),
      scalar.hashMatrixEntry(rowIndices[0], colIndices[0], coefficient, n).toHex());

  const util::DynBitset row = randomBits(rng, n);
  ASSERT_EQ(batch.hashMatrixRow(rowIndices[0], row, n).toHex(),
            scalar.hashMatrixRow(rowIndices[0], row, n).toHex());
}

TEST(batch_eval, U64EntrySeriesMatchScalar) {
  util::Rng rng(0xBA7C4009ull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  for (int i = 0; i < kMatrixCases; ++i) {
    const std::size_t bits = 2 + rng.nextBelow(63);
    std::uint64_t p = rng.nextU64() >> (64 - bits);
    if (p < 2) p = 2;
    const util::BigUInt pBig{p};
    const util::BigUInt a{rng.nextU64() % p};
    runEntryCase(rng, pBig, a, batch, scalar);
  }
}

TEST(batch_eval, WideEntrySeriesMatchScalar) {
  util::Rng rng(0xBA7C400Aull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  for (int i = 0; i < 400; ++i) {
    const std::size_t k = 2 + rng.nextBelow(3);
    const util::BigUInt p = randomWideModulus(rng, k, /*odd=*/true);
    const util::BigUInt a = randomBelow(rng, p, k);
    runEntryCase(rng, p, a, batch, scalar);
  }
}

TEST(batch_eval, Avx2LanesMatchPortableKernel) {
  // The same rows through the u64 backend with AVX2 residue lanes on and
  // off: canonical-residue modular addition is associative, so the four-lane
  // fold must land on the portable kernel's value bit-for-bit. Rows at and
  // above kAvx2MinBits engage the lanes; dense rows on widths 16..47 sweep
  // every gather-tail remainder (set-bit count mod 8). On machines without
  // AVX2 both passes run the portable kernel and the test still holds.
  const bool saved = avx2Enabled();
  util::Rng rng(0xBA7C400Bull);
  BatchLinearHashEvaluator batch;
  for (int i = 0; i < 2500; ++i) {
    const std::size_t bits = 2 + rng.nextBelow(63);
    std::uint64_t p = rng.nextU64() >> (64 - bits);
    if (p < 2) p = 2;
    const util::BigUInt pBig{p};
    const util::BigUInt a{rng.nextU64() % p};
    const std::uint64_t n = 16 + rng.nextBelow(32);
    batch.rebind(pBig, n * n, a);

    std::vector<std::uint64_t> rowIndices;
    std::vector<util::DynBitset> rows;
    const std::size_t rowCount = 1 + rng.nextBelow(4);
    for (std::size_t r = 0; r < rowCount; ++r) {
      rowIndices.push_back(rng.nextBelow(n));
      util::DynBitset row(n);
      if (r == 0) {
        for (std::size_t w = 0; w < n; ++w) row.set(w);  // Dense: count == n.
      } else {
        row = randomBits(rng, n);
      }
      rows.push_back(std::move(row));
    }

    std::vector<util::BigUInt> gotAvx2;
    std::vector<util::BigUInt> gotPortable;
    setAvx2Enabled(true);
    batch.hashMatrixRows(rowIndices, rows, n, gotAvx2);
    const util::BigUInt accAvx2 = batch.accumulateMatrixRows(rowIndices, rows, n);
    setAvx2Enabled(false);
    batch.hashMatrixRows(rowIndices, rows, n, gotPortable);
    const util::BigUInt accPortable = batch.accumulateMatrixRows(rowIndices, rows, n);

    ASSERT_EQ(gotAvx2.size(), gotPortable.size());
    for (std::size_t r = 0; r < gotAvx2.size(); ++r) {
      ASSERT_EQ(gotAvx2[r].toHex(), gotPortable[r].toHex())
          << "p=" << p << " n=" << n << " row " << r;
    }
    ASSERT_EQ(accAvx2.toHex(), accPortable.toHex());
  }
  setAvx2Enabled(saved);
}

TEST(batch_eval, Avx2ToggleClampsToCpuSupport) {
  const bool saved = avx2Enabled();
  setAvx2Enabled(false);
  EXPECT_FALSE(avx2Enabled());
  // true is clamped to CPU capability: afterwards the flag either reports
  // support (and the lanes run) or stays false — never an illegal kernel.
  setAvx2Enabled(true);
  setAvx2Enabled(saved);
  EXPECT_EQ(avx2Enabled(), saved);
}

TEST(batch_eval, HashBitsManyMatchesScalar) {
  util::Rng rng(0xBA7C4004ull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t p = rng.nextU64();
    if (p < 2) p = 2;
    const std::uint64_t dim = 1 + rng.nextBelow(40);
    const util::BigUInt pBig{p};
    const util::BigUInt a{rng.nextU64() % p};
    batch.rebind(pBig, dim, a);
    scalar.rebind(pBig, dim, a);
    std::vector<util::DynBitset> inputs;
    const std::size_t count = 1 + rng.nextBelow(6);
    for (std::size_t j = 0; j < count; ++j) {
      inputs.push_back(randomBits(rng, 1 + rng.nextBelow(dim)));
    }
    std::vector<util::BigUInt> got;
    batch.hashBitsMany(inputs, got);
    ASSERT_EQ(got.size(), count);
    for (std::size_t j = 0; j < count; ++j) {
      EXPECT_EQ(got[j].toHex(), scalar.hashBits(inputs[j]).toHex());
    }
  }
}

TEST(batch_eval, RebindAcrossBackendsKeepsValuesRight) {
  // Alternating u64 / Montgomery rebinds on ONE evaluator: stale table
  // state from a previous backend must never leak into the next.
  util::Rng rng(0xBA7C4007ull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  for (int i = 0; i < 300; ++i) {
    util::BigUInt p;
    util::BigUInt a;
    if (i % 2 == 0) {
      std::uint64_t p64 = rng.nextU64();
      if (p64 < 2) p64 = 2;
      p = util::BigUInt{p64};
      a = util::BigUInt{rng.nextU64() % p64};
    } else {
      const std::size_t k = 2 + rng.nextBelow(3);
      p = randomWideModulus(rng, k, /*odd=*/true);
      a = randomBelow(rng, p, k);
    }
    runMatrixCase(rng, p, a, batch, scalar);
  }
}

TEST(batch_eval, ArgumentChecksMatchScalar) {
  BatchLinearHashEvaluator batch;
  const util::BigUInt p{1009};
  batch.rebind(p, 16, util::BigUInt{7});

  std::vector<std::uint64_t> rowIndices{0};
  std::vector<util::DynBitset> rows{util::DynBitset(5)};
  std::vector<util::BigUInt> out;
  // n*n != dimension: same exception as the scalar evaluator.
  EXPECT_THROW(batch.hashMatrixRows(rowIndices, rows, 5, out), std::invalid_argument);

  rows[0] = util::DynBitset(3);  // Row width != n.
  EXPECT_THROW(batch.hashMatrixRows(rowIndices, rows, 4, out), std::out_of_range);

  rows[0] = util::DynBitset(4);
  rowIndices[0] = 4;  // Row index out of range.
  EXPECT_THROW(batch.hashMatrixRows(rowIndices, rows, 4, out), std::out_of_range);

  rowIndices.push_back(0);  // Length mismatch.
  EXPECT_THROW(batch.hashMatrixRows(rowIndices, rows, 4, out), std::invalid_argument);

  EXPECT_THROW(batch.rebind(util::BigUInt{1}, 4, util::BigUInt{0}),
               std::invalid_argument);
}

// ---- Montgomery flat-limb loops: widths, density and the lazy boundary ----

// Every row of an n x n matrix, all ones: each row sum has exactly n terms,
// the most a row can carry.
void runDenseRows(const util::BigUInt& p, const util::BigUInt& a, std::uint64_t n,
                  BatchLinearHashEvaluator& batch, LinearHashEvaluator& scalar) {
  batch.rebind(p, n * n, a);
  scalar.rebind(p, n * n, a);
  std::vector<std::uint64_t> rowIndices;
  std::vector<util::DynBitset> rows;
  for (std::uint64_t r = 0; r < n; ++r) {
    rowIndices.push_back(r);
    util::DynBitset row(n);
    for (std::uint64_t w = 0; w < n; ++w) row.set(w);
    rows.push_back(std::move(row));
  }
  std::vector<util::BigUInt> got;
  batch.hashMatrixRows(rowIndices, rows, n, got);
  util::BigUInt sum;
  for (std::uint64_t r = 0; r < n; ++r) {
    const util::BigUInt want = scalar.hashMatrixRow(r, rows[r], n);
    ASSERT_EQ(got[r].toHex(), want.toHex()) << "p=" << p.toHex() << " n=" << n << " row " << r;
    ASSERT_EQ(batch.hashMatrixRow(r, rows[r], n).toHex(), want.toHex());
    sum = util::addMod(sum, want, p);
  }
  ASSERT_EQ(batch.accumulateMatrixRows(rowIndices, rows, n).toHex(), sum.toHex())
      << "p=" << p.toHex() << " n=" << n;
  std::vector<util::BigUInt> bitsGot;
  batch.hashBitsMany(rows, bitsGot);
  ASSERT_EQ(bitsGot[0].toHex(), scalar.hashBits(rows[0]).toHex()) << "n=" << n;
}

TEST(batch_eval, MontgomeryDenseRowsMatchScalarUpToSixtyFour) {
  util::Rng rng(0xBA7C400Dull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  for (std::size_t k : {2u, 3u, 4u, 5u, 8u, 16u}) {
    const util::BigUInt p = randomWideModulus(rng, k, /*odd=*/true);
    for (std::uint64_t n = 1; n <= 64; ++n) {
      runDenseRows(p, randomBelow(rng, p, k), n, batch, scalar);
    }
  }
}

TEST(batch_eval, MontgomeryTopLimbAllOnesReducesEveryAdd) {
  // bitLength(p) = 64k leaves no headroom: a lazy row sum of two residues
  // near R would wrap, so the engine must take the per-add reduction. Dense
  // rows make the wrap certain if it did not.
  util::Rng rng(0xBA7C400Eull);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  for (std::size_t k : {2u, 3u, 4u, 5u, 8u, 16u}) {
    for (int m = 0; m < 3; ++m) {
      std::vector<std::uint64_t> words(k);
      for (auto& word : words) word = rng.nextU64();
      words.back() = ~std::uint64_t{0};
      words.front() |= 1;
      const util::BigUInt p = util::BigUInt::fromWords(words);
      for (std::uint64_t n : {2u, 3u, 16u, 33u, 64u}) {
        runDenseRows(p, randomBelow(rng, p, k), n, batch, scalar);
      }
      for (int c = 0; c < 20; ++c) runMatrixCase(rng, p, randomBelow(rng, p, k), batch, scalar);
    }
  }
}

TEST(batch_eval, MontgomeryLazyBoundaryPrime) {
  // A 123-bit prime just below 2^123: bitLength(p) + bitWidth(n) = 128 for
  // n in [16, 31], the widest rows whose unreduced sums still fit two limbs;
  // n = 32 crosses the boundary and must reduce per add.
  util::Rng rng(0xBA7C400Full);
  const util::BigUInt hi = (util::BigUInt{1} << 123) - util::BigUInt{1};
  const util::BigUInt lo = hi - (util::BigUInt{1} << 40);
  const util::BigUInt p = util::findPrimeInRange(lo, hi, rng);
  ASSERT_EQ(p.bitLength(), 123u);
  BatchLinearHashEvaluator batch;
  LinearHashEvaluator scalar;
  for (std::uint64_t n : {15u, 16u, 31u, 32u, 33u}) {
    for (int c = 0; c < 8; ++c) runDenseRows(p, randomBelow(rng, p, 2), n, batch, scalar);
  }
  // The largest index gives the largest column powers' spread.
  runDenseRows(p, p - util::BigUInt{1}, 31, batch, scalar);
}

TEST(batch_eval, SharedChainEvaluatorSurvivesInterleavedRebinds) {
  // One trial's rebind pattern on the shared per-thread evaluator: the
  // prover hashes under index a, an adversary fingerprints candidate maps
  // under a' (mappedMatrixFingerprint), then the verifier hashes under a
  // again. Every value must equal a fresh evaluator's, so a table left over
  // from a' (or a rebind that wrongly short-circuits) fails here.
  for (const std::size_t n : {6u, 16u}) {
    const LinearHashFamily family = n == 16 ? makeProtocol2FamilyCached(n)
                                            : makeProtocol1FamilyCached(n);
    util::Rng rng(0xBA7C4010ull + n);
    const graph::Graph g = graph::randomSymmetricConnected(n, rng);
    const auto rho = graph::findNontrivialAutomorphism(g);
    ASSERT_TRUE(rho.has_value());
    const net::SpanningTreeAdvice tree = net::buildBfsTree(g, 0);
    std::vector<std::uint64_t> rowIndices;
    std::vector<util::DynBitset> rows;
    for (graph::Vertex v = 0; v < n; ++v) {
      rowIndices.push_back((*rho)[v]);
      rows.push_back(graph::Graph::imageOf(g.closedRow(v), *rho));
    }
    BatchLinearHashEvaluator& shared = threadChainEvaluator();
    for (int round = 0; round < 20; ++round) {
      const util::BigUInt a = family.randomIndex(rng);
      const util::BigUInt aPrime = family.randomIndex(rng);
      std::vector<graph::Vertex> sigma(n);
      for (auto& s : sigma) s = static_cast<graph::Vertex>(rng.nextBelow(n));

      const core::ChainValues chains = core::aggregateChains(g, family, a, *rho, tree);
      const util::BigUInt fingerprint = core::mappedMatrixFingerprint(g, family, aPrime, sigma);
      shared.rebind(family, a);
      std::vector<util::BigUInt> verifierRows;
      shared.hashMatrixRows(rowIndices, rows, n, verifierRows);

      BatchLinearHashEvaluator fresh;
      fresh.rebind(family, a);
      std::vector<util::BigUInt> wantRows;
      fresh.hashMatrixRows(rowIndices, rows, n, wantRows);
      ASSERT_EQ(verifierRows, wantRows) << "n=" << n << " round " << round;

      // The prover's chains: subtree sums of the same row hashes.
      BatchLinearHashEvaluator freshChains;
      freshChains.rebind(family, a);
      std::vector<util::BigUInt> wantB;
      freshChains.hashMatrixRows(rowIndices, rows, n, wantB);
      for (graph::Vertex v : net::bottomUpOrder(tree)) {
        net::forEachChild(g, tree, v, [&](graph::Vertex child) {
          util::addModInPlace(wantB[v], wantB[child], family.prime());
        });
      }
      ASSERT_EQ(chains.b, wantB) << "n=" << n << " round " << round;

      BatchLinearHashEvaluator freshAdversary;
      freshAdversary.rebind(family, aPrime);
      std::vector<std::uint64_t> sigmaIndices;
      std::vector<util::DynBitset> sigmaRows;
      for (graph::Vertex v = 0; v < n; ++v) {
        sigmaIndices.push_back(sigma[v]);
        sigmaRows.push_back(graph::Graph::imageOf(g.closedRow(v), sigma));
      }
      ASSERT_EQ(fingerprint, freshAdversary.accumulateMatrixRows(sigmaIndices, sigmaRows, n))
          << "n=" << n << " round " << round;
    }
  }
}

// A random graph on n vertices (each pair an edge with probability 1/2),
// built without the protocol generators so every width in the sweep works.
graph::Graph randomGraph(util::Rng& rng, std::size_t n) {
  graph::Graph g(n);
  for (graph::Vertex u = 0; u < n; ++u) {
    for (graph::Vertex v = u + 1; v < n; ++v) {
      if (rng.nextU64() & 1) g.addEdge(u, v);
    }
  }
  return g;
}

// A uniformly random mapping V -> V: usually not injective.
graph::Permutation randomMapping(util::Rng& rng, std::size_t n) {
  graph::Permutation map(n);
  for (auto& image : map) image = static_cast<graph::Vertex>(rng.nextBelow(n));
  return map;
}

// The reference for the mapped-row entry points: materialize every image
// with Graph::imageOf and hash it as an ordinary matrix row.
void expectMappedRowsMatchImageOf(BatchLinearHashEvaluator& batch, const graph::Graph& g,
                                  const graph::Permutation& sigma, const std::string& what) {
  const std::size_t n = g.numVertices();
  std::vector<std::uint64_t> indices;
  std::vector<util::DynBitset> images;
  for (graph::Vertex v = 0; v < n; ++v) {
    indices.push_back(sigma[v]);
    images.push_back(graph::Graph::imageOf(g.closedRow(v), sigma));
  }
  const util::BigUInt want = batch.accumulateMatrixRows(indices, images, n);
  ASSERT_EQ(batch.accumulateMappedRows(sigma, g.rows(), n).toHex(), want.toHex()) << what;
  for (graph::Vertex v = 0; v < n; ++v) {
    ASSERT_EQ(batch.hashMappedRow(sigma, v, g.row(v), n).toHex(),
              batch.hashMatrixRow(indices[v], images[v], n).toHex())
        << what << " row " << v;
  }
}

TEST(batch_eval, MappedRowsMatchImageOfRows) {
  // Every n from one word to three, across the word edges; permutations and
  // non-injective mappings (whose images collapse); a u64 field and E3's
  // 78-bit Protocol 2 prime at n = 16 (two Montgomery limbs); AVX2 lanes
  // on and off (rows of n >= 16 bits engage them).
  const bool saved = avx2Enabled();
  const util::BigUInt wide = makeProtocol2FamilyCached(16).prime();
  ASSERT_FALSE(wide.fitsU64());
  const util::BigUInt narrow{0xFFFFFFFFFFFFFFC5ull};  // 2^64 - 59, prime.
  util::Rng rng(0xBA7C4011ull);
  BatchLinearHashEvaluator batch;
  for (const std::size_t n : {1, 2, 8, 16, 48, 63, 64, 65, 130}) {
    const graph::Graph g = randomGraph(rng, n);
    for (const util::BigUInt& p : {narrow, wide}) {
      for (int round = 0; round < 4; ++round) {
        const graph::Permutation sigma =
            round % 2 == 0 ? graph::randomPermutation(n, rng) : randomMapping(rng, n);
        batch.rebind(p, n * n, util::BigUInt{rng.nextU64()} % p);
        for (const bool avx2 : {true, false}) {
          setAvx2Enabled(avx2);
          expectMappedRowsMatchImageOf(batch, g, sigma,
                                       "n=" + std::to_string(n) + " p=" + p.toHex() +
                                           " round " + std::to_string(round) +
                                           " avx2=" + std::to_string(avx2));
        }
      }
    }
  }
  setAvx2Enabled(saved);
}

TEST(batch_eval, MappedRowsRejectOutOfRangeImages) {
  util::Rng rng(0xBA7C4012ull);
  BatchLinearHashEvaluator batch;
  for (const std::size_t n : {8, 65}) {
    const graph::Graph g = randomGraph(rng, n);
    batch.rebind(util::BigUInt{1000003}, n * n, util::BigUInt{7});
    graph::Permutation sigma = graph::identityPermutation(n);
    sigma[n - 1] = static_cast<graph::Vertex>(n);
    EXPECT_THROW(batch.accumulateMappedRows(sigma, g.rows(), n), std::out_of_range);
    EXPECT_THROW(batch.hashMappedRow(sigma, n - 1, g.row(n - 1), n), std::out_of_range);
    // Graph::imageOf rejects the same mapping the same way.
    EXPECT_THROW(graph::Graph::imageOf(g.closedRow(n - 1), sigma), std::out_of_range);
    // A row only reads sigma on its closed neighborhood.
    graph::Vertex far = 0;
    while (far < n - 1 && g.hasEdge(far, static_cast<graph::Vertex>(n - 1))) ++far;
    if (far < n - 1) {
      EXPECT_NO_THROW(batch.hashMappedRow(sigma, far, g.row(far), n));
    }
    // Shape errors: a short sigma, and a dimension the index was not bound to.
    const graph::Permutation shortSigma(n - 1, 0);
    EXPECT_THROW(batch.accumulateMappedRows(shortSigma, g.rows(), n), std::out_of_range);
    batch.rebind(util::BigUInt{1000003}, n * n + 1, util::BigUInt{7});
    EXPECT_THROW(batch.accumulateMappedRows(graph::identityPermutation(n), g.rows(), n),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dip::hash
