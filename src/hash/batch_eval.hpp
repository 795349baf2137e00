// Batch evaluation engine for the Theorem 3.2 linear hash family: the one
// hash evaluator of the library.
//
// Walking each row's bits with one modular multiply per column position
// costs ~n^2 multiplies for a full n x n matrix. The batch engine exploits
// the factorization
//
//     h_a([r, bits]) = a^(r*n) * sum_{w in bits} a^(w+1)   (mod p)
//
// to share ALL power computation across rows: one column power table
// P[w] = a^(w+1) (n multiplies, built once per (a, n)) plus one row-base
// table B[r] = a^(r*n) turns every subsequent row into popcount modular
// ADDS and a single multiply. A full matrix drops from ~n^2 to ~2n
// multiplies; protocol trial paths evaluate thousands of rows per pinned
// index, so the tables amortize to near-zero.
//
// Every value is the canonical residue < p; tests/batch_eval_test.cpp checks
// each entry point against the bit-walking reference evaluator in tests/
// over 10^4 seeded matrices. Two backends:
//   - kU64 (p < 2^64): tables are flat uint64 slices, row sums use
//     add-with-conditional-subtract (no multiply), one 128-bit product per
//     row. When n residues cannot overflow 64 bits (bitLength(p) +
//     bitWidth(n) <= 64) the serial row sum skips the per-add reduction,
//     and an accumulate whose products cannot overflow 128 bits sums them
//     unreduced and divides once.
//   - kMontgomery (p odd, wider): tables are flat raw-limb residues run
//     through the flat-limb kernels (util/mont_kernels.hpp). Each span call
//     picks the kernel width once and runs a templated loop in which the
//     per-bit add and the per-row multiply inline. Column powers are in
//     Montgomery form and row bases plain, so the one CIOS product per row
//     (Mont(s) * b * R^-1 = s * b) is also its convert-out. Row sums skip
//     the per-add reduction whenever n of them cannot reach R
//     (bitLength(p) + bitWidth(n) <= 64k, a property of (p, n)).
// An even p >= 2^64 is not prime, and rebind() rejects it.
//
// All table storage lives in a private util::Arena, reset on every rebind:
// the hot loops allocate nothing, and a stale table pointer after rebind is
// an ASan-diagnosable error rather than silent reuse. Not thread-safe; use
// one batch evaluator per thread. The call sites keep thread_local
// instances; the Sym chain sites share one (threadChainEvaluator), so a
// trial's prover and verifier build an index's tables once, and the GNI
// verifiers keep one per repetition (threadRepetitionEvaluator).
//
// A call site whose index changes on every call rebinds before each call:
// its first hash then builds the two n-entry tables, about 2n multiplies,
// against the n of a direct bit walk over the one row.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/linear_hash.hpp"
#include "util/arena.hpp"
#include "util/biguint.hpp"
#include "util/bitset.hpp"
#include "util/mont_kernels.hpp"
#include "util/montgomery.hpp"

namespace dip::hash {

// AVX2 residue-lane toggle for the u64 backend's dense-row inner loop.
// Defaults to on when the build has the kernel, the CPU reports AVX2, and
// DIP_AVX2 is not "0"; setAvx2Enabled(true) is clamped to CPU support so the
// differential tests can flip it freely on any machine. Toggling never
// changes any result, only which kernel computes the identical residue sum.
bool avx2Enabled();
void setAvx2Enabled(bool enabled);

class BatchLinearHashEvaluator {
 public:
  BatchLinearHashEvaluator() = default;

  // (Re)pins (p, dimension, a). No-op when nothing changed (tables and the
  // Montgomery context survive); otherwise the arena resets and tables
  // rebuild lazily on first use. Throws std::invalid_argument for p < 2 and
  // for an even p >= 2^64.
  void rebind(const util::BigUInt& p, std::uint64_t dimension, const util::BigUInt& a);
  void rebind(const LinearHashFamily& family, const util::BigUInt& a);

  // out[i] = hashMatrixRow(rowIndices[i], rows[i], n) under the pinned
  // index. Throws std::invalid_argument when n * n != dimension or the
  // lengths of rowIndices and rows differ, and std::out_of_range for a row
  // index >= n or a row that is not n bits wide.
  void hashMatrixRows(std::span<const std::uint64_t> rowIndices,
                      std::span<const util::DynBitset> rows, std::uint64_t n,
                      std::vector<util::BigUInt>& out);

  // Sum over i of hashMatrixRow(rowIndices[i], rows[i], n) mod p, with a
  // single convert-out — the fingerprint shape (eps_api hashRows).
  util::BigUInt accumulateMatrixRows(std::span<const std::uint64_t> rowIndices,
                                     std::span<const util::DynBitset> rows,
                                     std::uint64_t n);

  // Sum over v in [0, n) of hashMatrixRow(sigma[v], sigma(N[v]), n) mod p,
  // where N[v] is openRows[v] plus v itself and sigma(S) = {sigma[u] : u in
  // S} is a SET (a non-injective sigma collapses, as in Graph::imageOf):
  // the fingerprint of the sigma-mapped adjacency matrix with self-loops
  // (mappedMatrixFingerprint). Each image is built as a word mask, one OR
  // per member, and hashed in place; no bitset is made. Throws
  // std::invalid_argument on a dimension mismatch and std::out_of_range
  // when sigma or openRows does not have n entries, a row is not n bits,
  // or some sigma value is >= n.
  util::BigUInt accumulateMappedRows(std::span<const std::uint32_t> sigma,
                                     std::span<const util::DynBitset> openRows,
                                     std::uint64_t n);
  // The one row hashMatrixRow(sigma[v], sigma(N[v]), n) for N[v] = openRow
  // plus v: the b-side row of a Sym node decision. Only the sigma values on
  // N[v] are read and range-checked; same exceptions otherwise.
  util::BigUInt hashMappedRow(std::span<const std::uint32_t> sigma, std::uint64_t v,
                              const util::DynBitset& openRow, std::uint64_t n);

  // Single-call forms under the pinned index, with hashMatrixRows' checks
  // (an entry needs both indices < n). Every power is a table lookup (row
  // base times column power). These serve call sites that hash one row or
  // entry per node (sym_input's piecesFor, the GNI verifiers' pieces),
  // where the index is pinned across many calls, and the sites that
  // rebind for every call.
  util::BigUInt hashMatrixRow(std::uint64_t rowIndex, const util::DynBitset& columnBits,
                              std::uint64_t n);
  util::BigUInt hashMatrixEntry(std::uint64_t rowIndex, std::uint64_t colIndex,
                                std::uint64_t coefficient, std::uint64_t n);

  // Sum over i of hashMatrixEntry(rowIndices[i], colIndices[i], 1, n) mod p
  // with a single convert-out — the consistency-series shape. rowIndices and
  // colIndices must have equal lengths.
  util::BigUInt accumulateMatrixEntries(std::span<const std::uint64_t> rowIndices,
                                        std::span<const std::uint64_t> colIndices,
                                        std::uint64_t n);

  // out[i] = sum over set bits w of inputs[i] of a^(w+1): the inputs read
  // as positions 0.. with coefficient 1. Throws std::out_of_range when an
  // input is wider than the dimension.
  void hashBitsMany(std::span<const util::DynBitset> inputs,
                    std::vector<util::BigUInt>& out);

 private:
  enum class Backend { kUnbound, kU64, kMontgomery };

  // The arena's first block. The GNI verifiers keep one evaluator per
  // repetition and thread, each holding two tables of at most 2n words, so
  // the block is sized for those; larger tables chain larger blocks.
  static constexpr std::size_t kArenaFirstBlockBytes = 256;

  // Ensures P[w] = a^(w+1) for w in [0, count) and, when n > 0, B[r] =
  // a^(r*n) for r in [0, n). Growth rebuilds from scratch (arena bump);
  // shapes are bounded by the family dimension.
  void prepareTables(std::size_t count, std::uint64_t n);
  void checkRow(std::uint64_t rowIndex, const util::DynBitset& bits,
                std::uint64_t n) const;
  void checkRows(std::span<const std::uint64_t> rowIndices,
                 std::span<const util::DynBitset> rows, std::uint64_t n) const;
  // Whether a sum of `terms` Montgomery residues stays below R unreduced:
  // bitLength(p) + bitWidth(terms) <= 64k.
  bool lazySums(std::uint64_t terms) const;
  // kU64: whether a row sum of up to n residues fits 64 bits unreduced.
  bool lazyRowSums64(std::uint64_t n) const;
  void checkEntry(std::uint64_t rowIndex, std::uint64_t colIndex,
                  std::uint64_t n) const;
  void checkMapped(std::span<const std::uint32_t> sigma, std::uint64_t n) const;
  // Sum of the hashes of the rows rowAt(0), ..., rowAt(count - 1) (each an
  // index plus column words), for every backend; tables must be ready.
  template <typename RowAt>
  util::BigUInt accumulateRows(std::size_t count, std::uint64_t n, RowAt&& rowAt);
  // Scratch words for one image mask (grown on first use, then reused).
  std::uint64_t* imageMask(std::size_t wordCount);

  Backend backend_ = Backend::kUnbound;
  util::BigUInt p_;
  std::uint64_t m_ = 0;
  util::BigUInt aBound_;
  util::Arena arena_{kArenaFirstBlockBytes};
  std::size_t colCount_ = 0;   // Entries built in the column power table.
  std::uint64_t rowBaseN_ = 0; // n the row-base table was built for (0 = none).
  // kU64 backend.
  std::uint64_t p64_ = 0;
  std::uint64_t a64_ = 0;
  std::uint64_t* colPow64_ = nullptr;
  std::uint64_t* rowBase64_ = nullptr;
  // kMontgomery backend: flat k-limb residues in the arena. colPowM_[w*k]
  // = Mont(a^(w+1)); rowBaseM_[r*k] = a^(r*n), plain.
  std::shared_ptr<const util::MontgomeryContext> ctx_;
  std::size_t headroomBits_ = 0;  // 64k - bitLength(p).
  util::mont::Limb* aM_ = nullptr;  // Mont(a).
  util::mont::Limb* colPowM_ = nullptr;
  util::mont::Limb* rowBaseM_ = nullptr;
  util::mont::Limb* spareM_ = nullptr;  // 3k + 2 limbs of kernel working space.
  std::vector<std::uint64_t> mask_;
};

// The calling thread's evaluator for the Sym chain call sites: the honest
// provers' aggregateChains, the nodeDecision of SymDmamProtocol,
// SymDamProtocol and DSymDamProtocol, and mappedMatrixFingerprint. Within
// an honest trial the prover and every node pin the same (p, m, a), so the
// later rebinds are no-ops and the public power tables are built once; a
// node that was sent a different index rebinds to it. Only those tables
// are shared: every caller still computes its own row hashes.
BatchLinearHashEvaluator& threadChainEvaluator();

// The calling thread's evaluator for repetition j of the GNI verifiers'
// Goldwasser-Sipser pieces (GniAmamProtocol and GniGeneralProtocol
// nodeDecision). Under the honest broadcast all n nodes echo the same k
// seeds, so slot j stays pinned to seed j and its tables are built once per
// trial; a node that echoes a different seed rebinds only slot j. Slots are
// made on first use and live as long as the thread.
BatchLinearHashEvaluator& threadRepetitionEvaluator(std::size_t j);

}  // namespace dip::hash
