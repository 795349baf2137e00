#include "hash/batch_eval.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <deque>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DIP_HAVE_AVX2_KERNEL 1
#include <immintrin.h>
#endif

namespace dip::hash {

namespace {

__extension__ using U128 = unsigned __int128;

std::uint64_t mulModU64(std::uint64_t x, std::uint64_t y, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<U128>(x) * y % m);
}

std::uint64_t powModU64(std::uint64_t base, std::uint64_t exponent, std::uint64_t m) {
  std::uint64_t result = 1 % m;
  std::uint64_t square = base % m;
  while (exponent != 0) {
    if (exponent & 1) result = mulModU64(result, square, m);
    exponent >>= 1;
    if (exponent != 0) square = mulModU64(square, square, m);
  }
  return result;
}

// acc = (acc + term) mod p for acc, term < p < 2^64: a wrap past 2^64 and a
// sum >= p both correct with the same single subtraction (the wrapped case
// re-wraps to exactly acc + term - p).
inline std::uint64_t addModTrick(std::uint64_t acc, std::uint64_t term,
                                 std::uint64_t p) {
  acc += term;
  // Branch-free: the subtraction is data-dependent and mispredicts often.
  const std::uint64_t over = static_cast<std::uint64_t>((acc < term) | (acc >= p));
  return acc - (p & (0 - over));
}

bool avx2Supported() {
#if DIP_HAVE_AVX2_KERNEL
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool initialAvx2Enabled() {
  if (!avx2Supported()) return false;
  if (const char* env = std::getenv("DIP_AVX2")) {
    if (env[0] == '0' && env[1] == '\0') return false;
  }
  return true;
}

std::atomic<bool>& avx2Flag() {
  static std::atomic<bool> flag{initialAvx2Enabled()};
  return flag;
}

#if DIP_HAVE_AVX2_KERNEL

// Four-lane addModTrick. Unsigned compares via the sign-bit bias: for
// canonical residues x, y < p < 2^64, x < y (unsigned) iff
// (x ^ bias) < (y ^ bias) (signed), which AVX2's cmpgt can evaluate.
__attribute__((target("avx2"))) inline __m256i addModLanes(__m256i acc, __m256i term,
                                                           __m256i pV, __m256i pBiased,
                                                           __m256i bias) {
  const __m256i sum = _mm256_add_epi64(acc, term);
  const __m256i sumBiased = _mm256_xor_si256(sum, bias);
  const __m256i wrapped =
      _mm256_cmpgt_epi64(_mm256_xor_si256(term, bias), sumBiased);  // sum < term.
  const __m256i below = _mm256_cmpgt_epi64(pBiased, sumBiased);     // sum < p.
  const __m256i needSub =
      _mm256_or_si256(wrapped, _mm256_cmpeq_epi64(below, _mm256_setzero_si256()));
  return _mm256_sub_epi64(sum, _mm256_and_si256(pV, needSub));
}

// Residue sum over gathered table entries: two 4x64 accumulators so the
// gather latency of one block overlaps the modular add of the other. Every
// lane stays a canonical residue, so the lane fold plus scalar tail give the
// same value as the serial left-to-right walk (modular addition of canonical
// residues is associative and commutative).
__attribute__((target("avx2"))) std::uint64_t residueSumAvx2(
    const std::uint64_t* table, const std::uint32_t* positions, std::size_t count,
    std::uint64_t p) {
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i pV = _mm256_set1_epi64x(static_cast<long long>(p));
  const __m256i pBiased = _mm256_xor_si256(pV, bias);
  const long long* tableLL = reinterpret_cast<const long long*>(table);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i idx0 = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(positions + i)));
    const __m256i idx1 = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(positions + i + 4)));
    acc0 = addModLanes(acc0, _mm256_i64gather_epi64(tableLL, idx0, 8), pV, pBiased, bias);
    acc1 = addModLanes(acc1, _mm256_i64gather_epi64(tableLL, idx1, 8), pV, pBiased, bias);
  }
  alignas(32) std::uint64_t lanes[8];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4), acc1);
  std::uint64_t sum = 0;
  for (std::uint64_t lane : lanes) sum = addModTrick(sum, lane, p);
  for (; i < count; ++i) sum = addModTrick(sum, table[positions[i]], p);
  return sum;
}

#endif  // DIP_HAVE_AVX2_KERNEL

// Below this many input bits the serial walk wins: the vector path has to
// materialize the position list and fold eight lanes regardless of how much
// work the gather loop actually finds (protects small-n cells like the
// protocol-2 family, n = 6).
constexpr std::size_t kAvx2MinBits = 16;

// Invokes fn(w) for each set bit w of the little-endian word span, ascending.
template <typename Fn>
inline void forEachSetBit(const std::uint64_t* words, std::size_t wordCount, Fn&& fn) {
  for (std::size_t i = 0; i < wordCount; ++i) {
    for (std::uint64_t word = words[i]; word != 0; word &= word - 1) {
      fn(i * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
    }
  }
}

// A row to hash: its row index and its column bits, as words. Bitset rows
// and sigma-mapped image masks both reach the kernels in this shape.
struct RowWords {
  std::uint64_t rowIndex;
  const std::uint64_t* words;
  std::size_t wordCount;
  std::size_t bits;  // The row's width n (decides the AVX2 gate).
};

RowWords rowWords(std::uint64_t rowIndex, const util::DynBitset& bits) {
  return {rowIndex, bits.words(), bits.wordCount(), bits.size()};
}

// Shared inner loop of the u64 backend: sum of table[w] over set bits of
// the row. Runtime-dispatched to the AVX2 gather kernel for dense rows when
// enabled, which returns the sum mod p. The serial walk is the portable
// fallback and the reference semantics; with `lazy` it skips the per-add
// reduction and returns the plain sum, which the caller has proved fits 64
// bits (row width * p < 2^64) and reduces in its one product mod p.
#if DIP_HAVE_AVX2_KERNEL
std::uint64_t gatherResidueSum(const RowWords& row, const std::uint64_t* table,
                               std::uint64_t p) {
  thread_local std::vector<std::uint32_t> positions;
  positions.clear();
  positions.reserve(row.bits);
  forEachSetBit(row.words, row.wordCount, [&](std::size_t w) {
    positions.push_back(static_cast<std::uint32_t>(w));
  });
  return residueSumAvx2(table, positions.data(), positions.size(), p);
}
#endif

inline std::uint64_t bitsResidueSum(const RowWords& row, const std::uint64_t* table,
                                    std::uint64_t p, bool lazy = false) {
#if DIP_HAVE_AVX2_KERNEL
  if (row.bits >= kAvx2MinBits && avx2Flag().load(std::memory_order_relaxed)) {
    return gatherResidueSum(row, table, p);
  }
#endif
  std::uint64_t sum = 0;
  if (lazy) {
    forEachSetBit(row.words, row.wordCount, [&](std::size_t w) { sum += table[w]; });
  } else {
    forEachSetBit(row.words, row.wordCount,
                  [&](std::size_t w) { sum = addModTrick(sum, table[w], p); });
  }
  return sum;
}

// ---- Montgomery backend loops ---------------------------------------------
//
// Each runs inside one util::mont::dispatch, so K is the kernel width for the
// whole span and the adds and multiplies inline. Working spans are stack
// arrays for fixed K and slices of the evaluator's spare span for K == 0.

namespace mont = util::mont;
using Limb = mont::Limb;

struct MontTables {
  mont::Modulus mod;
  const Limb* colPow;   // Mont(a^(w+1)).
  const Limb* rowBase;  // a^(r*n), plain.
  Limb* spare;          // 3k + 2 limbs.
  bool lazy;            // Row sums stay below R unreduced.
};

// sum = Mont(sum over set bits w of a^(w+1)), possibly unreduced (< R).
template <std::size_t K>
inline void montRowSum(const MontTables& t, const RowWords& row, Limb* sum) {
  const std::size_t k = mont::width<K>(t.mod);
  std::fill_n(sum, k, Limb{0});
  if (t.lazy) {
    forEachSetBit(row.words, row.wordCount, [&](std::size_t w) {
      mont::addLazy<K>(t.mod, sum, t.colPow + w * k);
    });
  } else {
    forEachSetBit(row.words, row.wordCount, [&](std::size_t w) {
      mont::add<K>(t.mod, sum, t.colPow + w * k, sum);
    });
  }
}

// acc[0..k) = the plain row hash: Mont(s) * a^(r*n) * R^-1 = s * a^(r*n).
template <std::size_t K>
inline void montRowHash(const MontTables& t, const RowWords& row, Limb* sum, Limb* acc) {
  montRowSum<K>(t, row, sum);
  mont::mul<K>(t.mod, sum, t.rowBase + row.rowIndex * mont::width<K>(t.mod), acc);
}

template <std::size_t K>
void montHashRows(const MontTables& t, std::span<const std::uint64_t> rowIndices,
                  std::span<const util::DynBitset> rows, std::vector<util::BigUInt>& out) {
  const std::size_t k = mont::width<K>(t.mod);
  mont::Buffer<K, 0> sum(t.spare);
  mont::Buffer<K, 2> acc(t.spare + k);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    montRowHash<K>(t, rowWords(rowIndices[i], rows[i]), sum.data(), acc.data());
    out[i] = util::BigUInt::fromWords(std::span<const Limb>(acc.data(), k));
  }
}

// Sum of the row hashes of rowAt(0), ..., rowAt(count - 1), one convert-out.
template <std::size_t K, typename RowAt>
util::BigUInt montAccumulateRows(const MontTables& t, std::size_t count, RowAt&& rowAt) {
  const std::size_t k = mont::width<K>(t.mod);
  mont::Buffer<K, 0> sum(t.spare);
  mont::Buffer<K, 2> acc(t.spare + k);
  mont::Buffer<K, 0> total(t.spare + 2 * k + 2);
  std::fill_n(total.data(), k, Limb{0});
  for (std::size_t i = 0; i < count; ++i) {
    montRowHash<K>(t, rowAt(i), sum.data(), acc.data());
    mont::add<K>(t.mod, total.data(), acc.data(), total.data());
  }
  return util::BigUInt::fromWords(std::span<const Limb>(total.data(), k));
}

template <std::size_t K>
util::BigUInt montAccumulateEntries(const MontTables& t,
                                    std::span<const std::uint64_t> rowIndices,
                                    std::span<const std::uint64_t> colIndices) {
  const std::size_t k = mont::width<K>(t.mod);
  mont::Buffer<K, 2> acc(t.spare);
  mont::Buffer<K, 0> total(t.spare + k + 2);
  std::fill_n(total.data(), k, Limb{0});
  for (std::size_t i = 0; i < rowIndices.size(); ++i) {
    // a^(r*n) * Mont(a^(c+1)) * R^-1 = a^(r*n + c + 1), plain.
    mont::mul<K>(t.mod, t.rowBase + rowIndices[i] * k, t.colPow + colIndices[i] * k,
                 acc.data());
    mont::add<K>(t.mod, total.data(), acc.data(), total.data());
  }
  return util::BigUInt::fromWords(std::span<const Limb>(total.data(), k));
}

template <std::size_t K>
void montHashBits(const MontTables& t, std::span<const util::DynBitset> inputs,
                  std::vector<util::BigUInt>& out) {
  const std::size_t k = mont::width<K>(t.mod);
  mont::Buffer<K, 0> sum(t.spare);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    montRowSum<K>(t, rowWords(0, inputs[i]), sum.data());
    out[i] = util::BigUInt::fromWords(
        k, [&](std::span<Limb> limbs) { mont::redc<K>(t.mod, sum.data(), limbs.data()); });
  }
}

// Column powers Mont(a^(w+1)) for w in [0, cols), and/or row bases a^(r*n)
// for r in [0, n) (plain: B[0] = 1, B[r] = B[r-1] * Mont(a^n) * R^-1).
template <std::size_t K>
void montBuildTables(const mont::Modulus& mod, const Limb* aM, Limb* spare, Limb* colPow,
                     std::size_t cols, Limb* rowBase, std::uint64_t n) {
  const std::size_t k = mont::width<K>(mod);
  mont::Buffer<K, 2> t(spare);
  if (colPow != nullptr) {
    std::copy_n(aM, k, colPow);
    for (std::size_t w = 1; w < cols; ++w) {
      mont::mul<K>(mod, colPow + (w - 1) * k, aM, t.data());
      std::copy_n(t.data(), k, colPow + w * k);
    }
  }
  if (rowBase != nullptr) {
    // Mont(a^n) by a left-to-right binary ladder from Mont(a).
    mont::Buffer<K, 0> step(spare + k + 2);
    std::copy_n(aM, k, step.data());
    for (int bit = static_cast<int>(std::bit_width(n)) - 1; bit-- > 0;) {
      mont::mul<K>(mod, step.data(), step.data(), t.data());
      std::copy_n(t.data(), k, step.data());
      if ((n >> bit) & 1) {
        mont::mul<K>(mod, step.data(), aM, t.data());
        std::copy_n(t.data(), k, step.data());
      }
    }
    std::fill_n(rowBase, k, Limb{0});
    rowBase[0] = 1;
    for (std::uint64_t r = 1; r < n; ++r) {
      mont::mul<K>(mod, rowBase + (r - 1) * k, step.data(), t.data());
      std::copy_n(t.data(), k, rowBase + r * k);
    }
  }
}

}  // namespace

bool avx2Enabled() { return avx2Flag().load(std::memory_order_relaxed); }
void setAvx2Enabled(bool enabled) {
  avx2Flag().store(enabled && avx2Supported(), std::memory_order_relaxed);
}

void BatchLinearHashEvaluator::rebind(const LinearHashFamily& family,
                                      const util::BigUInt& a) {
  rebind(family.prime(), family.dimension(), a);
}

void BatchLinearHashEvaluator::rebind(const util::BigUInt& p, std::uint64_t dimension,
                                      const util::BigUInt& a) {
  const bool sameP = backend_ != Backend::kUnbound && p == p_;
  if (sameP && dimension == m_ && a == aBound_) return;
  if (!sameP) {
    if (p < util::BigUInt{2}) {
      throw std::invalid_argument("BatchLinearHashEvaluator: p < 2");
    }
    if (!p.fitsU64() && !p.isOdd()) {
      throw std::invalid_argument("BatchLinearHashEvaluator: even p >= 2^64");
    }
    p_ = p;
    if (p_.fitsU64()) {
      backend_ = Backend::kU64;
      p64_ = p_.toU64();
      ctx_.reset();
    } else {
      backend_ = Backend::kMontgomery;
      ctx_ = util::cachedMontgomeryContext(p_);
    }
  }
  m_ = dimension;
  aBound_ = a;
  // Invalidate the tables: the arena rewind poisons the old slices under
  // ASan, so a caller holding a stale table pointer across rebind faults
  // loudly instead of reading the previous index's powers.
  arena_.reset();
  colCount_ = 0;
  rowBaseN_ = 0;
  colPow64_ = rowBase64_ = nullptr;
  colPowM_ = rowBaseM_ = nullptr;
  if (backend_ == Backend::kU64) {
    a64_ = a.modU64(p64_);
    return;
  }
  const std::size_t k = ctx_->numLimbs();
  headroomBits_ = mont::kLimbBits * k - p_.bitLength();
  aM_ = arena_.allocateArray<Limb>(k);
  spareM_ = arena_.allocateArray<Limb>(3 * k + 2);
  ctx_->toRaw(a, aM_);
}

// Every public entry point comes through here before it reads a backend, so
// past this check the backend is kU64 or kMontgomery.
void BatchLinearHashEvaluator::prepareTables(std::size_t count, std::uint64_t n) {
  if (backend_ == Backend::kUnbound) {
    throw std::logic_error("BatchLinearHashEvaluator: used before rebind");
  }
  const bool needCols = count > colCount_;
  const bool needRows = n != 0 && n != rowBaseN_;
  if (!needCols && !needRows) return;
  const std::size_t cols = std::max(count, colCount_);
  if (backend_ == Backend::kU64) {
    if (needCols) {
      colPow64_ = arena_.allocateArray<std::uint64_t>(cols);
      std::uint64_t power = a64_;
      for (std::size_t w = 0; w < cols; ++w) {
        colPow64_[w] = power;
        if (w + 1 < cols) power = mulModU64(power, a64_, p64_);
      }
      colCount_ = cols;
    }
    if (needRows) {
      rowBase64_ = arena_.allocateArray<std::uint64_t>(n);
      const std::uint64_t step = powModU64(a64_, n, p64_);
      std::uint64_t base = 1 % p64_;
      for (std::uint64_t r = 0; r < n; ++r) {
        rowBase64_[r] = base;
        if (r + 1 < n) base = mulModU64(base, step, p64_);
      }
      rowBaseN_ = n;
    }
    return;
  }
  const std::size_t k = ctx_->numLimbs();
  Limb* newCols = needCols ? arena_.allocateArray<Limb>(cols * k) : nullptr;
  Limb* newRows = needRows ? arena_.allocateArray<Limb>(n * k) : nullptr;
  mont::dispatch(k, [&](auto width) {
    montBuildTables<decltype(width)::value>(ctx_->kernelModulus(), aM_, spareM_, newCols,
                                            cols, newRows, n);
  });
  if (needCols) {
    colPowM_ = newCols;
    colCount_ = cols;
  }
  if (needRows) {
    rowBaseM_ = newRows;
    rowBaseN_ = n;
  }
}

void BatchLinearHashEvaluator::checkRow(std::uint64_t rowIndex,
                                        const util::DynBitset& bits,
                                        std::uint64_t n) const {
  if (n * n != m_) throw std::invalid_argument("hashMatrixRow: dimension mismatch");
  if (rowIndex >= n || bits.size() != n) {
    throw std::out_of_range("hashMatrixRow: bad row");
  }
}

void BatchLinearHashEvaluator::checkRows(std::span<const std::uint64_t> rowIndices,
                                         std::span<const util::DynBitset> rows,
                                         std::uint64_t n) const {
  for (std::size_t i = 0; i < rows.size(); ++i) checkRow(rowIndices[i], rows[i], n);
}

bool BatchLinearHashEvaluator::lazyRowSums64(std::uint64_t n) const {
  return static_cast<int>(std::bit_width(p64_)) + static_cast<int>(std::bit_width(n)) <= 64;
}

bool BatchLinearHashEvaluator::lazySums(std::uint64_t terms) const {
  return static_cast<std::size_t>(std::bit_width(terms)) <= headroomBits_;
}

void BatchLinearHashEvaluator::hashMatrixRows(std::span<const std::uint64_t> rowIndices,
                                              std::span<const util::DynBitset> rows,
                                              std::uint64_t n,
                                              std::vector<util::BigUInt>& out) {
  if (rowIndices.size() != rows.size()) {
    throw std::invalid_argument("hashMatrixRows: index/row count mismatch");
  }
  prepareTables(n, n);
  checkRows(rowIndices, rows, n);
  // Rewrite out in place: resize keeps the elements' limb buffers alive, so
  // a steady-state caller (the per-trial verifier loops) allocates nothing.
  out.resize(rows.size());
  if (backend_ == Backend::kU64) {
    const bool lazy = lazyRowSums64(n);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint64_t sum =
          bitsResidueSum(rowWords(rowIndices[i], rows[i]), colPow64_, p64_, lazy);
      out[i].assignU64(mulModU64(rowBase64_[rowIndices[i]], sum, p64_));
    }
    return;
  }
  const MontTables view{ctx_->kernelModulus(), colPowM_, rowBaseM_, spareM_, lazySums(n)};
  mont::dispatch(view.mod.k, [&](auto width) {
    montHashRows<decltype(width)::value>(view, rowIndices, rows, out);
  });
}

template <typename RowAt>
util::BigUInt BatchLinearHashEvaluator::accumulateRows(std::size_t count, std::uint64_t n,
                                                       RowAt&& rowAt) {
  if (backend_ == Backend::kU64) {
    // Unreduced row sums (below n p) and, when count of their products
    // cannot overflow 128 bits, an unreduced total: one division for the
    // whole accumulate, and the same residue as reducing every step.
    const bool lazy = lazyRowSums64(n);
    const int termBits = 2 * static_cast<int>(std::bit_width(p64_)) +
                         (lazy ? static_cast<int>(std::bit_width(n)) : 0);
    if (termBits + static_cast<int>(std::bit_width(count)) <= 128) {
      U128 acc = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const RowWords row = rowAt(i);
        acc += static_cast<U128>(rowBase64_[row.rowIndex]) *
               bitsResidueSum(row, colPow64_, p64_, lazy);
      }
      return util::BigUInt{static_cast<std::uint64_t>(acc % p64_)};
    }
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const RowWords row = rowAt(i);
      const std::uint64_t sum = bitsResidueSum(row, colPow64_, p64_, lazy);
      acc = addModTrick(acc, mulModU64(rowBase64_[row.rowIndex], sum, p64_), p64_);
    }
    return util::BigUInt{acc};
  }
  const MontTables view{ctx_->kernelModulus(), colPowM_, rowBaseM_, spareM_, lazySums(n)};
  return mont::dispatch(view.mod.k, [&](auto width) {
    return montAccumulateRows<decltype(width)::value>(view, count, rowAt);
  });
}

util::BigUInt BatchLinearHashEvaluator::accumulateMatrixRows(
    std::span<const std::uint64_t> rowIndices, std::span<const util::DynBitset> rows,
    std::uint64_t n) {
  if (rowIndices.size() != rows.size()) {
    throw std::invalid_argument("accumulateMatrixRows: index/row count mismatch");
  }
  prepareTables(n, n);
  checkRows(rowIndices, rows, n);
  return accumulateRows(rows.size(), n, [&](std::size_t i) {
    return rowWords(rowIndices[i], rows[i]);
  });
}

std::uint64_t* BatchLinearHashEvaluator::imageMask(std::size_t wordCount) {
  if (mask_.size() < wordCount) mask_.resize(wordCount);
  return mask_.data();
}

void BatchLinearHashEvaluator::checkMapped(std::span<const std::uint32_t> sigma,
                                           std::uint64_t n) const {
  if (n * n != m_) throw std::invalid_argument("hashMappedRow: dimension mismatch");
  if (sigma.size() != n) throw std::out_of_range("hashMappedRow: sigma size != n");
}

namespace {

// Out of line, so the mask loops below stay small enough to inline.
[[noreturn, gnu::noinline, gnu::cold]] void throwBadMappedRow(const char* what) {
  throw std::out_of_range(what);
}

// Writes sigma(N[v]) = {sigma[v]} + {sigma[u] : u in openRow} into
// mask[0, wordCount) by OR-ing one bit per member: a set, so a
// non-injective sigma collapses, like Graph::imageOf. Returns the row.
inline RowWords mappedRow(std::span<const std::uint32_t> sigma, std::uint64_t v,
                          const util::DynBitset& openRow, std::uint64_t n,
                          std::uint64_t* mask, std::size_t wordCount) {
  if (v >= n || openRow.size() != n) throwBadMappedRow("hashMappedRow: bad row");
  const std::uint32_t* images = sigma.data();
  bool inRange = images[v] < n;
  if (wordCount == 1) {
    // One word: build the mask in a register.
    std::uint64_t bits = std::uint64_t{1} << (images[v] & 63);
    for (std::uint64_t word = openRow.words()[0]; word != 0; word &= word - 1) {
      const std::uint32_t image = images[__builtin_ctzll(word)];
      inRange &= image < n;
      bits |= std::uint64_t{1} << (image & 63);
    }
    mask[0] = bits;
  } else {
    std::fill_n(mask, wordCount, std::uint64_t{0});
    const auto put = [&](std::size_t u) {
      const std::uint32_t image = images[u];
      inRange &= image < n;
      if (image < n) mask[image >> 6] |= std::uint64_t{1} << (image & 63);
    };
    put(v);
    openRow.forEachSet(put);
  }
  if (!inRange) throwBadMappedRow("hashMappedRow: image out of range");
  return {images[v], mask, wordCount, n};
}

}  // namespace

util::BigUInt BatchLinearHashEvaluator::accumulateMappedRows(
    std::span<const std::uint32_t> sigma, std::span<const util::DynBitset> openRows,
    std::uint64_t n) {
  prepareTables(n, n);
  checkMapped(sigma, n);
  if (openRows.size() != n) throw std::out_of_range("accumulateMappedRows: rows != n");
  const std::size_t wordCount = (n + 63) / 64;
  std::uint64_t* mask = imageMask(wordCount);
  return accumulateRows(n, n, [&](std::size_t v) {
    return mappedRow(sigma, v, openRows[v], n, mask, wordCount);
  });
}

util::BigUInt BatchLinearHashEvaluator::hashMappedRow(std::span<const std::uint32_t> sigma,
                                                      std::uint64_t v,
                                                      const util::DynBitset& openRow,
                                                      std::uint64_t n) {
  prepareTables(n, n);
  checkMapped(sigma, n);
  const std::size_t wordCount = (n + 63) / 64;
  const RowWords row = mappedRow(sigma, v, openRow, n, imageMask(wordCount), wordCount);
  return accumulateRows(1, n, [&](std::size_t) { return row; });
}

void BatchLinearHashEvaluator::checkEntry(std::uint64_t rowIndex,
                                          std::uint64_t colIndex,
                                          std::uint64_t n) const {
  if (n * n != m_) throw std::invalid_argument("hashMatrixEntry: dimension mismatch");
  if (rowIndex >= n || colIndex >= n) {
    throw std::out_of_range("hashMatrixEntry: bad entry");
  }
}

util::BigUInt BatchLinearHashEvaluator::hashMatrixRow(std::uint64_t rowIndex,
                                                      const util::DynBitset& columnBits,
                                                      std::uint64_t n) {
  // A row hash is a canonical residue, so it is its own one-row sum.
  return accumulateMatrixRows(std::span<const std::uint64_t>(&rowIndex, 1),
                              std::span<const util::DynBitset>(&columnBits, 1), n);
}

util::BigUInt BatchLinearHashEvaluator::hashMatrixEntry(std::uint64_t rowIndex,
                                                        std::uint64_t colIndex,
                                                        std::uint64_t coefficient,
                                                        std::uint64_t n) {
  prepareTables(n, n);
  checkEntry(rowIndex, colIndex, n);
  if (backend_ == Backend::kU64) {
    // rowBase[r] * colPow[c] = a^(r*n) * a^(c+1) = a^(r*n + c + 1).
    std::uint64_t term = mulModU64(rowBase64_[rowIndex], colPow64_[colIndex], p64_);
    return util::BigUInt{mulModU64(term, coefficient % p64_, p64_)};
  }
  // Plain row base times Montgomery column power: a plain term, and a plain
  // term times Mont(coefficient) stays plain.
  const std::size_t k = ctx_->numLimbs();
  Limb* term = spareM_;
  ctx_->mulRaw(rowBaseM_ + rowIndex * k, colPowM_ + colIndex * k, term);
  if (coefficient != 1) {
    Limb* coefficientM = spareM_ + k;
    ctx_->toRaw(util::BigUInt{coefficient}, coefficientM);
    ctx_->mulRaw(term, coefficientM, term);
  }
  return util::BigUInt::fromWords(std::span<const Limb>(term, k));
}

util::BigUInt BatchLinearHashEvaluator::accumulateMatrixEntries(
    std::span<const std::uint64_t> rowIndices, std::span<const std::uint64_t> colIndices,
    std::uint64_t n) {
  if (rowIndices.size() != colIndices.size()) {
    throw std::invalid_argument("accumulateMatrixEntries: index count mismatch");
  }
  prepareTables(n, n);
  for (std::size_t i = 0; i < rowIndices.size(); ++i) {
    checkEntry(rowIndices[i], colIndices[i], n);
  }
  if (backend_ == Backend::kU64) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < rowIndices.size(); ++i) {
      acc = addModTrick(
          acc, mulModU64(rowBase64_[rowIndices[i]], colPow64_[colIndices[i]], p64_), p64_);
    }
    return util::BigUInt{acc};
  }
  const MontTables view{ctx_->kernelModulus(), colPowM_, rowBaseM_, spareM_, lazySums(n)};
  return mont::dispatch(view.mod.k, [&](auto width) {
    return montAccumulateEntries<decltype(width)::value>(view, rowIndices, colIndices);
  });
}

void BatchLinearHashEvaluator::hashBitsMany(std::span<const util::DynBitset> inputs,
                                            std::vector<util::BigUInt>& out) {
  std::size_t maxSize = 0;
  for (const util::DynBitset& bits : inputs) {
    if (bits.size() > m_) throw std::out_of_range("hashBits: bits exceed dimension");
    maxSize = std::max(maxSize, bits.size());
  }
  prepareTables(maxSize, 0);
  out.resize(inputs.size());
  if (backend_ == Backend::kU64) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      out[i].assignU64(bitsResidueSum(rowWords(0, inputs[i]), colPow64_, p64_));
    }
    return;
  }
  const MontTables view{ctx_->kernelModulus(), colPowM_, rowBaseM_, spareM_,
                        lazySums(maxSize)};
  mont::dispatch(view.mod.k, [&](auto width) {
    montHashBits<decltype(width)::value>(view, inputs, out);
  });
}

BatchLinearHashEvaluator& threadChainEvaluator() {
  thread_local BatchLinearHashEvaluator evaluator;
  return evaluator;
}

BatchLinearHashEvaluator& threadRepetitionEvaluator(std::size_t j) {
  // A deque: growing it keeps the slots already handed out in place.
  thread_local std::deque<BatchLinearHashEvaluator> slots;
  if (slots.size() <= j) slots.resize(j + 1);
  return slots[j];
}

}  // namespace dip::hash
