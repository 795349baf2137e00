// Arbitrary-precision unsigned integer arithmetic.
//
// Protocol 2 of the paper (the dAM protocol for Sym, Theorem 1.3) hashes the
// adjacency matrix with a linear hash over Z_p for a prime
// p in [10 * n^(n+2), 100 * n^(n+2)] — thousands of bits for interesting n —
// and the distributed Goldwasser-Sipser protocol for GNI (Theorem 1.5) needs
// a field of size ~ n! * n. BigUInt provides exactly the operations those
// protocols need: comparison, +, -, *, divmod, shifts, bit access, modular
// exponentiation, and textual I/O.
//
// Representation: little-endian 64-bit limbs, always normalized (no trailing
// zero limbs); zero has no limbs. The first two limbs live inside the object
// (detail::LimbBuffer, limb_buffer.hpp), so every value up to 128 bits -- all
// u64 fields and Protocol 2's 78-bit field at n = 16 -- is built, copied and
// destroyed without touching the heap; wider values move to one heap block
// that copy-assignment reuses. sizeof(BigUInt) is 32 bytes. Products use
// unsigned __int128 double-limbs and are always schoolbook: the widest field
// any workload runs is two limbs. The frozen seed implementation lives on as
// BigUIntRef in tests/, the differential-test oracle for this engine.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/limb_buffer.hpp"

namespace dip::util {

class BigUInt;
struct DivModResult;
// Quotient and remainder; throws std::domain_error on division by zero.
DivModResult divMod(const BigUInt& dividend, const BigUInt& divisor);

class BigUInt {
 public:
  using Limb = detail::LimbBuffer::Limb;
  __extension__ using DLimb = unsigned __int128;
  static constexpr unsigned kLimbBits = 64;

  BigUInt() = default;
  BigUInt(std::uint64_t value) {  // NOLINT(google-explicit-constructor)
    if (value != 0) limbs_.pushBack(value);
  }

  // Parses a non-empty string of decimal digits. Throws std::invalid_argument
  // on any other input.
  static BigUInt fromDecimal(std::string_view text);
  // Parses a non-empty string of hex digits (no 0x prefix, case-insensitive).
  static BigUInt fromHex(std::string_view text);

  bool isZero() const { return limbs_.empty(); }
  bool isOdd() const { return !limbs_.empty() && (limbs_[0] & 1u); }

  // Number of significant bits; 0 for zero.
  std::size_t bitLength() const;
  // Value of bit i (little-endian); false beyond bitLength().
  bool bit(std::size_t i) const;

  bool fitsU64() const { return limbs_.size() <= 1; }
  // Requires fitsU64(); throws std::overflow_error otherwise.
  std::uint64_t toU64() const;
  // *this = value, reusing the existing limb storage (never allocates) -- the
  // batch evaluator's out-vectors rewrite in place.
  void assignU64(std::uint64_t value) {
    limbs_.clear();
    if (value != 0) limbs_.pushBack(value);
  }
  // Approximate conversion (for plotting/scaling); +inf if enormous.
  double toDouble() const;
  // Approximate base-2 logarithm; -inf for zero.
  double log2() const;

  std::string toDecimal() const;
  std::string toHex() const;

  std::strong_ordering operator<=>(const BigUInt& other) const;
  // Compares values: an inline and a heap-backed copy of a number are equal.
  bool operator==(const BigUInt& other) const { return limbs_ == other.limbs_; }

  BigUInt& operator+=(const BigUInt& rhs);
  // Requires *this >= rhs; throws std::underflow_error otherwise.
  BigUInt& operator-=(const BigUInt& rhs);
  BigUInt& operator*=(const BigUInt& rhs);
  BigUInt& operator<<=(std::size_t bits);
  BigUInt& operator>>=(std::size_t bits);

  // In-place aliases for the hot paths: after warm-up these reuse the limb
  // storage's capacity, so steady-state Horner chains allocate nothing.
  BigUInt& addInPlace(const BigUInt& rhs) { return *this += rhs; }
  BigUInt& subInPlace(const BigUInt& rhs) { return *this -= rhs; }
  BigUInt& shiftLeftInPlace(std::size_t bits) { return *this <<= bits; }

  friend BigUInt operator+(BigUInt lhs, const BigUInt& rhs) { return lhs += rhs; }
  friend BigUInt operator-(BigUInt lhs, const BigUInt& rhs) { return lhs -= rhs; }
  friend BigUInt operator*(const BigUInt& lhs, const BigUInt& rhs);
  friend BigUInt operator<<(BigUInt lhs, std::size_t bits) { return lhs <<= bits; }
  friend BigUInt operator>>(BigUInt lhs, std::size_t bits) { return lhs >>= bits; }

  // out = lhs * rhs without touching the heap once out has warmed up to the
  // working size. out must not alias lhs or rhs (falls back to an allocating
  // multiply if it does).
  static void mulInto(const BigUInt& lhs, const BigUInt& rhs, BigUInt& out);

  // Fast path: remainder by a non-zero 32-bit modulus.
  std::uint32_t modU32(std::uint32_t modulus) const;
  // Remainder by a non-zero 64-bit modulus (one pass; feeds the small-prime
  // sieve in primes.cpp).
  std::uint64_t modU64(std::uint64_t modulus) const;

  // Raises base to the given (machine-word) exponent; no modulus.
  static BigUInt pow(const BigUInt& base, std::uint64_t exponent);

  // The native limbs, little-endian (for the Montgomery kernels and the codec).
  std::span<const Limb> words() const { return {limbs_.data(), limbs_.size()}; }
  // The value of little-endian limbs; trailing zero limbs are allowed.
  static BigUInt fromWords(std::span<const Limb> words);
  // The value of `count` little-endian limbs that fill(std::span<Limb>) writes
  // in place over zeros -- no staging buffer, and no heap up to two limbs.
  template <typename Fill>
  static BigUInt fromWords(std::size_t count, Fill&& fill) {
    BigUInt out;
    out.limbs_.resize(count);
    fill(std::span<Limb>(out.limbs_.data(), count));
    out.normalize();
    return out;
  }

 private:
  friend struct DivModResult;
  friend DivModResult divMod(const BigUInt& dividend, const BigUInt& divisor);

  void normalize() {
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.popBack();
  }

  detail::LimbBuffer limbs_;
};

static_assert(sizeof(BigUInt) <= 32, "BigUInt is a pointer, two sizes and two limbs");

struct DivModResult {
  BigUInt quotient;
  BigUInt remainder;
};

inline BigUInt operator/(const BigUInt& lhs, const BigUInt& rhs) {
  return divMod(lhs, rhs).quotient;
}
inline BigUInt operator%(const BigUInt& lhs, const BigUInt& rhs) {
  return divMod(lhs, rhs).remainder;
}

// (a + b) mod m. Requires a, b < m.
BigUInt addMod(const BigUInt& a, const BigUInt& b, const BigUInt& m);
// acc = (acc + term) mod m in place. Requires acc, term < m. The in-place
// form reuses acc's limb storage — the protocols' per-node chain folds call
// this thousands of times per trial, so the temporary-free variant matters.
void addModInPlace(BigUInt& acc, const BigUInt& term, const BigUInt& m);
// (a * b) mod m. Requires m != 0. Has a 64-bit fast path when m and both
// operands fit a word; otherwise multiplies and divides.
BigUInt mulMod(const BigUInt& a, const BigUInt& b, const BigUInt& m);
// (base ^ exponent) mod m. Requires m != 0. A u64 ladder when m fits a word,
// otherwise the memoized Montgomery context (montgomery.hpp); throws
// std::invalid_argument for an even m >= 2^64, which no field needs.
BigUInt powMod(const BigUInt& base, const BigUInt& exponent, const BigUInt& m);

}  // namespace dip::util
