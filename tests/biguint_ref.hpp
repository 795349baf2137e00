// Frozen 32-bit limb reference implementation of BigUInt — the differential
// oracle for the 64-bit production engine in util/biguint.{hpp,cpp}.
//
// This is the seed implementation verbatim (little-endian 32-bit limbs,
// schoolbook multiply, Knuth Algorithm D division, square-and-multiply
// powMod), renamed so the two engines can be linked side by side. It follows
// the same pattern as tests/iso_ref for the graph layer: the slow, simple,
// battle-tested code stays compiled and becomes the test oracle that the
// optimized path must match bit for bit (tests/biguint_diff_test.cpp).
//
// It lives in tests/ and links only into the test binary.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dip::util {

class BigUIntRef;
struct DivModResultRef;
// Quotient and remainder; throws std::domain_error on division by zero.
DivModResultRef refDivMod(const BigUIntRef& dividend, const BigUIntRef& divisor);

class BigUIntRef {
 public:
  BigUIntRef() = default;
  BigUIntRef(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  static BigUIntRef fromDecimal(std::string_view text);
  static BigUIntRef fromHex(std::string_view text);

  bool isZero() const { return limbs_.empty(); }
  bool isOdd() const { return !limbs_.empty() && (limbs_[0] & 1u); }

  std::size_t bitLength() const;
  bool bit(std::size_t i) const;

  bool fitsU64() const { return limbs_.size() <= 2; }
  std::uint64_t toU64() const;

  std::string toDecimal() const;
  std::string toHex() const;

  std::strong_ordering operator<=>(const BigUIntRef& other) const;
  bool operator==(const BigUIntRef& other) const = default;

  BigUIntRef& operator+=(const BigUIntRef& rhs);
  BigUIntRef& operator-=(const BigUIntRef& rhs);
  BigUIntRef& operator*=(const BigUIntRef& rhs);
  BigUIntRef& operator<<=(std::size_t bits);
  BigUIntRef& operator>>=(std::size_t bits);

  friend BigUIntRef operator+(BigUIntRef lhs, const BigUIntRef& rhs) { return lhs += rhs; }
  friend BigUIntRef operator-(BigUIntRef lhs, const BigUIntRef& rhs) { return lhs -= rhs; }
  friend BigUIntRef operator*(const BigUIntRef& lhs, const BigUIntRef& rhs);
  friend BigUIntRef operator<<(BigUIntRef lhs, std::size_t bits) { return lhs <<= bits; }
  friend BigUIntRef operator>>(BigUIntRef lhs, std::size_t bits) { return lhs >>= bits; }

  std::uint32_t modU32(std::uint32_t modulus) const;

  static BigUIntRef pow(const BigUIntRef& base, std::uint64_t exponent);

  const std::vector<std::uint32_t>& limbs() const { return limbs_; }
  static BigUIntRef fromLimbs(std::vector<std::uint32_t> limbs);

 private:
  friend struct DivModResultRef;
  friend DivModResultRef refDivMod(const BigUIntRef& dividend, const BigUIntRef& divisor);

  void normalize();

  std::vector<std::uint32_t> limbs_;
};

struct DivModResultRef {
  BigUIntRef quotient;
  BigUIntRef remainder;
};

inline BigUIntRef operator/(const BigUIntRef& lhs, const BigUIntRef& rhs) {
  return refDivMod(lhs, rhs).quotient;
}
inline BigUIntRef operator%(const BigUIntRef& lhs, const BigUIntRef& rhs) {
  return refDivMod(lhs, rhs).remainder;
}

BigUIntRef refAddMod(const BigUIntRef& a, const BigUIntRef& b, const BigUIntRef& m);
BigUIntRef refSubMod(const BigUIntRef& a, const BigUIntRef& b, const BigUIntRef& m);
BigUIntRef refMulMod(const BigUIntRef& a, const BigUIntRef& b, const BigUIntRef& m);
// Naive square-and-multiply, the powMod oracle.
BigUIntRef refPowMod(const BigUIntRef& base, const BigUIntRef& exponent,
                     const BigUIntRef& m);

}  // namespace dip::util
