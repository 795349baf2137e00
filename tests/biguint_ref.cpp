#include "biguint_ref.hpp"

#include <algorithm>
#include <stdexcept>

namespace dip::util {

namespace {

constexpr std::uint64_t kLimbBase = 1ull << 32;

int hexDigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

BigUIntRef::BigUIntRef(std::uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(value));
    if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
  }
}

void BigUIntRef::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUIntRef BigUIntRef::fromLimbs(std::vector<std::uint32_t> limbs) {
  BigUIntRef out;
  out.limbs_ = std::move(limbs);
  out.normalize();
  return out;
}

BigUIntRef BigUIntRef::fromDecimal(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigUIntRef::fromDecimal: empty string");
  BigUIntRef out;
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("BigUIntRef::fromDecimal: non-digit character");
    }
    std::uint64_t carry = static_cast<std::uint64_t>(c - '0');
    for (auto& limb : out.limbs_) {
      std::uint64_t cur = static_cast<std::uint64_t>(limb) * 10 + carry;
      limb = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  return out;
}

BigUIntRef BigUIntRef::fromHex(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigUIntRef::fromHex: empty string");
  BigUIntRef out;
  for (char c : text) {
    int digit = hexDigitValue(c);
    if (digit < 0) throw std::invalid_argument("BigUIntRef::fromHex: non-hex character");
    out <<= 4;
    if (digit != 0) {
      if (out.limbs_.empty()) out.limbs_.push_back(0);
      out.limbs_[0] |= static_cast<std::uint32_t>(digit);
    }
  }
  return out;
}

std::size_t BigUIntRef::bitLength() const {
  if (limbs_.empty()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUIntRef::bit(std::size_t i) const {
  std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

std::uint64_t BigUIntRef::toU64() const {
  if (!fitsU64()) throw std::overflow_error("BigUIntRef::toU64: value exceeds 64 bits");
  std::uint64_t value = 0;
  if (limbs_.size() > 1) value = static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) value |= limbs_[0];
  return value;
}

std::string BigUIntRef::toDecimal() const {
  if (limbs_.empty()) return "0";
  std::string digits;
  std::vector<std::uint32_t> work = limbs_;
  while (!work.empty()) {
    std::uint64_t remainder = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      std::uint64_t cur = (remainder << 32) | work[i];
      work[i] = static_cast<std::uint32_t>(cur / 10);
      remainder = cur % 10;
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    digits.push_back(static_cast<char>('0' + remainder));
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigUIntRef::toHex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kHex[(limbs_[i] >> shift) & 0xF]);
    }
  }
  std::size_t firstNonZero = out.find_first_not_of('0');
  return out.substr(firstNonZero);
}

std::strong_ordering BigUIntRef::operator<=>(const BigUIntRef& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUIntRef& BigUIntRef::operator+=(const BigUIntRef& rhs) {
  if (limbs_.size() < rhs.limbs_.size()) limbs_.resize(rhs.limbs_.size(), 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t cur = static_cast<std::uint64_t>(limbs_[i]) + carry;
    if (i < rhs.limbs_.size()) cur += rhs.limbs_[i];
    limbs_[i] = static_cast<std::uint32_t>(cur);
    carry = cur >> 32;
  }
  if (carry) limbs_.push_back(static_cast<std::uint32_t>(carry));
  return *this;
}

BigUIntRef& BigUIntRef::operator-=(const BigUIntRef& rhs) {
  if (*this < rhs) throw std::underflow_error("BigUIntRef::operator-=: negative result");
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t cur = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < rhs.limbs_.size()) cur -= rhs.limbs_[i];
    if (cur < 0) {
      cur += static_cast<std::int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    limbs_[i] = static_cast<std::uint32_t>(cur);
  }
  normalize();
  return *this;
}

BigUIntRef operator*(const BigUIntRef& lhs, const BigUIntRef& rhs) {
  if (lhs.isZero() || rhs.isZero()) return BigUIntRef{};
  BigUIntRef out;
  out.limbs_.assign(lhs.limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < lhs.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t a = lhs.limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      std::uint64_t cur = a * rhs.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + rhs.limbs_.size();
    while (carry) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.normalize();
  return out;
}

BigUIntRef& BigUIntRef::operator*=(const BigUIntRef& rhs) {
  *this = *this * rhs;
  return *this;
}

BigUIntRef& BigUIntRef::operator<<=(std::size_t bits) {
  if (limbs_.empty() || bits == 0) return *this;
  std::size_t limbShift = bits / 32;
  unsigned bitShift = static_cast<unsigned>(bits % 32);
  std::vector<std::uint32_t> shifted(limbs_.size() + limbShift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t cur = static_cast<std::uint64_t>(limbs_[i]) << bitShift;
    shifted[i + limbShift] |= static_cast<std::uint32_t>(cur);
    shifted[i + limbShift + 1] |= static_cast<std::uint32_t>(cur >> 32);
  }
  limbs_ = std::move(shifted);
  normalize();
  return *this;
}

BigUIntRef& BigUIntRef::operator>>=(std::size_t bits) {
  if (limbs_.empty()) return *this;
  std::size_t limbShift = bits / 32;
  unsigned bitShift = static_cast<unsigned>(bits % 32);
  if (limbShift >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  std::size_t newSize = limbs_.size() - limbShift;
  for (std::size_t i = 0; i < newSize; ++i) {
    std::uint64_t cur = limbs_[i + limbShift] >> bitShift;
    if (bitShift && i + limbShift + 1 < limbs_.size()) {
      cur |= static_cast<std::uint64_t>(limbs_[i + limbShift + 1]) << (32 - bitShift);
    }
    limbs_[i] = static_cast<std::uint32_t>(cur);
  }
  limbs_.resize(newSize);
  normalize();
  return *this;
}

std::uint32_t BigUIntRef::modU32(std::uint32_t modulus) const {
  if (modulus == 0) throw std::domain_error("BigUIntRef::modU32: division by zero");
  std::uint64_t remainder = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    remainder = ((remainder << 32) | limbs_[i]) % modulus;
  }
  return static_cast<std::uint32_t>(remainder);
}

DivModResultRef refDivMod(const BigUIntRef& dividend, const BigUIntRef& divisor) {
  if (divisor.isZero()) throw std::domain_error("BigUIntRef::divMod: division by zero");
  if (dividend < divisor) return {BigUIntRef{}, dividend};

  // Single-limb divisor fast path.
  if (divisor.limbs_.size() == 1) {
    std::uint32_t d = divisor.limbs_[0];
    BigUIntRef quotient;
    quotient.limbs_.assign(dividend.limbs_.size(), 0);
    std::uint64_t remainder = 0;
    for (std::size_t i = dividend.limbs_.size(); i-- > 0;) {
      std::uint64_t cur = (remainder << 32) | dividend.limbs_[i];
      quotient.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      remainder = cur % d;
    }
    quotient.normalize();
    return {std::move(quotient), BigUIntRef{remainder}};
  }

  // Knuth TAOCP vol. 2, Algorithm D (4.3.1), base 2^32.
  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = dividend.limbs_.size() - n;

  unsigned shift = 0;
  {
    std::uint32_t top = divisor.limbs_.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  BigUIntRef u = dividend << shift;
  BigUIntRef v = divisor << shift;
  u.limbs_.resize(dividend.limbs_.size() + 1, 0);

  BigUIntRef quotient;
  quotient.limbs_.assign(m + 1, 0);

  const std::uint64_t vTop = v.limbs_[n - 1];
  const std::uint64_t vSecond = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    std::uint64_t numerator =
        (static_cast<std::uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    std::uint64_t qHat = numerator / vTop;
    std::uint64_t rHat = numerator % vTop;
    while (qHat >= kLimbBase ||
           qHat * vSecond > ((rHat << 32) | u.limbs_[j + n - 2])) {
      --qHat;
      rHat += vTop;
      if (rHat >= kLimbBase) break;
    }

    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t product = qHat * v.limbs_[i] + carry;
      carry = product >> 32;
      std::int64_t sub = static_cast<std::int64_t>(u.limbs_[j + i]) -
                         static_cast<std::int64_t>(product & 0xFFFFFFFFull) - borrow;
      if (sub < 0) {
        sub += static_cast<std::int64_t>(kLimbBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[j + i] = static_cast<std::uint32_t>(sub);
    }
    std::int64_t subTop = static_cast<std::int64_t>(u.limbs_[j + n]) -
                          static_cast<std::int64_t>(carry) - borrow;
    bool negative = subTop < 0;
    u.limbs_[j + n] = static_cast<std::uint32_t>(subTop);

    if (negative) {
      --qHat;
      std::uint64_t addCarry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum =
            static_cast<std::uint64_t>(u.limbs_[j + i]) + v.limbs_[i] + addCarry;
        u.limbs_[j + i] = static_cast<std::uint32_t>(sum);
        addCarry = sum >> 32;
      }
      u.limbs_[j + n] = static_cast<std::uint32_t>(u.limbs_[j + n] + addCarry);
    }

    quotient.limbs_[j] = static_cast<std::uint32_t>(qHat);
  }

  quotient.normalize();
  u.limbs_.resize(n);
  u.normalize();
  u >>= shift;
  return {std::move(quotient), std::move(u)};
}

BigUIntRef BigUIntRef::pow(const BigUIntRef& base, std::uint64_t exponent) {
  BigUIntRef result{1};
  BigUIntRef square = base;
  while (exponent) {
    if (exponent & 1) result *= square;
    exponent >>= 1;
    if (exponent) square *= square;
  }
  return result;
}

BigUIntRef refAddMod(const BigUIntRef& a, const BigUIntRef& b, const BigUIntRef& m) {
  BigUIntRef sum = a + b;
  if (sum >= m) sum -= m;
  return sum;
}

BigUIntRef refSubMod(const BigUIntRef& a, const BigUIntRef& b, const BigUIntRef& m) {
  if (a >= b) return a - b;
  return a + m - b;
}

BigUIntRef refMulMod(const BigUIntRef& a, const BigUIntRef& b, const BigUIntRef& m) {
  if (m.isZero()) throw std::domain_error("refMulMod: zero modulus");
  return (a * b) % m;
}

BigUIntRef refPowMod(const BigUIntRef& base, const BigUIntRef& exponent,
                     const BigUIntRef& m) {
  if (m.isZero()) throw std::domain_error("refPowMod: zero modulus");
  if (m == BigUIntRef{1}) return BigUIntRef{};
  BigUIntRef result{1};
  BigUIntRef square = base % m;
  std::size_t bits = exponent.bitLength();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exponent.bit(i)) result = refMulMod(result, square, m);
    if (i + 1 < bits) square = refMulMod(square, square, m);
  }
  return result;
}

}  // namespace dip::util
