#include "util/biguint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/montgomery.hpp"

namespace dip::util {

namespace {

using Limb = BigUInt::Limb;
using DLimb = BigUInt::DLimb;
constexpr unsigned kLimbBits = BigUInt::kLimbBits;
constexpr DLimb kLimbBase = static_cast<DLimb>(1) << kLimbBits;

// Decimal I/O works in the largest power of ten that fits a limb, so each
// Horner/division pass over the limbs handles a whole chunk of digits.
constexpr unsigned kDecChunkDigits = 19;

constexpr Limb pow10Limb(unsigned digits) {
  Limb p = 1;
  for (unsigned i = 0; i < digits; ++i) p *= 10;
  return p;
}

constexpr Limb kDecChunkBase = pow10Limb(kDecChunkDigits);

int hexDigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// dst[0..dstLen) += src[0..srcLen), srcLen <= dstLen; returns the final carry.
Limb addRaw(Limb* dst, std::size_t dstLen, const Limb* src, std::size_t srcLen) {
  Limb carry = 0;
  std::size_t i = 0;
  for (; i < srcLen; ++i) {
    DLimb cur = static_cast<DLimb>(dst[i]) + src[i] + carry;
    dst[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> kLimbBits);
  }
  for (; carry && i < dstLen; ++i) {
    DLimb cur = static_cast<DLimb>(dst[i]) + carry;
    dst[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> kLimbBits);
  }
  return carry;
}

// dst[0..dstLen) += src[0..srcLen) where the sum is known to fit dstLen limbs.
void addRawAt(Limb* dst, std::size_t dstLen, const Limb* src, std::size_t srcLen) {
  addRaw(dst, dstLen, src, srcLen);
}

// dst[0..dstLen) -= src[0..srcLen); requires dst >= src as numbers.
void subRaw(Limb* dst, std::size_t dstLen, const Limb* src, std::size_t srcLen) {
  Limb borrow = 0;
  std::size_t i = 0;
  for (; i < srcLen; ++i) {
    Limb t1 = dst[i] - src[i];
    Limb b1 = t1 > dst[i];
    Limb t2 = t1 - borrow;
    Limb b2 = t2 > t1;
    dst[i] = t2;
    borrow = b1 | b2;
  }
  for (; borrow && i < dstLen; ++i) {
    Limb t = dst[i] - borrow;
    borrow = t > dst[i];
    dst[i] = t;
  }
}

// out[0..an+bn) = a * b, schoolbook. Overwrites out.
void mulSchoolbookRaw(const Limb* a, std::size_t an, const Limb* b, std::size_t bn,
                      Limb* out) {
  std::fill(out, out + an + bn, 0);
  for (std::size_t i = 0; i < an; ++i) {
    Limb ai = a[i];
    if (ai == 0) continue;
    Limb carry = 0;
    for (std::size_t j = 0; j < bn; ++j) {
      DLimb cur = static_cast<DLimb>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    out[i + bn] = carry;
  }
}

// out[0..2n) = a * b for equal-length operands; scratch must provide
// karatsubaScratchLimbs(n) limbs. Overwrites out.
void karatsubaEqualRaw(const Limb* a, const Limb* b, std::size_t n, Limb* out,
                       Limb* scratch) {
  if (n < BigUInt::kKaratsubaThresholdLimbs) {
    mulSchoolbookRaw(a, n, b, n, out);
    return;
  }
  const std::size_t lo = n / 2;
  const std::size_t hi = n - lo;
  // z0 = a0*b0 and z2 = a1*b1 land in disjoint halves of out.
  karatsubaEqualRaw(a, b, lo, out, scratch);
  karatsubaEqualRaw(a + lo, b + lo, hi, out + 2 * lo, scratch);
  Limb* asum = scratch;
  Limb* bsum = asum + (hi + 1);
  Limb* prod = bsum + (hi + 1);
  Limb* rest = prod + 2 * (hi + 1);
  std::copy(a + lo, a + n, asum);
  asum[hi] = addRaw(asum, hi, a, lo);
  std::copy(b + lo, b + n, bsum);
  bsum[hi] = addRaw(bsum, hi, b, lo);
  karatsubaEqualRaw(asum, bsum, hi + 1, prod, rest);
  // z1 = (a0+a1)(b0+b1) - z0 - z2 = a0*b1 + a1*b0, added at offset lo. Limbs
  // of prod beyond 2n - lo are provably zero (z1 < 2*B^n), so clamping the
  // add length is safe.
  subRaw(prod, 2 * (hi + 1), out, 2 * lo);
  subRaw(prod, 2 * (hi + 1), out + 2 * lo, 2 * hi);
  addRawAt(out + lo, 2 * n - lo, prod, std::min(2 * (hi + 1), 2 * n - lo));
}

std::size_t karatsubaScratchLimbs(std::size_t n) {
  std::size_t total = 0;
  while (n >= BigUInt::kKaratsubaThresholdLimbs) {
    std::size_t hi = n - n / 2;
    total += 4 * (hi + 1);
    n = hi + 1;
  }
  return total;
}

std::size_t mulScratchLimbs(std::size_t an, std::size_t bn) {
  if (an < bn) std::swap(an, bn);
  if (bn < BigUInt::kKaratsubaThresholdLimbs) return 0;
  if (an == bn) return karatsubaScratchLimbs(an);
  std::size_t rec = karatsubaScratchLimbs(bn);
  std::size_t tail = an % bn;
  if (tail != 0) rec = std::max(rec, mulScratchLimbs(bn, tail));
  return 2 * bn + rec;
}

// out[0..an+bn) = a * b; dispatches schoolbook / Karatsuba / chopped
// Karatsuba for unbalanced operands. Overwrites out.
void mulRaw(const Limb* a, std::size_t an, const Limb* b, std::size_t bn, Limb* out,
            Limb* scratch) {
  if (an < bn) {
    std::swap(a, b);
    std::swap(an, bn);
  }
  if (bn < BigUInt::kKaratsubaThresholdLimbs) {
    mulSchoolbookRaw(a, an, b, bn, out);
    return;
  }
  if (an == bn) {
    karatsubaEqualRaw(a, b, an, out, scratch);
    return;
  }
  // Chop the longer operand into bn-limb blocks, each multiplied balanced.
  std::fill(out, out + an + bn, 0);
  Limb* temp = scratch;
  Limb* rest = scratch + 2 * bn;
  for (std::size_t offset = 0; offset < an; offset += bn) {
    std::size_t blockLen = std::min(bn, an - offset);
    if (blockLen == bn) {
      karatsubaEqualRaw(a + offset, b, bn, temp, rest);
    } else {
      mulRaw(a + offset, blockLen, b, bn, temp, rest);
    }
    addRawAt(out + offset, an + bn - offset, temp, blockLen + bn);
  }
}

}  // namespace

void detail::LimbBuffer::grow(std::size_t count) {
  constexpr std::size_t kMaxLimbs = UINT32_MAX;
  if (count > kMaxLimbs) throw std::length_error("BigUInt: too many limbs");
  const std::size_t capacity =
      std::min(std::max(count, 2 * std::size_t{capacity_}), kMaxLimbs);
  Limb* block = new Limb[capacity];
  std::copy(data_, data_ + size_, block);
  release();
  data_ = block;
  capacity_ = static_cast<std::uint32_t>(capacity);
}

BigUInt BigUInt::fromWords(std::span<const Limb> words) {
  BigUInt out;
  out.limbs_.assign(words.data(), words.size());
  out.normalize();
  return out;
}

BigUInt BigUInt::fromDecimal(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigUInt::fromDecimal: empty string");
  BigUInt out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t len = (pos == 0) ? (text.size() % kDecChunkDigits) : kDecChunkDigits;
    if (len == 0) len = kDecChunkDigits;
    Limb chunk = 0;
    for (std::size_t i = 0; i < len; ++i) {
      char c = text[pos + i];
      if (c < '0' || c > '9') {
        throw std::invalid_argument("BigUInt::fromDecimal: non-digit character");
      }
      chunk = chunk * 10 + static_cast<Limb>(c - '0');
    }
    // out = out * 10^len + chunk, fused in one limb pass.
    Limb mult = pow10Limb(static_cast<unsigned>(len));
    Limb carry = chunk;
    for (auto& limb : out.limbs_) {
      DLimb cur = static_cast<DLimb>(limb) * mult + carry;
      limb = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    if (carry) out.limbs_.pushBack(carry);
    pos += len;
  }
  return out;
}

BigUInt BigUInt::fromHex(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigUInt::fromHex: empty string");
  BigUInt out;
  out.limbs_.resize((4 * text.size() + kLimbBits - 1) / kLimbBits);
  std::size_t bitPos = 0;
  for (std::size_t i = text.size(); i-- > 0;) {
    int digit = hexDigitValue(text[i]);
    if (digit < 0) throw std::invalid_argument("BigUInt::fromHex: non-hex character");
    out.limbs_[bitPos / kLimbBits] |=
        static_cast<Limb>(digit) << (bitPos % kLimbBits);
    bitPos += 4;
  }
  out.normalize();
  return out;
}

std::size_t BigUInt::bitLength() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * kLimbBits +
         static_cast<std::size_t>(std::bit_width(limbs_.back()));
}

bool BigUInt::bit(std::size_t i) const {
  std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1u;
}

std::uint64_t BigUInt::toU64() const {
  if (!fitsU64()) throw std::overflow_error("BigUInt::toU64: value exceeds 64 bits");
  return limbs_.empty() ? 0 : limbs_[0];
}

double BigUInt::toDouble() const {
  double value = 0.0;
  const double base = std::ldexp(1.0, kLimbBits);
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    value = value * base + static_cast<double>(limbs_[i]);
    if (!std::isfinite(value)) return std::numeric_limits<double>::infinity();
  }
  return value;
}

double BigUInt::log2() const {
  if (limbs_.empty()) return -std::numeric_limits<double>::infinity();
  // Use the top (up to) two limbs for the mantissa and count the rest as shift.
  std::size_t nLimbs = limbs_.size();
  const double base = std::ldexp(1.0, kLimbBits);
  double mantissa = 0.0;
  std::size_t used = std::min<std::size_t>(2, nLimbs);
  for (std::size_t i = 0; i < used; ++i) {
    mantissa = mantissa * base + static_cast<double>(limbs_[nLimbs - 1 - i]);
  }
  return std::log2(mantissa) +
         static_cast<double>(kLimbBits) * static_cast<double>(nLimbs - used);
}

std::string BigUInt::toDecimal() const {
  if (limbs_.empty()) return "0";
  std::string digits;  // Least significant first; reversed at the end.
  detail::LimbBuffer work = limbs_;
  while (!work.empty()) {
    // Divide `work` by 10^kDecChunkDigits in place; the remainder yields a
    // whole chunk of digits per pass.
    DLimb remainder = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      DLimb cur = (remainder << kLimbBits) | work[i];
      work[i] = static_cast<Limb>(cur / kDecChunkBase);
      remainder = cur % kDecChunkBase;
    }
    while (!work.empty() && work.back() == 0) work.popBack();
    Limb chunk = static_cast<Limb>(remainder);
    if (work.empty()) {
      while (chunk) {
        digits.push_back(static_cast<char>('0' + chunk % 10));
        chunk /= 10;
      }
    } else {
      for (unsigned i = 0; i < kDecChunkDigits; ++i) {
        digits.push_back(static_cast<char>('0' + chunk % 10));
        chunk /= 10;
      }
    }
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigUInt::toHex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = kLimbBits - 4; shift >= 0; shift -= 4) {
      out.push_back(kHex[(limbs_[i] >> shift) & 0xF]);
    }
  }
  std::size_t firstNonZero = out.find_first_not_of('0');
  return out.substr(firstNonZero);
}

std::strong_ordering BigUInt::operator<=>(const BigUInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt& BigUInt::operator+=(const BigUInt& rhs) {
  if (limbs_.size() < rhs.limbs_.size()) limbs_.resize(rhs.limbs_.size());
  Limb carry = addRaw(limbs_.data(), limbs_.size(), rhs.limbs_.data(),
                      rhs.limbs_.size());
  if (carry) limbs_.pushBack(carry);
  return *this;
}

BigUInt& BigUInt::operator-=(const BigUInt& rhs) {
  if (*this < rhs) throw std::underflow_error("BigUInt::operator-=: negative result");
  subRaw(limbs_.data(), limbs_.size(), rhs.limbs_.data(), rhs.limbs_.size());
  normalize();
  return *this;
}

void BigUInt::mulInto(const BigUInt& lhs, const BigUInt& rhs, BigUInt& out,
                      std::vector<Limb>& scratch) {
  if (&out == &lhs || &out == &rhs) {
    out = lhs * rhs;
    return;
  }
  if (lhs.isZero() || rhs.isZero()) {
    out.limbs_.clear();
    return;
  }
  const std::size_t an = lhs.limbs_.size();
  const std::size_t bn = rhs.limbs_.size();
  std::size_t need = mulScratchLimbs(an, bn);
  if (scratch.size() < need) scratch.resize(need);
  out.limbs_.resize(an + bn);
  mulRaw(lhs.limbs_.data(), an, rhs.limbs_.data(), bn, out.limbs_.data(),
         scratch.data());
  out.normalize();
}

BigUInt operator*(const BigUInt& lhs, const BigUInt& rhs) {
  BigUInt out;
  std::vector<BigUInt::Limb> scratch;
  BigUInt::mulInto(lhs, rhs, out, scratch);
  return out;
}

BigUInt& BigUInt::operator*=(const BigUInt& rhs) {
  *this = *this * rhs;
  return *this;
}

BigUInt& BigUInt::operator<<=(std::size_t bits) {
  if (limbs_.empty() || bits == 0) return *this;
  const std::size_t limbShift = bits / kLimbBits;
  const unsigned bitShift = static_cast<unsigned>(bits % kLimbBits);
  const std::size_t oldSize = limbs_.size();
  limbs_.resize(oldSize + limbShift + (bitShift ? 1 : 0));
  if (bitShift) {
    limbs_[oldSize + limbShift] = limbs_[oldSize - 1] >> (kLimbBits - bitShift);
    for (std::size_t i = oldSize - 1; i-- > 0;) {
      limbs_[i + limbShift + 1] =
          (limbs_[i + 1] << bitShift) | (limbs_[i] >> (kLimbBits - bitShift));
    }
    limbs_[limbShift] = limbs_[0] << bitShift;
  } else {
    for (std::size_t i = oldSize; i-- > 0;) limbs_[i + limbShift] = limbs_[i];
  }
  std::fill(limbs_.begin(), limbs_.begin() + limbShift, 0);
  normalize();
  return *this;
}

BigUInt& BigUInt::operator>>=(std::size_t bits) {
  if (limbs_.empty()) return *this;
  std::size_t limbShift = bits / kLimbBits;
  unsigned bitShift = static_cast<unsigned>(bits % kLimbBits);
  if (limbShift >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  std::size_t newSize = limbs_.size() - limbShift;
  for (std::size_t i = 0; i < newSize; ++i) {
    Limb cur = limbs_[i + limbShift] >> bitShift;
    if (bitShift && i + limbShift + 1 < limbs_.size()) {
      cur |= limbs_[i + limbShift + 1] << (kLimbBits - bitShift);
    }
    limbs_[i] = cur;
  }
  limbs_.resize(newSize);
  normalize();
  return *this;
}

std::uint32_t BigUInt::modU32(std::uint32_t modulus) const {
  if (modulus == 0) throw std::domain_error("BigUInt::modU32: division by zero");
  std::uint64_t remainder = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    // Split each 64-bit limb into 32-bit halves so the running value stays
    // within a native 64-bit division.
    remainder = ((remainder << 32) | (limbs_[i] >> 32)) % modulus;
    remainder = ((remainder << 32) | (limbs_[i] & 0xFFFFFFFFull)) % modulus;
  }
  return static_cast<std::uint32_t>(remainder);
}

std::uint64_t BigUInt::modU64(std::uint64_t modulus) const {
  if (modulus == 0) throw std::domain_error("BigUInt::modU64: division by zero");
  DLimb remainder = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    DLimb cur = (remainder << kLimbBits) | limbs_[i];
    remainder = cur % modulus;
  }
  return static_cast<std::uint64_t>(remainder);
}

DivModResult divMod(const BigUInt& dividend, const BigUInt& divisor) {
  if (divisor.isZero()) throw std::domain_error("BigUInt::divMod: division by zero");
  if (dividend < divisor) return {BigUInt{}, dividend};

  // Single-limb divisor fast path.
  if (divisor.limbs_.size() == 1) {
    Limb d = divisor.limbs_[0];
    BigUInt quotient;
    quotient.limbs_.resize(dividend.limbs_.size());
    DLimb remainder = 0;
    for (std::size_t i = dividend.limbs_.size(); i-- > 0;) {
      DLimb cur = (remainder << kLimbBits) | dividend.limbs_[i];
      quotient.limbs_[i] = static_cast<Limb>(cur / d);
      remainder = cur % d;
    }
    quotient.normalize();
    BigUInt rem;
    if (remainder) rem.limbs_.pushBack(static_cast<Limb>(remainder));
    return {std::move(quotient), std::move(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D (4.3.1), base 2^kLimbBits.
  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = dividend.limbs_.size() - n;

  // D1: normalize so the divisor's top limb has its high bit set.
  const unsigned shift = static_cast<unsigned>(
      kLimbBits - std::bit_width(divisor.limbs_.back()));
  BigUInt u = dividend << shift;
  BigUInt v = divisor << shift;
  u.limbs_.resize(dividend.limbs_.size() + 1);  // Room for u[m + n].

  BigUInt quotient;
  quotient.limbs_.resize(m + 1);

  const DLimb vTop = v.limbs_[n - 1];
  const DLimb vSecond = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate the quotient digit.
    DLimb numerator =
        (static_cast<DLimb>(u.limbs_[j + n]) << kLimbBits) | u.limbs_[j + n - 1];
    DLimb qHat = numerator / vTop;
    DLimb rHat = numerator % vTop;
    while (qHat >= kLimbBase ||
           qHat * vSecond > ((rHat << kLimbBits) | u.limbs_[j + n - 2])) {
      --qHat;
      rHat += vTop;
      if (rHat >= kLimbBase) break;
    }

    // D4: multiply-and-subtract u[j .. j+n] -= qHat * v.
    Limb q = static_cast<Limb>(qHat);
    Limb borrow = 0;
    Limb mulCarry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      DLimb product = static_cast<DLimb>(q) * v.limbs_[i] + mulCarry;
      mulCarry = static_cast<Limb>(product >> kLimbBits);
      Limb pLow = static_cast<Limb>(product);
      Limb t1 = u.limbs_[j + i] - pLow;
      Limb b1 = t1 > u.limbs_[j + i];
      Limb t2 = t1 - borrow;
      Limb b2 = t2 > t1;
      u.limbs_[j + i] = t2;
      borrow = b1 | b2;
    }
    Limb top = u.limbs_[j + n];
    Limb t1 = top - mulCarry;
    Limb b1 = t1 > top;
    Limb t2 = t1 - borrow;
    Limb b2 = t2 > t1;
    u.limbs_[j + n] = t2;  // Wraps mod 2^kLimbBits if negative.
    bool negative = b1 || b2;

    // D5/D6: if we subtracted too much, add v back and decrement the digit.
    if (negative) {
      --q;
      Limb addCarry = addRaw(&u.limbs_[j], n, v.limbs_.data(), n);
      u.limbs_[j + n] = static_cast<Limb>(u.limbs_[j + n] + addCarry);
    }

    quotient.limbs_[j] = q;
  }

  quotient.normalize();
  u.limbs_.resize(n);
  u.normalize();
  u >>= shift;
  return {std::move(quotient), std::move(u)};
}

BigUInt BigUInt::pow(const BigUInt& base, std::uint64_t exponent) {
  BigUInt result{1};
  BigUInt square = base;
  while (exponent) {
    if (exponent & 1) result *= square;
    exponent >>= 1;
    if (exponent) square *= square;
  }
  return result;
}

BigUInt addMod(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  BigUInt sum = a + b;
  if (sum >= m) sum -= m;
  return sum;
}

void addModInPlace(BigUInt& acc, const BigUInt& term, const BigUInt& m) {
  acc += term;
  if (acc >= m) acc -= m;
}

BigUInt subMod(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  if (a >= b) return a - b;
  return a + m - b;
}

BigUInt mulMod(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  if (m.isZero()) throw std::domain_error("mulMod: zero modulus");
  if (m.fitsU64() && a.fitsU64() && b.fitsU64()) {
    __extension__ using U128 = unsigned __int128;
    U128 product = static_cast<U128>(a.toU64()) * b.toU64();
    return BigUInt{static_cast<std::uint64_t>(product % m.toU64())};
  }
  if (m.isOdd()) {
    // Two REDC passes via the memoized context beat a Karatsuba multiply
    // followed by Knuth-D division.
    return cachedMontgomeryContext(m)->mulMod(a, b);
  }
  return (a * b) % m;
}

BigUInt powMod(const BigUInt& base, const BigUInt& exponent, const BigUInt& m) {
  if (m.isZero()) throw std::domain_error("powMod: zero modulus");
  if (m == BigUInt{1}) return BigUInt{};
  if (m.fitsU64()) {
    const std::uint64_t mv = m.toU64();
    __extension__ using U128 = unsigned __int128;
    std::uint64_t result = 1 % mv;
    std::uint64_t square = base.modU64(mv);
    std::size_t bits = exponent.bitLength();
    for (std::size_t i = 0; i < bits; ++i) {
      if (exponent.bit(i)) {
        result = static_cast<std::uint64_t>(static_cast<U128>(result) * square % mv);
      }
      if (i + 1 < bits) {
        square = static_cast<std::uint64_t>(static_cast<U128>(square) * square % mv);
      }
    }
    return BigUInt{result};
  }
  if (m.isOdd()) return cachedMontgomeryContext(m)->powMod(base, exponent);
  return BarrettContext(m).powMod(base, exponent);
}

}  // namespace dip::util
