// Flat-limb Montgomery kernels: header-inline functions over caller-owned
// limb spans (the GMP mpn_* idiom), beneath MontgomeryContext and the batch
// hash engine.
//
// Every kernel is a template over the limb count K. The fixed widths the
// protocols hit get fully static trip counts and addressing, and a K-limb
// working array on the caller's stack can live in registers once the
// kernel inlines into a loop; K == 0 is the one runtime-k instance, which
// reads the width from the Modulus. dispatch() makes the K switch once, so a
// caller runs a whole span loop inside one instance instead of paying an
// out-of-line call and a runtime trip count per multiply.
//
// Spans are little-endian 64-bit limbs, exactly k of them unless a kernel
// says otherwise. Nothing here allocates: working space is a stack array
// (Buffer) for fixed K, or a span the caller owns (an arena slice) for the
// runtime instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace dip::util::mont {

using Limb = std::uint64_t;
__extension__ using DLimb = unsigned __int128;
inline constexpr unsigned kLimbBits = 64;

// An odd modulus m as the kernels see it: k limbs and mPrime = -m^-1 mod
// 2^64. R = 2^(64k) is the Montgomery radix.
struct Modulus {
  const Limb* m = nullptr;
  Limb mPrime = 0;
  std::size_t k = 0;
};

template <std::size_t K>
using Width = std::integral_constant<std::size_t, K>;

template <std::size_t K>
inline std::size_t width(const Modulus& mod) {
  return K != 0 ? K : mod.k;
}

// Calls body(Width<K>{}) with K = k for the fixed kernel widths and K = 0
// (the runtime-k instance) for any other. k <= 2 covers every n^(n+2) hash
// prime up to n = 16; 4, 8 and 16 are the 256/512/1024-bit Miller-Rabin and
// benchmark operands.
template <typename Body>
decltype(auto) dispatch(std::size_t k, Body&& body) {
  switch (k) {
    case 1: return body(Width<1>{});
    case 2: return body(Width<2>{});
    case 3: return body(Width<3>{});
    case 4: return body(Width<4>{});
    case 8: return body(Width<8>{});
    case 16: return body(Width<16>{});
    default: return body(Width<0>{});
  }
}

// k + Extra limbs of working space: a stack array for a fixed width, the
// caller's `spare` span (at least k + Extra limbs) for the runtime instance.
template <std::size_t K, std::size_t Extra>
class Buffer {
 public:
  explicit Buffer(Limb* /*spare*/) {}
  Limb* data() { return limbs_; }

 private:
  Limb limbs_[K + Extra] = {};
};

template <std::size_t Extra>
class Buffer<0, Extra> {
 public:
  explicit Buffer(Limb* spare) : limbs_(spare) {}
  Limb* data() { return limbs_; }

 private:
  Limb* limbs_;
};

namespace detail {

// a >= b over exactly k limbs (a compile-time count once inlined into a
// fixed-K kernel).
inline bool geq(const Limb* a, const Limb* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

// dst -= m over exactly k limbs (any final borrow is absorbed by the
// caller's carry limb).
inline void subModulus(Limb* dst, const Limb* m, std::size_t k) {
  Limb borrow = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    Limb t1 = dst[i] - m[i];
    Limb b1 = t1 > dst[i];
    Limb t2 = t1 - borrow;
    Limb b2 = t2 > t1;
    dst[i] = t2;
    borrow = b1 | b2;
  }
}

}  // namespace detail

// CIOS (coarsely integrated operand scanning) Montgomery product:
// t[0..k) = a * b * R^-1 mod m, fully reduced. Requires a < R and b < m:
// every step keeps the accumulator below b + m, so one final conditional
// subtract lands the result below m even when a is an unreduced (lazy) sum.
// t holds k + 2 limbs and aliases neither operand nor the modulus; a may
// equal b (squaring), since both are read-only.
//
// The __restrict qualifiers let the compiler hoist the b[j]/m[j] loads out
// of the carry chains. The i = 0 row is peeled: t starts at zero, so the
// first product row needs no accumulator loads, which also replaces the
// explicit zero-fill. (A BMI2/mulx target_clones variant and a fused FIOS
// pass were both measured slower than this plain unrolled form.)
template <std::size_t K>
inline void mul(const Modulus& mod, const Limb* __restrict a, const Limb* __restrict b,
                Limb* __restrict t) {
  const std::size_t k = width<K>(mod);
  const Limb* __restrict m = mod.m;
  const Limb mPrime = mod.mPrime;

  // Row i = 0: t = a_0 * b, then one reduction pass.
  {
    const Limb a0 = a[0];
    Limb carry = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(a0) * b[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    t[k] = carry;

    const Limb u = t[0] * mPrime;
    DLimb cur0 = static_cast<DLimb>(t[0]) + static_cast<DLimb>(u) * m[0];
    carry = static_cast<Limb>(cur0 >> kLimbBits);  // Low word is zero by construction.
#pragma GCC unroll 8
    for (std::size_t j = 1; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(t[j]) + static_cast<DLimb>(u) * m[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    DLimb tail = static_cast<DLimb>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(tail);
    t[k] = static_cast<Limb>(tail >> kLimbBits);
    t[k + 1] = 0;
  }

  for (std::size_t i = 1; i < k; ++i) {
    const Limb ai = a[i];

    // t += a_i * b.
    Limb carry = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(t[j]) + static_cast<DLimb>(ai) * b[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    DLimb top = static_cast<DLimb>(t[k]) + carry;
    t[k] = static_cast<Limb>(top);
    t[k + 1] = static_cast<Limb>(top >> kLimbBits);

    // u = t[0] * mPrime mod B; t += u * m; then shift one limb down.
    const Limb u = t[0] * mPrime;
    DLimb cur0 = static_cast<DLimb>(t[0]) + static_cast<DLimb>(u) * m[0];
    carry = static_cast<Limb>(cur0 >> kLimbBits);  // Low word is zero by construction.
#pragma GCC unroll 8
    for (std::size_t j = 1; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(t[j]) + static_cast<DLimb>(u) * m[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    DLimb tail = static_cast<DLimb>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(tail);
    t[k] = t[k + 1] + static_cast<Limb>(tail >> kLimbBits);
    t[k + 1] = 0;
  }

  // Result is in t[0..k] with t[k] in {0, 1} and value < 2m.
  if (t[k] != 0 || detail::geq(t, m, k)) detail::subModulus(t, m, k);
  t[k] = 0;
}

// out = a + b mod m for a, b < m; out may alias a or b.
template <std::size_t K>
inline void add(const Modulus& mod, const Limb* a, const Limb* b, Limb* out) {
  const std::size_t k = width<K>(mod);
  Limb carry = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    DLimb cur = static_cast<DLimb>(a[i]) + b[i] + carry;
    out[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> kLimbBits);
  }
  if (carry != 0 || detail::geq(out, mod.m, k)) detail::subModulus(out, mod.m, k);
}

// acc += b with no reduction. The caller guarantees the sum stays below R:
// a sum of c residues below m fits whenever bitLength(m) + bitWidth(c) <=
// 64k. The result is congruent to the modular sum, and mul() and redc()
// accept it as is.
template <std::size_t K>
inline void addLazy(const Modulus& mod, Limb* __restrict acc, const Limb* __restrict b) {
  const std::size_t k = width<K>(mod);
  Limb carry = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    DLimb cur = static_cast<DLimb>(acc[i]) + b[i] + carry;
    acc[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> kLimbBits);
  }
}

// Convert-out (REDC): out = a * R^-1 mod m, fully reduced, for any a < R.
// out may alias a; the carry limb lives in a register.
template <std::size_t K>
inline void redc(const Modulus& mod, const Limb* a, Limb* out) {
  const std::size_t k = width<K>(mod);
  const Limb* m = mod.m;
  if (out != a) {
    for (std::size_t i = 0; i < k; ++i) out[i] = a[i];
  }
  // Each pass adds u * m (making the low limb zero) and shifts down one
  // limb; the value stays below R + m, so the carry limb is 0 or 1.
  Limb hi = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb u = out[0] * mod.mPrime;
    DLimb cur0 = static_cast<DLimb>(out[0]) + static_cast<DLimb>(u) * m[0];
    Limb carry = static_cast<Limb>(cur0 >> kLimbBits);
#pragma GCC unroll 8
    for (std::size_t j = 1; j < k; ++j) {
      DLimb cur = static_cast<DLimb>(out[j]) + static_cast<DLimb>(u) * m[j] + carry;
      out[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    DLimb tail = static_cast<DLimb>(hi) + carry;
    out[k - 1] = static_cast<Limb>(tail);
    hi = static_cast<Limb>(tail >> kLimbBits);
  }
  // a < R gives a result of at most m: one conditional subtract.
  if (hi != 0 || detail::geq(out, m, k)) detail::subModulus(out, m, k);
}

}  // namespace dip::util::mont
