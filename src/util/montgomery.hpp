// Montgomery modular arithmetic for a fixed odd modulus.
//
// Miller-Rabin primality testing and the protocols' Horner hash chains spend
// nearly all of their time in modular multiplications with a FIXED modulus.
// Montgomery representation replaces each division by the modulus with
// shifts and multiplications: with k-limb operands, a Montgomery product
// (CIOS, coarsely integrated operand scanning) costs ~2k^2 word
// multiplications and no division, versus mul + Knuth-D division otherwise.
//
// Callers pin operands in the Montgomery domain once (MontgomeryValue, or
// raw limbs in their own storage), chain multiplies/adds at one REDC per
// multiply and zero heap allocations after scratch warm-up, and convert out
// once at the end. Montgomery form is linear, so in-domain add is ordinary
// modular add, and equality in-domain is equality of residues. powMod is
// the one plain-domain entry point: it converts in, runs the windowed
// ladder in-domain and converts out.
//
// Every product, sum and convert-out runs through the flat-limb kernels of
// util/mont_kernels.hpp; the context's methods are thin dispatchers that
// pick the kernel width and stage through stack accumulators.
#pragma once

#include <memory>
#include <vector>

#include "util/biguint.hpp"
#include "util/mont_kernels.hpp"

namespace dip::util {

class MontgomeryContext;

// A value pinned in the Montgomery domain (x * R mod m) of one fixed
// context: exactly numLimbs() little-endian limbs, always < m. The domain
// map is a bijection, so operator== compares the underlying residues.
// Values must originate from the owning context (toValue / oneValue /
// zeroValue / mulValue / powValue); a default-constructed value is only a
// target slot.
class MontgomeryValue {
 public:
  MontgomeryValue() = default;
  bool operator==(const MontgomeryValue&) const = default;
  const std::vector<BigUInt::Limb>& limbs() const { return limbs_; }

 private:
  friend class MontgomeryContext;
  std::vector<BigUInt::Limb> limbs_;
};

class MontgomeryContext {
 public:
  using Limb = BigUInt::Limb;

  // Flat caller-provided scratch, lazily sized to the context: table is
  // the fixed-window powMod table (16 * k limbs). CIOS accumulators live on
  // the stack, so the calls that only multiply take a Scratch without
  // touching it. Reusing one Scratch across a hash chain keeps the steady
  // state allocation-free; a Scratch may serve contexts of any size.
  struct Scratch {
    std::vector<Limb> table;
  };

  // Requires an odd modulus >= 3.
  explicit MontgomeryContext(BigUInt modulus);

  const BigUInt& modulus() const { return m_; }
  std::size_t numLimbs() const { return numLimbs_; }
  // The modulus as the flat-limb kernels take it (valid while the context
  // lives).
  mont::Modulus kernelModulus() const { return {m_.words().data(), mPrime_, numLimbs_}; }

  // --- In-domain value API -----------------------------------------------

  // x * R mod m (reduces x mod m first if needed).
  MontgomeryValue toValue(const BigUInt& x) const;
  void toValue(const BigUInt& x, MontgomeryValue& out, Scratch& scratch) const;
  // v * R^-1 mod m: back to a plain residue.
  BigUInt fromValue(const MontgomeryValue& v) const;
  const MontgomeryValue& oneValue() const { return one_; }  // Mont(1) = R mod m.
  const MontgomeryValue& zeroValue() const { return zero_; }
  // out = a * b in-domain (one REDC); out may alias a or b.
  void mulValue(const MontgomeryValue& a, const MontgomeryValue& b,
                MontgomeryValue& out, Scratch& scratch) const;
  // In-domain linear op: Mont(x) + Mont(y) = Mont(x + y).
  void addValue(const MontgomeryValue& a, const MontgomeryValue& b,
                MontgomeryValue& out) const;
  // out = base ^ exponent in-domain, fixed 4-bit windows (4 squarings plus
  // at most one table multiply per window).
  void powValue(const MontgomeryValue& base, const BigUInt& exponent,
                MontgomeryValue& out, Scratch& scratch) const;

  // --- Raw-limb API ------------------------------------------------------
  //
  // One-off calls on flat numLimbs()-limb little-endian residues in
  // caller-owned storage; each dispatches to its kernel width per call.
  // (Loops over many residues call the mont:: kernels directly, inside one
  // mont::dispatch.) Every pointer addresses exactly numLimbs() limbs
  // holding an in-domain residue < m; out may alias a or b (products stage
  // through a stack accumulator, adds are limb-parallel).

  // out = a * b in-domain (one REDC).
  void mulRaw(const Limb* a, const Limb* b, Limb* out) const;
  // out = a + b mod m, in-domain.
  void addRaw(const Limb* a, const Limb* b, Limb* out) const;
  // out = x * R mod m (reduces x mod m first if needed).
  void toRaw(const BigUInt& x, Limb* out) const;
  BigUInt rawToPlain(const Limb* v) const;  // Convert-out (one REDC).

  // --- Plain domain -----------------------------------------------------

  // (base ^ exponent) mod m; the whole windowed ladder runs in-domain.
  BigUInt powMod(const BigUInt& base, const BigUInt& exponent) const;

 private:
  // Fills table[w] = Mont(base^w) for w in [0, wMax]. powValue's ladder
  // only dereferences entries a window of the exponent can name, so small
  // exponents get away with a prefix.
  void buildWindowTable(const Limb* base, unsigned wMax, Limb* table) const;
  // x mod m, zero-padded to k limbs.
  void padReduced(const BigUInt& x, Limb* out) const;

  BigUInt m_;
  std::size_t numLimbs_ = 0;    // k: limbs of m.
  Limb mPrime_ = 0;             // -m^-1 mod 2^kLimbBits.
  MontgomeryValue one_;         // R mod m (Montgomery form of 1).
  MontgomeryValue zero_;
  MontgomeryValue rSquared_;    // R^2 mod m (raw limbs; toValue multiplier).
};

// --- Memoized Montgomery contexts ----------------------------------------
//
// The hash engine and the free powMod all reduce by the same handful of
// field primes; constructing a context costs a full divMod for
// R^2 mod m. The cache memoizes one immutable context per modulus with
// single-flight locking (same discipline as util::cachedPrimeInRange):
// concurrent first-users of a modulus block on the one thread building it.
// Throws std::invalid_argument for moduli a context cannot serve (even or
// < 3) before touching the cache.
std::shared_ptr<const MontgomeryContext> cachedMontgomeryContext(const BigUInt& modulus);

// Drops every memoized context (tests and perfbench's cold-setup timing).
void montgomeryCacheResetForTests();

}  // namespace dip::util
