// The linear hash family of Theorem 3.2.
//
// For a prime p and dimension m, the family is indexed by an evaluation
// point a in Z_p:
//     h_a(x) = sum_k x_k * a^(k+1)   (mod p),     x in Z_p^m.
// Properties used by the paper's protocols:
//   (1) Linearity: h_a(x + x') = h_a(x) + h_a(x') mod p — so the hash of the
//       whole adjacency matrix is the sum of per-node row hashes, summable
//       up a spanning tree.
//   (2) Collision: for x != x', h_a(x) = h_a(x') iff a is a root of a
//       non-zero polynomial of degree <= m, so Pr_a[collision] <= m/p.
// Family size is p, so a random index costs ceil(log2 p) bits.
//
// Matrix convention: an n x n matrix over Z_p is the m = n^2 dimensional
// vector with entry (row u, column w) at position u*n + w. The paper's
// [v, N(v)] (the matrix whose v-th row is the closed neighborhood of v and
// which is zero elsewhere) is the row hash hashMatrixRow(v, N(v), n).
//
// The family holds parameters only. Every hash value is computed by the
// batch engine (hash/batch_eval.hpp), pinned to (p, m, a).
#pragma once

#include <cstdint>

#include "util/biguint.hpp"
#include "util/rng.hpp"

namespace dip::hash {

class LinearHashFamily {
 public:
  // Trivial placeholder family (p = 2, dimension 1); parameter structs that
  // carry a family by value need this before real parameters are chosen.
  LinearHashFamily() : LinearHashFamily(util::BigUInt{2}, 1) {}
  // Family over Z_p^dimension. Requires p prime (not re-verified here).
  // Throws std::invalid_argument for p < 2 and for an even p >= 2^64, which
  // is not prime and which no evaluator backend serves.
  LinearHashFamily(util::BigUInt p, std::uint64_t dimension);

  const util::BigUInt& prime() const { return p_; }
  std::uint64_t dimension() const { return m_; }

  // Bits to transmit a hash index (seed) or a hash value.
  std::size_t seedBits() const { return valueBits_; }
  std::size_t valueBits() const { return valueBits_; }

  // Upper bound on the collision probability m/p.
  double collisionBound() const;

  // Draws a random index a in [0, p).
  util::BigUInt randomIndex(util::Rng& rng) const;

 private:
  util::BigUInt p_;
  std::uint64_t m_;
  std::size_t valueBits_;
};

// Protocol 1's parameters: p prime in [10 n^3, 100 n^3], dimension n^2.
// O(log n) seed and value bits.
LinearHashFamily makeProtocol1Family(std::size_t n, util::Rng& rng);

// Protocol 2's parameters: p prime in [10 n^(n+2), 100 n^(n+2)], dimension
// n^2. O(n log n) seed and value bits — large enough to union-bound over all
// n^n mappings after the challenge is revealed (Theorem 3.5).
LinearHashFamily makeProtocol2Family(std::size_t n, util::Rng& rng);

// Memoized variants: the prime comes from util::cachedPrimeInRange, so the
// family for a given n is a pure function of n (no caller Rng stream is
// consumed) and the Miller-Rabin search runs once per window per process —
// the form the trial engine and the bench drivers use.
LinearHashFamily makeProtocol1FamilyCached(std::size_t n);
LinearHashFamily makeProtocol2FamilyCached(std::size_t n);

}  // namespace dip::hash
