// Distributed epsilon-almost-pairwise-independent hash (Section 4).
//
// The Goldwasser-Sipser protocol needs a hash from n x n adjacency matrices
// to {0,1}^ell whose pairwise statistics are close to pairwise-independent,
// that is computable "up a spanning tree" with each node contributing the
// hash of the one matrix row it can see, and whose claimed value the nodes
// can verify with prover assistance. A truly pairwise-independent hash
// needs a Theta(n^2)-bit seed [29], which no node can afford; the paper
// relaxes to eps-API.
//
// Construction (composition eps-AU ∘ PI, cf. Bierbrauer et al. [5]):
//   inner:  H1(X) = sum over matrix entries X[u][w] * A^(u n + w + 1) mod P
//           — the linear (polynomial evaluation) hash over a prime field P,
//           seed A in Z_P. For X != X' the collision probability is at most
//           (n^2 + 1)/P (Schwartz). H1 is a sum of per-row terms, so each
//           node hashes its own row and the prover helps sum up the tree,
//           exactly the recursive h(T_v) = f(h(T_u_1), ..., I(v)) shape.
//   outer:  H2(z) = ((alpha z + beta) mod P) mod 2^ell, (alpha, beta) in
//           Z_P^2 — an affine pairwise-independent layer with rounding
//           distortion at most 2^ell / P per fiber.
//
// With P >= 2^ell * n^2 * 2^slack the composition is eps-API with
//   eps <= 2^(1-slack) + (n^2+1) 2^ell / P + O(2^ell/P),
// and near-regular: Pr[H(x) = y] = (1 ± 2^ell/P) / 2^ell.
//
// Seed = (A, alpha, beta): 3 * ceil(log2 P) = O(ell + log n) bits, supplied
// by the root node's challenge (the paper's i = i_r trick from Protocol 1).
// With ell = Theta(n log n) as GNI requires, the per-node cost is
// O(n log n), matching Theorem 1.5. The paper's full version distributes
// the seed across nodes; the PODC text does not specify that construction,
// and a root-supplied seed has identical cost and statistics here (see
// DESIGN.md section 4.4).
#pragma once

#include <cstdint>
#include <vector>

#include "hash/linear_hash.hpp"
#include "util/biguint.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace dip::hash {

class EpsApiHash {
 public:
  struct Seed {
    util::BigUInt a;      // Inner polynomial evaluation point.
    util::BigUInt alpha;  // Outer affine multiplier.
    util::BigUInt beta;   // Outer affine offset.
  };

  // Trivial placeholder (n = 1, 1 output bit); parameter structs carrying
  // a hash by value need this before real parameters are chosen.
  EpsApiHash() : EpsApiHash(1, 1, LinearHashFamily{}) {}

  // A hash from n x n 0/1 matrices to {0,1}^outputBits, with field size
  // P >= 2^outputBits * n^2 * 2^slackBits (prime), fieldBits() bits wide.
  static EpsApiHash create(std::size_t n, std::size_t outputBits,
                           util::Rng& rng, unsigned slackBits = 7);
  // The bit length of create()'s P: outputBits + 2 bitLength(n) +
  // slackBits + 1. Callers can size a field without searching for it.
  static std::size_t fieldBits(std::size_t n, std::size_t outputBits,
                               unsigned slackBits = 7);
  // The same hash over a caller-chosen odd prime P (primality is the
  // caller's to ensure). The eps bound above holds only when
  // P >= 2^outputBits * n^2 * 2^slackBits; a smaller P still gives a
  // well-defined hash, which is how the prover's search is tested at its
  // lane-width edges.
  static EpsApiHash withPrime(std::size_t n, std::size_t outputBits, util::BigUInt prime);

  std::size_t n() const { return n_; }
  std::size_t outputBits() const { return ell_; }
  const util::BigUInt& fieldPrime() const { return inner_.prime(); }
  const LinearHashFamily& inner() const { return inner_; }

  // The eps in the API guarantee, as an upper bound.
  double epsilonBound() const;

  // Bits to transmit the seed / an inner value / an output value.
  std::size_t seedBits() const { return 3 * inner_.seedBits(); }
  std::size_t innerValueBits() const { return inner_.valueBits(); }

  Seed randomSeed(util::Rng& rng) const;

  // Node-side, the inner hash of the matrix [rowIndex, rowBits] is inner()'s
  // row hash under seed.a: BatchLinearHashEvaluator::hashMatrixRow(rowIndex,
  // rowBits, n()) after rebind(inner(), seed.a).
  // Tree combination: sum of child subtree inner values plus own row term.
  util::BigUInt combine(const util::BigUInt& left, const util::BigUInt& right) const;
  // Root-side: outer layer applied to the completed inner value.
  util::BigUInt outer(const Seed& seed, const util::BigUInt& innerValue) const;

  // Full hash of an explicit matrix given as n row bitsets.
  util::BigUInt hashRows(const Seed& seed,
                         const std::vector<util::DynBitset>& rows) const;

 private:
  EpsApiHash(std::size_t n, std::size_t ell, LinearHashFamily inner);

  std::size_t n_;
  std::size_t ell_;
  LinearHashFamily inner_;
};

}  // namespace dip::hash
