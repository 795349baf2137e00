// The distributed-seed hash variant (Section 4's "each node contributing a
// small part" of the seed), kept as a first-class construction with its
// trade-off made executable.
//
// Construction: every node u holds a PRIVATE evaluation point a_u in Z_P;
// the hash of an n x n matrix X is
//     H1(X) = sum_u poly(X_u, a_u) mod P,   poly(r, a) = sum_w r_w a^(w+1),
// i.e. row u is fingerprinted with node u's own seed. For X != X' the
// difference is a non-zero polynomial in the a_u of total degree <= n
// (Schwartz-Zippel), so Pr[collision] <= n/P — an eps-almost-universal
// family whose seed is genuinely split across the nodes: O(log P) bits per
// node, never assembled anywhere. It combines up a spanning tree exactly
// like the root-seeded hash.
//
// THE TRADE-OFF (why the GNI protocol in this library uses the root-seeded
// EpsApiHash instead): H1's value depends on WHICH NODE vouches for which
// row. In Goldwasser-Sipser, node v vouches for row sigma(v) of sigma(G_b),
// so two (sigma, b) pairs that produce the SAME graph but different row
// assignments hash differently — the hash is no longer a function of the
// graph, and the |S| = 2 n! vs n! counting collapses (tests demonstrate
// this concretely). The distributed seed is perfectly sound for protocols
// where each node's row INDEX is fixed (e.g. fingerprinting sum [v, N(v)]
// itself); it cannot serve the permuted-matrix side.
#pragma once

#include <vector>

#include "util/biguint.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace dip::hash {

class DistributedSeedHash {
 public:
  // Hash of n x n 0/1 matrices into Z_P; P prime (not re-verified). Throws
  // std::invalid_argument for P < 2 and for an even P >= 2^64.
  DistributedSeedHash(util::BigUInt fieldPrime, std::size_t n);

  const util::BigUInt& fieldPrime() const { return p_; }
  std::size_t n() const { return n_; }

  // Collision probability bound n/P for distinct matrices under uniform
  // per-node seeds.
  double collisionBound() const;

  // Bits each node contributes (its private seed) — the "small part".
  std::size_t perNodeSeedBits() const { return p_.bitLength(); }

  // One node's private seed.
  util::BigUInt randomNodeSeed(util::Rng& rng) const { return rng.nextBigBelow(p_); }

  // Node u's contribution: poly(row, a_u) — computable from u's local data
  // alone.
  util::BigUInt rowPiece(const util::BigUInt& nodeSeed,
                         const util::DynBitset& rowBits) const;

  // Tree combination (mod-P addition, associative/commutative).
  util::BigUInt combine(const util::BigUInt& left, const util::BigUInt& right) const;

  // Whole-matrix hash given all rows and all node seeds, with row u hashed
  // under seeds[owner[u]] — `owner` captures which node vouches for which
  // row (identity ownership = the well-defined case).
  util::BigUInt hashRowsWithOwners(const std::vector<util::BigUInt>& seeds,
                                   const std::vector<util::DynBitset>& rows,
                                   const std::vector<std::uint32_t>& owner) const;

 private:
  util::BigUInt p_;
  std::size_t n_;
};

}  // namespace dip::hash
