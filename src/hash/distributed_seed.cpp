#include "hash/distributed_seed.hpp"

#include <span>
#include <stdexcept>

#include "hash/batch_eval.hpp"

namespace dip::hash {

DistributedSeedHash::DistributedSeedHash(util::BigUInt fieldPrime, std::size_t n)
    : p_(std::move(fieldPrime)), n_(n) {
  if (p_ < util::BigUInt{2}) throw std::invalid_argument("DistributedSeedHash: P < 2");
  if (!p_.fitsU64() && !p_.isOdd()) {
    throw std::invalid_argument("DistributedSeedHash: even P >= 2^64");
  }
}

double DistributedSeedHash::collisionBound() const {
  return static_cast<double>(n_) / p_.toDouble();
}

util::BigUInt DistributedSeedHash::rowPiece(const util::BigUInt& nodeSeed,
                                            const util::DynBitset& rowBits) const {
  if (rowBits.size() != n_) {
    throw std::invalid_argument("DistributedSeedHash::rowPiece: row size mismatch");
  }
  // poly(row, a) = sum over set bits w of a^(w+1): the one-row form of
  // hashBitsMany, under this node's own seed.
  thread_local BatchLinearHashEvaluator batch;
  thread_local std::vector<util::BigUInt> piece;
  batch.rebind(p_, n_, nodeSeed);
  batch.hashBitsMany(std::span<const util::DynBitset>(&rowBits, 1), piece);
  return piece.front();
}

util::BigUInt DistributedSeedHash::combine(const util::BigUInt& left,
                                           const util::BigUInt& right) const {
  return util::addMod(left, right, p_);
}

util::BigUInt DistributedSeedHash::hashRowsWithOwners(
    const std::vector<util::BigUInt>& seeds, const std::vector<util::DynBitset>& rows,
    const std::vector<std::uint32_t>& owner) const {
  if (seeds.size() != n_ || rows.size() != n_ || owner.size() != n_) {
    throw std::invalid_argument("DistributedSeedHash: size mismatch");
  }
  // Group rows by owning seed: each owner's rows share one column power
  // table (sum order regroups, which is exact in Z_p). Row-size checks stay
  // identical to rowPiece's.
  for (std::size_t u = 0; u < n_; ++u) {
    if (rows[u].size() != n_) {
      throw std::invalid_argument("DistributedSeedHash::rowPiece: row size mismatch");
    }
  }
  thread_local BatchLinearHashEvaluator batch;
  thread_local std::vector<util::DynBitset> grouped;
  thread_local std::vector<util::BigUInt> pieces;
  util::BigUInt acc;
  grouped.reserve(n_);
  for (std::size_t o = 0; o < n_; ++o) {
    grouped.clear();
    for (std::size_t u = 0; u < n_; ++u) {
      if (owner[u] == o) grouped.push_back(rows[u]);
    }
    if (grouped.empty()) continue;
    batch.rebind(p_, n_, seeds[o]);
    batch.hashBitsMany(grouped, pieces);
    for (const util::BigUInt& piece : pieces) acc = combine(acc, piece);
  }
  return acc;
}

}  // namespace dip::hash
