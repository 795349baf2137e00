#include "hash/linear_hash.hpp"

#include <stdexcept>
#include <utility>

#include "util/primes.hpp"

namespace dip::hash {

LinearHashFamily::LinearHashFamily(util::BigUInt p, std::uint64_t dimension)
    : p_(std::move(p)), m_(dimension) {
  if (p_ < util::BigUInt{2}) throw std::invalid_argument("LinearHashFamily: p < 2");
  if (!p_.fitsU64() && !p_.isOdd()) {
    throw std::invalid_argument("LinearHashFamily: even p >= 2^64");
  }
  valueBits_ = p_.bitLength();
}

double LinearHashFamily::collisionBound() const {
  return static_cast<double>(m_) / p_.toDouble();
}

util::BigUInt LinearHashFamily::randomIndex(util::Rng& rng) const {
  return rng.nextBigBelow(p_);
}

LinearHashFamily makeProtocol1Family(std::size_t n, util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("makeProtocol1Family: n < 2");
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{n}, 3);
  util::BigUInt lo = util::BigUInt{10} * n3;
  util::BigUInt hi = util::BigUInt{100} * n3;
  return LinearHashFamily(util::findPrimeInRange(lo, hi, rng),
                          static_cast<std::uint64_t>(n) * n);
}

LinearHashFamily makeProtocol2Family(std::size_t n, util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("makeProtocol2Family: n < 2");
  util::BigUInt nPow = util::BigUInt::pow(util::BigUInt{n}, n + 2);
  util::BigUInt lo = util::BigUInt{10} * nPow;
  util::BigUInt hi = util::BigUInt{100} * nPow;
  return LinearHashFamily(util::findPrimeInRange(lo, hi, rng),
                          static_cast<std::uint64_t>(n) * n);
}

LinearHashFamily makeProtocol1FamilyCached(std::size_t n) {
  if (n < 2) throw std::invalid_argument("makeProtocol1FamilyCached: n < 2");
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{n}, 3);
  return LinearHashFamily(
      util::cachedPrimeInRange(util::BigUInt{10} * n3, util::BigUInt{100} * n3),
      static_cast<std::uint64_t>(n) * n);
}

LinearHashFamily makeProtocol2FamilyCached(std::size_t n) {
  if (n < 2) throw std::invalid_argument("makeProtocol2FamilyCached: n < 2");
  util::BigUInt nPow = util::BigUInt::pow(util::BigUInt{n}, n + 2);
  return LinearHashFamily(
      util::cachedPrimeInRange(util::BigUInt{10} * nPow, util::BigUInt{100} * nPow),
      static_cast<std::uint64_t>(n) * n);
}

}  // namespace dip::hash
