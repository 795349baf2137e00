#include "hash/eps_api.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "hash/batch_eval.hpp"
#include "util/primes.hpp"

namespace dip::hash {

EpsApiHash::EpsApiHash(std::size_t n, std::size_t ell, LinearHashFamily inner)
    : n_(n), ell_(ell), inner_(std::move(inner)) {}

EpsApiHash EpsApiHash::create(std::size_t n, std::size_t outputBits, util::Rng& rng,
                              unsigned slackBits) {
  if (n < 1) throw std::invalid_argument("EpsApiHash: n < 1");
  if (outputBits < 1) throw std::invalid_argument("EpsApiHash: outputBits < 1");
  return withPrime(n, outputBits,
                   util::findPrimeWithBits(fieldBits(n, outputBits, slackBits), rng));
}

std::size_t EpsApiHash::fieldBits(std::size_t n, std::size_t outputBits,
                                  unsigned slackBits) {
  // P prime with about outputBits + 2 log2(n) + slackBits + 1 bits, so that
  // P >= 2^outputBits * n^2 * 2^slackBits.
  return outputBits + 2 * util::BigUInt{n}.bitLength() + slackBits + 1;
}

EpsApiHash EpsApiHash::withPrime(std::size_t n, std::size_t outputBits, util::BigUInt prime) {
  if (n < 1) throw std::invalid_argument("EpsApiHash: n < 1");
  if (outputBits < 1) throw std::invalid_argument("EpsApiHash: outputBits < 1");
  if (prime < util::BigUInt{3} || !prime.bit(0)) {
    throw std::invalid_argument("EpsApiHash: P must be an odd prime");
  }
  return EpsApiHash(n, outputBits,
                    LinearHashFamily(std::move(prime), static_cast<std::uint64_t>(n) * n));
}

double EpsApiHash::epsilonBound() const {
  const double p = inner_.prime().toDouble();
  const double range = std::pow(2.0, static_cast<double>(ell_));
  const double m = static_cast<double>(n_) * static_cast<double>(n_);
  // Inner collision turned into joint probability, plus outer rounding.
  double fiberSlack = range / p;  // <= 2^-slack / n^2
  double innerTerm = (m + 1.0) / p * range * (1.0 + fiberSlack);
  double roundingTerm = 3.0 * fiberSlack;  // (1 + s)^2 <= 1 + 3s for s <= 1.
  return innerTerm + roundingTerm;
}

EpsApiHash::Seed EpsApiHash::randomSeed(util::Rng& rng) const {
  Seed seed;
  seed.a = inner_.randomIndex(rng);
  seed.alpha = rng.nextBigBelow(inner_.prime());
  seed.beta = rng.nextBigBelow(inner_.prime());
  return seed;
}

util::BigUInt EpsApiHash::combine(const util::BigUInt& left,
                                  const util::BigUInt& right) const {
  return util::addMod(left, right, inner_.prime());
}

util::BigUInt EpsApiHash::outer(const Seed& seed, const util::BigUInt& innerValue) const {
  util::BigUInt affine = util::addMod(
      util::mulMod(seed.alpha, innerValue, inner_.prime()), seed.beta, inner_.prime());
  // affine mod 2^ell: clear the bits above ell.
  util::BigUInt high = affine >> ell_;
  return affine - (high << ell_);
}

util::BigUInt EpsApiHash::hashRows(const Seed& seed,
                                   const std::vector<util::DynBitset>& rows) const {
  if (rows.size() != n_) throw std::invalid_argument("hashRows: row count mismatch");
  // Whole-matrix fingerprint over the shared power tables: row u is
  // rowIndex u, so the index list is just iota.
  thread_local BatchLinearHashEvaluator batch;
  thread_local std::vector<std::uint64_t> rowIndices;
  batch.rebind(inner_, seed.a);
  if (rowIndices.size() != n_) {
    rowIndices.resize(n_);
    std::iota(rowIndices.begin(), rowIndices.end(), 0);
  }
  return outer(seed, batch.accumulateMatrixRows(rowIndices, rows, n_));
}

}  // namespace dip::hash
