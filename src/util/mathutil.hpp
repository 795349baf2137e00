// Small numeric helpers shared across the library.
#pragma once

#include <cstdint>

#include "util/biguint.hpp"

namespace dip::util {

// n! as a BigUInt (the Goldwasser-Sipser set sizes are n! and 2 n!).
BigUInt factorial(std::uint64_t n);

// Wilson 95% score interval for a binomial proportion; used when reporting
// empirical acceptance probabilities of protocols.
struct WilsonInterval {
  double low = 0.0;
  double high = 1.0;
  double pointEstimate = 0.0;
};
WilsonInterval wilson95(std::uint64_t successes, std::uint64_t trials);

// Pr[Binomial(k, p) >= threshold], computed exactly in log space. Used to
// size the GNI protocol's parallel-repetition amplification.
double binomialTailGE(std::uint64_t k, double p, std::uint64_t threshold);

}  // namespace dip::util
