#include "util/mathutil.hpp"

#include <cmath>

namespace dip::util {

BigUInt factorial(std::uint64_t n) {
  BigUInt result{1};
  for (std::uint64_t i = 2; i <= n; ++i) result *= BigUInt{i};
  return result;
}

WilsonInterval wilson95(std::uint64_t successes, std::uint64_t trials) {
  if (trials == 0) return {};
  const double z = 1.959963984540054;  // 97.5th percentile of N(0, 1).
  const double n = static_cast<double>(trials);
  const double pHat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (pHat + z2 / (2.0 * n)) / denom;
  const double margin =
      (z / denom) * std::sqrt(pHat * (1.0 - pHat) / n + z2 / (4.0 * n * n));
  WilsonInterval out;
  out.low = std::max(0.0, center - margin);
  out.high = std::min(1.0, center + margin);
  out.pointEstimate = pHat;
  return out;
}

double binomialTailGE(std::uint64_t k, double p, std::uint64_t threshold) {
  if (threshold == 0) return 1.0;
  if (threshold > k) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  const double logP = std::log(p);
  const double logQ = std::log1p(-p);
  double tail = 0.0;
  for (std::uint64_t i = threshold; i <= k; ++i) {
    double logTerm = std::lgamma(static_cast<double>(k) + 1.0) -
                     std::lgamma(static_cast<double>(i) + 1.0) -
                     std::lgamma(static_cast<double>(k - i) + 1.0) +
                     static_cast<double>(i) * logP + static_cast<double>(k - i) * logQ;
    tail += std::exp(logTerm);
  }
  return std::min(1.0, tail);
}

}  // namespace dip::util
