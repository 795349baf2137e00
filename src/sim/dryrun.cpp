#include "sim/dryrun.hpp"

#include <cmath>

#include "core/gni_amam.hpp"
#include "util/bitio.hpp"

namespace dip::sim {

std::uint64_t costDigestOf(const net::Transcript& transcript) {
  CostFold fold;
  for (const net::NodeCost& cost : transcript.perNode()) {
    fold.addNode(cost.bitsToProver, cost.bitsFromProver);
  }
  return fold.digest;
}

SymWidths symDmamModelWidths(std::size_t n) { return core::SymDmamProtocol::modelWidths(n); }

SymWidths symDamModelWidths(std::size_t n) {
  if (n <= kSymDamExactThreshold) return core::SymDamProtocol::modelWidths(n);
  // bitLength(100 n^(n+2)) = floor(log2 100 + (n+2) log2 n) + 1. The
  // mantissa error of long-double log2 at n <= 10^9 is far below the
  // distance to the nearest integer for these arguments; the small-n
  // branch is pinned against this one in tests at the threshold.
  const long double bits =
      std::log2(100.0L) +
      static_cast<long double>(n + 2) * std::log2(static_cast<long double>(n));
  const std::size_t hashBits = static_cast<std::size_t>(bits) + 1;
  return {util::bitsFor(n), hashBits, hashBits};
}

SymWidths dsymDamModelWidths(std::size_t n) { return core::DSymDamProtocol::modelWidths(n); }

GniWidths gniModelWidths(std::size_t n, std::size_t repetitions) {
  const core::GsModelWidths model = core::GniAmamProtocol::modelWidths(n);
  return {model.idBits, model.seedBlockBits, model.fieldBits, model.checkBits, repetitions};
}

}  // namespace dip::sim
