#include "pls/sym_rpls.hpp"

#include <stdexcept>

#include "hash/batch_eval.hpp"
#include "util/bitio.hpp"
#include "util/primes.hpp"

namespace dip::pls {

SymRpls::SymRpls(hash::LinearHashFamily family) : family_(std::move(family)) {}

std::vector<bool> SymRpls::encodeLabel(const SymLcpAdvice& advice, std::size_t n) {
  const unsigned idBits = util::bitsFor(n);
  std::vector<bool> bits;
  bits.reserve(n * n + n * idBits + idBits);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t w = 0; w < n; ++w) {
      bool bit = u < advice.matrixRows.size() && advice.matrixRows[u].size() == n &&
                 advice.matrixRows[u].test(w);
      bits.push_back(bit);
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    graph::Vertex image = u < advice.rho.size() ? advice.rho[u] : 0;
    for (unsigned bit = 0; bit < idBits; ++bit) bits.push_back((image >> bit) & 1u);
  }
  for (unsigned bit = 0; bit < idBits; ++bit) bits.push_back((advice.witness >> bit) & 1u);
  return bits;
}

std::vector<bool> SymRpls::verify(const graph::Graph& g,
                                  const std::vector<SymLcpAdvice>& advice,
                                  util::Rng& rng) const {
  const std::size_t n = g.numVertices();
  std::vector<bool> ok(n, true);

  // Precompute each label's encoding once.
  std::vector<std::vector<bool>> encoded(n);
  for (graph::Vertex v = 0; v < n; ++v) encoded[v] = encodeLabel(advice[v], n);
  if (!encoded.empty() && encoded[0].size() > family_.dimension()) {
    throw std::invalid_argument("SymRpls: family dimension too small for labels");
  }

  // Labels re-encoded as bitsets once and hashed as hashBits inputs
  // (coefficient-1 positions).
  std::vector<util::DynBitset> encodedBits;
  encodedBits.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::DynBitset bits(encoded[v].size());
    for (std::size_t i = 0; i < encoded[v].size(); ++i) {
      if (encoded[v][i]) bits.set(i);
    }
    encodedBits.push_back(std::move(bits));
  }
  hash::BatchLinearHashEvaluator batch;
  std::vector<util::DynBitset> neighborhood;
  std::vector<util::BigUInt> prints;

  for (graph::Vertex v = 0; v < n; ++v) {
    // (a) Randomized label comparison: v draws a private seed, fingerprints
    // its own label, and compares against each neighbor's fingerprint under
    // the same seed (v sends the seed + its fingerprint; O(log n) bits).
    // One seed x the closed neighborhood's labels in a single batch call
    // over the shared power table (prints[0] is v's own label).
    util::Rng nodeRng = rng.split(v);
    util::BigUInt seed = family_.randomIndex(nodeRng);
    neighborhood.clear();
    neighborhood.reserve(n);
    neighborhood.push_back(encodedBits[v]);
    g.row(v).forEachSet([&](std::size_t u) {
      neighborhood.push_back(encodedBits[u]);
    });
    batch.rebind(family_.prime(), family_.dimension(), seed);
    batch.hashBitsMany(neighborhood, prints);
    bool consistent = true;
    for (std::size_t i = 1; i < prints.size(); ++i) {
      if (!(prints[i] == prints[0])) consistent = false;
    }
    if (!consistent) {
      ok[v] = false;
      continue;
    }
    // (b) Own-row endorsement and (c) local automorphism verification reuse
    // the deterministic LCP logic on v's own label (no communication).
    const SymLcpAdvice& label = advice[v];
    bool shapeOk = label.matrixRows.size() == n && label.rho.size() == n;
    for (std::size_t u = 0; shapeOk && u < n; ++u) {
      if (label.matrixRows[u].size() != n) shapeOk = false;
    }
    if (!shapeOk || label.matrixRows[v] != g.row(v) ||
        !graph::isPermutation(label.rho, n) || label.witness >= n ||
        label.rho[label.witness] == label.witness) {
      ok[v] = false;
      continue;
    }
    bool automorphism = true;
    for (graph::Vertex u = 0; u < n && automorphism; ++u) {
      if (graph::Graph::imageOf(label.matrixRows[u], label.rho) !=
          label.matrixRows[label.rho[u]]) {
        automorphism = false;
      }
    }
    if (!automorphism) ok[v] = false;
  }
  return ok;
}

bool SymRpls::accepts(const graph::Graph& g, const std::vector<SymLcpAdvice>& advice,
                      util::Rng& rng) const {
  auto decisions = verify(g, advice, rng);
  for (bool d : decisions) {
    if (!d) return false;
  }
  return !decisions.empty();
}

SymRplsCosts SymRpls::costs(std::size_t n) const {
  SymRplsCosts costs;
  costs.adviceBitsPerNode = SymLcp::adviceBitsPerNode(n);
  // Seed + fingerprint across each edge.
  costs.verificationBitsPerEdge = family_.seedBits() + family_.valueBits();
  return costs;
}

SymRpls makeSymRpls(std::size_t n, util::Rng& rng) {
  const unsigned idBits = util::bitsFor(n);
  std::uint64_t labelBits = n * n + n * idBits + idBits;
  // Prime ~ n * labelBits * 2^10 keeps per-label collision prob <= 2^-10/n.
  util::BigUInt lo = util::BigUInt{labelBits} * util::BigUInt{n} * util::BigUInt{1024};
  util::BigUInt prime = util::findPrimeInRange(lo, lo * util::BigUInt{4}, rng);
  return SymRpls(hash::LinearHashFamily(std::move(prime), labelBits));
}

}  // namespace dip::pls
