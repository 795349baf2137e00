// Structural dry-run bit accounting: exact transcript costs from graph
// structure alone.
//
// For every protocol in the repo the verifier-side charge schedule is a
// function of (n, the hash-family bit widths, and — for GNI — the G1
// degrees and the prover's per-repetition claim profile). None of it
// depends on the prover's search, the sampled seeds, or the hash values:
// the honest prover always answers every challenge, and message fields
// have fixed widths. So the exact per-node transcript costs of a run can
// be computed by a pure graph traversal, with no BigUInt arithmetic and no
// prover search — which is what lets the E1/E2/E3/E5 cost tables extend to
// n = 10^6 where executing the protocol is infeasible.
//
// Everything is templated over the graph representation (dense
// `graph::Graph` or compressed `graph::CsrGraph` — anything with
// `numVertices()`, `numEdges()`, `degree(v)` and `forEachNeighbor`), and a
// dry run on either representation of the same graph produces the same
// report, digest included. `costDigestOf(transcript)` folds a real
// execution's per-node costs the same way, so tests can pin
// dry-run == measured bit-for-bit at small n.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/dsym_dam.hpp"
#include "core/result.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/graph.hpp"
#include "net/spanning.hpp"
#include "net/transcript.hpp"

namespace dip::sim {

// FNV-1a fold over per-node (bitsToProver, bitsFromProver) pairs in vertex
// order; also tracks the paper's f(n) = max per-node total and the sum.
struct CostFold {
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  std::uint64_t digest = kOffset;
  std::size_t maxPerNodeBits = 0;
  std::size_t totalBits = 0;

  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((value >> (8 * i)) & 0xff)) * kPrime;
    }
  }

  void addNode(std::size_t bitsToProver, std::size_t bitsFromProver) {
    mix(bitsToProver);
    mix(bitsFromProver);
    const std::size_t total = bitsToProver + bitsFromProver;
    if (total > maxPerNodeBits) maxPerNodeBits = total;
    totalBits += total;
  }
};

// The same fold applied to a measured transcript (index order) — equals the
// dry-run digest when the schedule model is exact.
std::uint64_t costDigestOf(const net::Transcript& transcript);

struct DryRunReport {
  // Structure (tree height from the BFS tree rooted at 0, the honest
  // prover's choice in every protocol here).
  std::size_t numNodes = 0;
  std::size_t numEdges = 0;
  std::size_t maxDegree = 0;
  std::uint32_t treeHeight = 0;
  // Costs.
  std::size_t maxPerNodeBits = 0;  // The paper's f(n).
  std::size_t totalBits = 0;
  std::uint64_t costDigest = 0;
};

// Bit widths for the three LinearHashFamily protocols. Build from a real
// family (exact identity with a measured run) or from the model formulas
// below (large n, no prime search).
using SymWidths = core::SymWidths;

// Widths for GNI (Protocol 4 / E5).
struct GniWidths {
  unsigned idBits = 0;
  std::size_t seedBlockBits = 0;  // gsHash.seedBits() + ell.
  std::size_t innerBits = 0;      // gsHash.innerValueBits().
  std::size_t checkBits = 0;      // checkFamily.seedBits().
  std::size_t repetitions = 0;
};

// Per-repetition claim profile of the prover (the honest prover claims the
// same j's at every node, so these are global booleans). claimed[j] = the
// prover answered repetition j; b[j] = the coin it targeted.
struct GniClaimProfile {
  std::vector<std::uint8_t> claimed;
  std::vector<std::uint8_t> b;
};

// Model widths: the protocols' own modelWidths (and, for E1/E2,
// the exact families the benches construct). symDamModelWidths switches to
// a floating-point bit length above `kSymDamExactThreshold` — the exact
// p <= 100 n^(n+2) has ~(n+2) log2 n bits and is infeasible to materialize
// at n = 10^6; the float path is validated against the exact one in tests.
SymWidths symDmamModelWidths(std::size_t n);
SymWidths symDamModelWidths(std::size_t n);
SymWidths dsymDamModelWidths(std::size_t n);
GniWidths gniModelWidths(std::size_t n, std::size_t repetitions);

inline constexpr std::size_t kSymDamExactThreshold = 4096;

namespace detail {

template <typename G>
void fillStructure(const G& g, DryRunReport& report) {
  report.numNodes = g.numVertices();
  report.numEdges = g.numEdges();
  report.maxDegree = 0;
  for (graph::Vertex v = 0; v < report.numNodes; ++v) {
    report.maxDegree = std::max(report.maxDegree, g.degree(v));
  }
  report.treeHeight =
      report.numNodes == 0 ? 0 : net::treeHeight(net::buildBfsTree(g, 0));
}

inline void finish(const CostFold& fold, DryRunReport& report) {
  report.maxPerNodeBits = fold.maxPerNodeBits;
  report.totalBits = fold.totalBits;
  report.costDigest = fold.digest;
}

// A schedule that charges every node the same bits: the Sym protocols,
// whose costs come from their messages' field tables (core/sym_frame.hpp).
template <typename G>
DryRunReport uniformDryRun(const G& g, const core::CostBreakdown& perNode) {
  DryRunReport report;
  fillStructure(g, report);
  CostFold fold;
  for (std::size_t v = 0; v < report.numNodes; ++v) {
    fold.addNode(perNode.bitsToProverPerNode, perNode.bitsFromProverPerNode);
  }
  finish(fold, report);
  return report;
}

}  // namespace detail

// Protocol 1 / E1 (Sym, dMAM): M1 root broadcast + per-node tree advice,
// A seed, M2 index echo broadcast + per-node chain pair.
template <typename G>
DryRunReport dryRunSymDmam(const G& g, const SymWidths& w) {
  return detail::uniformDryRun(g, core::SymDmamProtocol::Rounds::cost(w, g.numVertices()));
}

// Protocol 2 / E3 (Sym, dAM): A seed, M broadcasts the full rho.
template <typename G>
DryRunReport dryRunSymDam(const G& g, const SymWidths& w) {
  return detail::uniformDryRun(g, core::SymDamProtocol::Rounds::cost(w, g.numVertices()));
}

// DSym / E2 (the promise variant whose sigma is known from the layout).
template <typename G>
DryRunReport dryRunDsymDam(const G& g, const SymWidths& w) {
  return detail::uniformDryRun(g, core::DSymDamProtocol::Rounds::cost(w, g.numVertices()));
}

// Protocol 4 / E5 (GNI, AMAM). The only degree-dependent schedule: for each
// repetition the prover claims with b = 1, node v's M1 message carries its
// closed-G1-neighborhood image, (deg_{G1}(v) + 1) ids. Structure fields
// describe g0 (the network the tree is built on); charges follow g1.
template <typename G>
DryRunReport dryRunGniAmam(const G& g0, const G& g1, const GniWidths& w,
                           const GniClaimProfile& profile) {
  DryRunReport report;
  detail::fillStructure(g0, report);
  const std::size_t n = report.numNodes;
  const std::size_t k = w.repetitions;
  std::size_t numClaimedB1 = 0;
  std::size_t m2Uniform = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (!profile.claimed[j]) continue;
    if (profile.b[j] == 1) ++numClaimedB1;
    m2Uniform += w.innerBits + 2 * w.checkBits;
    if (profile.b[j] == 1) m2Uniform += 2 * w.checkBits;
  }
  const std::size_t to = k * w.seedBlockBits  // A1.
                         + w.checkBits;       // A2.
  const std::size_t fromUniform =
      w.idBits + k * w.seedBlockBits + 2 * k  // M1 broadcast.
      + 2 * w.idBits + k * w.idBits           // M1: tree advice + s values.
      + w.checkBits                           // M2 broadcast.
      + m2Uniform;                            // M2: chains.
  CostFold fold;
  for (graph::Vertex v = 0; v < n; ++v) {
    const std::size_t claimBits = numClaimedB1 * (g1.degree(v) + 1) * w.idBits;
    fold.addNode(to, fromUniform + claimBits);
  }
  detail::finish(fold, report);
  return report;
}

// The Theta(n^2) LCP baseline (Goos-Suomela, src/pls/sym_lcp): the
// non-interactive yardstick every table compares against. Advice only, no
// challenges; per-node label = claimed matrix + rho + witness.
template <typename G>
DryRunReport dryRunSymLcp(const G& g, unsigned idBits) {
  DryRunReport report;
  detail::fillStructure(g, report);
  const std::size_t n = report.numNodes;
  const std::size_t from = n * n + n * static_cast<std::size_t>(idBits) + idBits;
  CostFold fold;
  for (std::size_t v = 0; v < n; ++v) fold.addNode(0, from);
  detail::finish(fold, report);
  return report;
}

}  // namespace dip::sim
