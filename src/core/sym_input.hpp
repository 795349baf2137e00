// Symmetry of an INPUT graph (extension).
//
// Definition 4's discussion distinguishes the network graph from graphs
// given as inputs: each node v holds a row N_H(v) of some graph H, but H's
// edges are NOT communication links. Deciding whether H is symmetric is the
// natural companion problem (and the missing piece for composing Sym with
// GNI on the input side): Protocol 1's fingerprint machinery still works —
// trees and messages run over the NETWORK graph, rows come from inputs —
// except that node v can no longer see the rho-images of its H-neighbors,
// so the prover must CLAIM them, and the claims must be checked for
// consistency with the owners' commitments.
//
// Round structure (dMAM, same shape as Protocol 1; root fixed at node 0):
//   M1  prover -> nodes: broadcast witness vertex w (rho(w) != w); unicast
//       rho_v, the spanning tree (t_v, d_v), and the claimed images
//       { rho(u) : u in closed N_H(v) }.
//   A   nodes -> prover: a random index i_v of the linear hash family.
//   M2  prover -> nodes: broadcast i (= i_0); unicast subtree sums for
//       (a) the fingerprint of sum [v, N_H(v)],
//       (b) the fingerprint of sum [rho(v), rho(N_H(v))] (via the claims),
//       (c) the claim-consistency pair: sum over v of sum_{u in N_H(v)}
//           [u, e_claim(v,u)] vs sum_u (deg_H(u)+1) [u, e_rho(u)] — equal
//           iff every claim matches the owner's committed rho(u) (entries
//           are counts < n, no wrap-around over Z_p).
// Because rho and all claims are committed BEFORE the seed is drawn, one
// O(log n)-bit seed suffices for all three checks: Sym of an input graph is
// in dMAM[O(log n + Delta_H log n)], where Delta_H is H's maximum degree —
// for bounded-degree inputs the same O(log n) as Theorem 1.1.
#pragma once

#include <tuple>
#include <vector>

#include "core/broadcast.hpp"
#include "core/result.hpp"
#include "core/sym_frame.hpp"
#include "graph/graph.hpp"
#include "hash/linear_hash.hpp"
#include "util/rng.hpp"

namespace dip::core {

// The instance: a connected network plus the input graph H (delivered to
// the nodes row by row).
struct SymInputInstance {
  graph::Graph network;
  graph::Graph input;
};

struct SymInputFirstMessage {
  Broadcast<graph::Vertex> witnessPerNode;    // Broadcast: some w with rho(w) != w.
  std::vector<graph::Vertex> rho;             // Unicast commitments.
  std::vector<graph::Vertex> parent;          // Unicast tree advice.
  std::vector<std::uint32_t> dist;
  // claims[v][i] = claimed rho of the i-th sorted closed H-neighbor of v.
  std::vector<std::vector<graph::Vertex>> claims;

  static constexpr const char* kRound = "M1: rho/claims/tree";
  static constexpr const char* kLabel = "SymInput/M1";
  static constexpr auto fields() {
    using M = SymInputFirstMessage;
    return std::tuple{SymField{&M::witnessPerNode, SymWidth::kId},
                      SymField{&M::rho, SymWidth::kId},
                      SymField{&M::parent, SymWidth::kId},
                      SymField{&M::dist, SymWidth::kId},
                      SymField{&M::claims, SymWidth::kId, SymCount::kClosedInputDegree}};
  }
};

struct SymInputSecondMessage {
  Broadcast<util::BigUInt> indexPerNode;    // Broadcast echo of node 0's index.
  std::vector<util::BigUInt> a;             // Fingerprint of sum [v, N_H(v)].
  std::vector<util::BigUInt> b;             // Fingerprint of sum [rho(v), rho(N_H(v))].
  std::vector<util::BigUInt> consC;         // Claims-matrix side.
  std::vector<util::BigUInt> consT;         // Owner-commitment side.

  static constexpr const char* kRound = "M2: index echo + chains";
  static constexpr const char* kLabel = "SymInput/M2";
  static constexpr auto fields() {
    using M = SymInputSecondMessage;
    return std::tuple{SymField{&M::indexPerNode, SymWidth::kSeed},
                      SymField{&M::a, SymWidth::kValue},
                      SymField{&M::b, SymWidth::kValue},
                      SymField{&M::consC, SymWidth::kValue},
                      SymField{&M::consT, SymWidth::kValue}};
  }
};

// The shape of a run on `instance`: trees and messages over the network,
// claims over the input graph's closed neighbourhoods.
inline SymShape symShape(const SymInputInstance& instance,
                         const hash::LinearHashFamily& family) {
  const std::size_t n = instance.network.numVertices();
  return {n, symWidths(family, n), &instance.input};
}

class SymInputProver {
 public:
  using Instance = SymInputInstance;
  using First = SymInputFirstMessage;
  using Second = SymInputSecondMessage;

  virtual ~SymInputProver() = default;
  virtual SymInputFirstMessage firstMessage(const SymInputInstance& instance) = 0;
  virtual SymInputSecondMessage secondMessage(
      const SymInputInstance& instance, const SymInputFirstMessage& first,
      const std::vector<util::BigUInt>& challenges) = 0;
};

class SymInputProtocol {
 public:
  // family must have dimension n^2 (use makeProtocol1Family).
  explicit SymInputProtocol(hash::LinearHashFamily family);

  const hash::LinearHashFamily& family() const { return family_; }

  RunResult run(const SymInputInstance& instance, SymInputProver& prover,
                util::Rng& rng) const;

  using Rounds = SymRounds<SymInputFirstMessage, SymInputSecondMessage>;
  // Max bits per node for an n-node instance with max input degree delta.
  static CostBreakdown costModel(std::size_t n, std::size_t maxInputDegree);
  // The widths costModel charges.
  static SymWidths modelWidths(std::size_t n);

  bool nodeDecision(const SymInputInstance& instance, graph::Vertex v,
                    const SymInputFirstMessage& first, const util::BigUInt& ownChallenge,
                    const SymInputSecondMessage& second) const;

 private:
  hash::LinearHashFamily family_;
};

// Honest prover: takes a non-trivial automorphism of the INPUT graph from
// the thread's prepared instance (core/prepared.hpp) and plays the
// three-chain protocol faithfully.
class HonestSymInputProver : public SymInputProver {
 public:
  explicit HonestSymInputProver(const hash::LinearHashFamily& family);
  SymInputFirstMessage firstMessage(const SymInputInstance& instance) override;
  SymInputSecondMessage secondMessage(const SymInputInstance& instance,
                                      const SymInputFirstMessage& first,
                                      const std::vector<util::BigUInt>& challenges) override;

 private:
  const hash::LinearHashFamily& family_;
};

// Cheater that commits to a fake rho with HONEST claims (hash-collision
// hope), and one that lies in the claims to try to make a fake rho look
// consistent (the consistency check must catch it).
class CheatingSymInputProver : public SymInputProver {
 public:
  enum class Strategy {
    kFakeRhoHonestClaims,  // Claims match the fake rho: caught at the root equality.
    kClaimLiar,            // Claims describe a DIFFERENT mapping than committed.
  };
  CheatingSymInputProver(const hash::LinearHashFamily& family, Strategy strategy,
                         std::uint64_t seed);
  SymInputFirstMessage firstMessage(const SymInputInstance& instance) override;
  SymInputSecondMessage secondMessage(const SymInputInstance& instance,
                                      const SymInputFirstMessage& first,
                                      const std::vector<util::BigUInt>& challenges) override;

 private:
  const hash::LinearHashFamily& family_;
  Strategy strategy_;
  util::Rng rng_;
  graph::Permutation trueRhoForClaims_;  // kClaimLiar: the mapping claims follow.
};

}  // namespace dip::core
