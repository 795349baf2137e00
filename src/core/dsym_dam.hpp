// The O(log n)-bit dAM protocol for Dumbbell Symmetry (Section 3.3,
// Theorems 1.2 / 3.6): the exponential separation between distributed NP
// (locally checkable proofs, Omega(n^2) for DSym by [17]) and distributed AM.
//
// DSym fixes the candidate automorphism to the known mapping sigma of
// Definition 5, so the prover has nothing to commit to — the first Merlin
// round of Protocol 1 disappears and the whole protocol is Arthur-Merlin:
//   A   nodes -> prover:  random hash index i_v in [p], p in [10 N^3, 100 N^3].
//   M   prover -> nodes:  broadcast index i (= i_r) and root r; unicast
//                         (t_v, d_v, a_v, b_v).
// Each node additionally checks, with NO prover help, the local structural
// conditions (2)-(3) of Section 3.3: its path edges exist and it has no
// stray cross edges. The chain checks then compare the fingerprints of
// sum [v, N(v)] and sum [sigma(v), sigma(N(v))]; since sigma is a fixed
// permutation known to everyone, a fingerprint mismatch catches every
// non-DSym instance that survives the structural checks, with collision
// probability <= N^2/p <= 1/(10 N).
#pragma once

#include <tuple>
#include <vector>

#include "core/broadcast.hpp"
#include "core/result.hpp"
#include "core/sym_frame.hpp"
#include "graph/builders.hpp"
#include "hash/linear_hash.hpp"
#include "util/rng.hpp"

namespace dip::core {

struct DSymMessage {
  Broadcast<util::BigUInt> indexPerNode;    // Broadcast.
  Broadcast<graph::Vertex> rootPerNode;     // Broadcast.
  std::vector<graph::Vertex> parent;        // Unicast.
  std::vector<std::uint32_t> dist;          // Unicast.
  std::vector<util::BigUInt> a;             // Unicast.
  std::vector<util::BigUInt> b;             // Unicast.

  static constexpr const char* kRound = "M: index/root/tree/chains";
  static constexpr const char* kLabel = "DSym/M";
  static constexpr auto fields() {
    using M = DSymMessage;
    return std::tuple{SymField{&M::indexPerNode, SymWidth::kSeed},
                      SymField{&M::rootPerNode, SymWidth::kId},
                      SymField{&M::parent, SymWidth::kId},
                      SymField{&M::dist, SymWidth::kId},
                      SymField{&M::a, SymWidth::kValue},
                      SymField{&M::b, SymWidth::kValue}};
  }
};

class DSymProver {
 public:
  using Message = DSymMessage;

  virtual ~DSymProver() = default;
  virtual DSymMessage respond(const graph::Graph& g,
                              const std::vector<util::BigUInt>& challenges) = 0;
};

class DSymDamProtocol {
 public:
  // layout is the public parameterization of the language (side size n,
  // path radius r); family must have dimension N^2 for N = layout vertices.
  DSymDamProtocol(graph::DSymLayout layout, hash::LinearHashFamily family);

  const graph::DSymLayout& layout() const { return layout_; }
  const hash::LinearHashFamily& family() const { return family_; }

  RunResult run(const graph::Graph& g, DSymProver& prover, util::Rng& rng) const;

  using Rounds = SymRounds<DSymMessage>;
  // O(log N) bits per node with the paper's p in [10 N^3, 100 N^3].
  static CostBreakdown costModel(const graph::DSymLayout& layout);
  // The widths costModel charges for N = n vertices.
  static SymWidths modelWidths(std::size_t n);

  bool nodeDecision(const graph::Graph& g, graph::Vertex v, const DSymMessage& msg,
                    const util::BigUInt& ownChallenge) const;

 private:
  graph::DSymLayout layout_;
  hash::LinearHashFamily family_;
  // dsymSigma(layout_), fixed for the protocol's lifetime — the per-node
  // decisions read it instead of recomputing the permutation per call.
  graph::Permutation sigma_;
};

// Honest prover: nothing to find (sigma is fixed); supplies the tree and
// the correct chain sums. The tree and rows come from the thread's prepared
// instance for (g, sigma) (core/prepared.hpp).
class HonestDSymProver : public DSymProver {
 public:
  HonestDSymProver(const graph::DSymLayout& layout, const hash::LinearHashFamily& family);
  DSymMessage respond(const graph::Graph& g,
                      const std::vector<util::BigUInt>& challenges) override;

 private:
  const graph::DSymLayout& layout_;
  const hash::LinearHashFamily& family_;
};

// Cheating prover for NO-instances: plays honestly (optimal — every message
// is forced up to hash collisions, and the structural checks need no
// prover input at all).
using CheatingDSymProver = HonestDSymProver;

}  // namespace dip::core
