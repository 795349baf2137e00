// The Goldwasser-Sipser frame: the four dAMAM rounds both GNI protocols run.
//
// The rigid protocol (gni_amam.hpp, Section 4) and its general-input repair
// (gni_general.hpp, the (H, alpha) pair counting of [15]) estimate the size
// of a candidate set with one Goldwasser-Sipser hash and differ only in what
// a candidate is. This module holds their common rounds once, as templates
// over a protocol SHAPE:
//   A1  every node sends, per repetition, an eps-API seed and a target y;
//   M1  the prover echoes node 0's challenges, claims repetitions with a
//       bit b each, unicasts the spanning tree (root fixed at node 0) and
//       per claimed repetition each node's COMMITTED values, plus for b = 1
//       the values of v's closed G1 neighbourhood (G1 edges are not links);
//   A2  every node sends a fresh check-family index;
//   M2  the prover echoes node 0's index and unicasts per claimed
//       repetition the subtree sums of every CHAIN, the b = 1 chains only
//       where b = 1.
// Each node then checks its chain links (own piece plus the children's
// sums), and node 0 checks the GS outer hash against y and the shape's root
// equalities.
//
// A shape is a struct with
//   - M1, M2, First, Second: its message types, and Chain, the type of an
//     M2 chain field;
//   - kName, kM1Round: labels for errors, audits and the transcript;
//   - kHashSide: the GS hash is over (kHashSide n)-square matrices;
//   - kCompensated: whether candidates carry an automorphism (the search
//     then takes Aut(g0) and Aut(g1));
//   - kCheckSlack: the per-round soundness slack is kCheckSlack m / p'
//     for the check prime p' and m = (kHashSide n)^2;
//   - kCheckStream: A2 draws node v's index from rng.split(kCheckStream + v);
//   - kCommitted: the M1 fields holding a node's committed values, and
//     kClaims, aligned with them, the fields holding v's b = 1 claims of
//     its closed G1 neighbours' values;
//   - kChains: the M2 chains of every claimed repetition, the GS chain h
//     first (field P), the check-family chains after it;
//   - kB1Chains: per committed field, the claims side and then the
//     reference side of its b = 1 consistency check;
//   - kRootEqualities: the check-chain pairs node 0 requires equal (each
//     kB1Chains pair is required equal too);
//   - commitOf(found, u): vertex u's committed values for a candidate;
//   - chainPieces(...): a node's pieces for kChains;
//   - search(...): the honest prover's preimage search.
// Walking the tables in order gives the wire order, the transcript charges
// and the cost model of both protocols.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/result.hpp"
#include "graph/graph.hpp"
#include "hash/eps_api.hpp"
#include "hash/linear_hash.hpp"
#include "net/spanning.hpp"
#include "util/rng.hpp"

namespace dip::hash {
class BatchLinearHashEvaluator;
}  // namespace dip::hash

namespace dip::core {

// A Graph Non-Isomorphism instance. g0 must be connected (it is the
// network); g1 arrives row-by-row as node inputs.
struct GniInstance {
  graph::Graph g0;
  graph::Graph g1;
};

// One node's A1 challenge content for one repetition.
struct GniChallenge {
  hash::EpsApiHash::Seed seed;
  util::BigUInt y;

  bool operator==(const GniChallenge& other) const {
    return seed.a == other.seed.a && seed.alpha == other.seed.alpha &&
           seed.beta == other.seed.beta && y == other.y;
  }
};

// One candidate x in S with H(x) = y (core/gni_search.hpp).
struct GsPreimage {
  graph::Permutation sigma;
  graph::Permutation alpha;  // sigma . beta . sigma^-1; empty in the rigid form.
  std::uint8_t b = 0;
};

using GsSearchResult = std::vector<std::optional<GsPreimage>>;

// The structural widths the cost models charge, from n alone (no prime
// search): ell ~ log2(n!) + 3, the GS field ~ ell + 2 log2(side) + 8 bits
// for a (side x side) hash (EpsApiHash::create), the check family
// ~ 3 log2 n + 24 bits.
struct GsModelWidths {
  unsigned idBits = 0;
  std::size_t fieldBits = 0;
  std::size_t seedBlockBits = 0;  // One repetition's A1 block: 3 field elements + y.
  std::size_t checkBits = 0;
};

// The parameters of one shape, derived from n (DESIGN.md 4.5).
template <typename Shape>
struct GsParams {
  std::size_t n = 0;
  std::size_t ell = 0;          // Output bits, 2^ell in [4 n!, 8 n!).
  std::size_t repetitions = 0;  // k.
  std::size_t threshold = 0;    // Accept iff >= threshold repetitions claimed+verified.
  double perRoundYesLb = 0.0;
  double perRoundNoUb = 0.0;
  hash::EpsApiHash gsHash;             // (kHashSide n)-square; fresh seeds per repetition.
  hash::LinearHashFamily checkFamily;  // Dimension n^2, fresh-seed commitment checks.

  // Throws std::invalid_argument for n < 2 and for n > 15, whose field is
  // wider than the honest prover's search takes (kMaxSearchFieldBits).
  static GsParams choose(std::size_t n, util::Rng& rng);
};

// A shape's M2 chains in wire order: kChains, then kB1Chains. Chain 0 is
// the GS chain h (field P, innerValueBits); the others are check-family
// chains.
template <typename Shape>
constexpr auto gsChains() {
  constexpr std::size_t always = Shape::kChains.size();
  std::array<typename Shape::Chain, always + Shape::kB1Chains.size()> all{};
  for (std::size_t c = 0; c < all.size(); ++c) {
    all[c] = c < always ? Shape::kChains[c] : Shape::kB1Chains[c - always];
  }
  return all;
}

template <typename Shape>
class GsProver {
 public:
  using First = typename Shape::First;
  using Second = typename Shape::Second;

  virtual ~GsProver() = default;
  virtual First firstMessage(const GniInstance& instance,
                             const std::vector<std::vector<GniChallenge>>& challenges) = 0;
  virtual Second secondMessage(const GniInstance& instance,
                               const std::vector<std::vector<GniChallenge>>& challenges,
                               const First& first,
                               const std::vector<util::BigUInt>& checkChallenges) = 0;
};

// The evaluators a node's pieces hash with: `gs` pinned to the repetition's
// GS seed a, `check` pinned to the check seed.
struct GsPieceContext {
  const hash::EpsApiHash& gsHash;
  hash::BatchLinearHashEvaluator& gs;
  hash::BatchLinearHashEvaluator& check;
  std::size_t n;
};

template <typename Shape>
class GsProtocol {
 public:
  using Params = GsParams<Shape>;
  using Prover = GsProver<Shape>;
  using First = typename Shape::First;
  using Second = typename Shape::Second;

  explicit GsProtocol(Params params);

  const Params& params() const { return params_; }

  RunResult run(const GniInstance& instance, Prover& prover, util::Rng& rng) const;

  template <typename ProverFactory>
  AcceptanceStats estimateAcceptance(const GniInstance& instance,
                                     ProverFactory&& proverFactory, std::size_t trials,
                                     util::Rng& rng) const {
    AcceptanceStats stats;
    stats.trials = trials;
    for (std::size_t t = 0; t < trials; ++t) {
      auto prover = proverFactory();
      if (run(instance, *prover, rng).accepted) ++stats.accepts;
    }
    return stats;
  }

  // Single-repetition variant: Pr[some candidate hits one random target],
  // the quantity with the 2q vs q gap; cheaper to estimate than the
  // amplified protocol and what E5 and E11 report alongside it.
  AcceptanceStats estimatePerRoundHit(const GniInstance& instance, std::size_t trials,
                                      util::Rng& rng) const;

  // One hit trial (the loop body of estimatePerRoundHit), exposed so the
  // trial engine can run hits as independent seeded trials. The
  // compensated form takes precomputed automorphism lists (compute them
  // once with graph::allAutomorphisms and share them across the trial
  // engine's workers; they are read-only during trials).
  bool perRoundHitOnce(const GniInstance& instance, util::Rng& rng) const
    requires(!Shape::kCompensated);
  bool perRoundHitOnce(const GniInstance& instance, const std::vector<graph::Permutation>& aut0,
                       const std::vector<graph::Permutation>& aut1, util::Rng& rng) const
    requires Shape::kCompensated;

  // Structural cost model (bits per node) for instance size n with k
  // repetitions; no prime search. Theta(k * n log n).
  static CostBreakdown costModel(std::size_t n, std::size_t repetitions);
  // The widths costModel charges.
  static GsModelWidths modelWidths(std::size_t n);

  bool nodeDecision(const GniInstance& instance, graph::Vertex v, const First& first,
                    const Second& second, const std::vector<GniChallenge>& ownChallenges,
                    const util::BigUInt& ownCheckChallenge) const;

 private:
  GniChallenge randomTarget(util::Rng& rng) const;

  Params params_;
};

// The honest (computationally unbounded) prover: per repetition it runs the
// shape's exhaustive preimage search and claims exactly the repetitions
// where a candidate hits the target.
template <typename Shape>
class HonestGsProver : public GsProver<Shape> {
 public:
  using First = typename Shape::First;
  using Second = typename Shape::Second;

  explicit HonestGsProver(const GsParams<Shape>& params);
  First firstMessage(const GniInstance& instance,
                     const std::vector<std::vector<GniChallenge>>& challenges) override;
  Second secondMessage(const GniInstance& instance,
                       const std::vector<std::vector<GniChallenge>>& challenges,
                       const First& first,
                       const std::vector<util::BigUInt>& checkChallenges) override;

 protected:
  // M1 committing to found_ (claimed exactly where it holds a candidate):
  // the BFS tree rooted at node 0, which secondMessage sums along, the echo
  // of node 0's challenges and every node's commitments and claims.
  First commit(const GniInstance& instance, const std::vector<GniChallenge>& rootChallenges);

  const GsParams<Shape>& params_;
  GsSearchResult found_;  // Per repetition, the committed candidate.

 private:
  net::SpanningTreeAdvice tree_;
  std::vector<graph::Vertex> order_;
};

}  // namespace dip::core
