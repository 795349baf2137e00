// The Goldwasser-Sipser frame's template definitions (core/gni_frame.hpp).
//
// Included only by gni_amam.cpp and gni_general.cpp, which each instantiate
// the frame for their own shape. One shape per translation unit keeps each
// unit small enough for GCC to inline the BigUInt comparisons and copies of
// the verifier's per-node loops; with both shapes in one unit it outlines
// them, and node decisions ran about 10% slower (GCC 12, -O2).
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/chain_util.hpp"
#include "core/gni_frame.hpp"
#include "core/gni_search.hpp"
#include "core/gni_wire.hpp"
#include "core/wire.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "net/audit.hpp"
#include "util/bitio.hpp"
#include "util/mathutil.hpp"
#include "util/primes.hpp"

namespace dip::core {

namespace gs_detail {

// Bits of the commitment-check prime: dimension n^2 with enough headroom
// that k repetitions of every check still collide with negligible
// probability.
inline std::size_t checkPrimeBits(std::size_t n) { return 3 * util::bitsFor(n) + 24; }

// What node v vouches for in one claimed repetition: its committed values
// and, per committed map, the map's image of v's closed G_b row; for b = 1
// also its closed G1 neighbours and, per map, their claimed images.
template <typename Shape>
struct Vouch {
  static constexpr std::size_t kMaps = Shape::kCommitted.size();
  std::array<graph::Vertex, kMaps> own{};
  std::array<util::DynBitset, kMaps> rows;
  std::vector<std::uint64_t> closed1;
  std::array<std::vector<std::uint64_t>, kMaps> claims;
};

template <typename Shape>
using Pieces = std::array<util::BigUInt, gsChains<Shape>().size()>;

// Node v's pieces of every chain in wire order (the b = 1 ones only when
// b1). The verifier recomputes these and the honest prover sums them, so
// both run this one definition. A b = 1 pair is the claimed entries
// [u, map(u)] over the closed G1 neighbours u, against the reference
// [v, map(v)] weighted by their count.
template <typename Shape>
void nodePieces(const GsPieceContext& ctx, graph::Vertex v, const Vouch<Shape>& vouch,
                bool b1, Pieces<Shape>& out) {
  constexpr std::size_t always = Shape::kChains.size();
  Shape::chainPieces(ctx, v, vouch.own, vouch.rows, std::span(out).template first<always>());
  if (!b1) return;
  for (std::size_t i = 0; i < Vouch<Shape>::kMaps; ++i) {
    out[always + 2 * i] =
        ctx.check.accumulateMatrixEntries(vouch.closed1, vouch.claims[i], ctx.n);
    out[always + 2 * i + 1] =
        ctx.check.hashMatrixEntry(v, vouch.own[i], vouch.closed1.size(), ctx.n);
  }
}

// Flag j of a per-repetition flag vector; entries past the end of a
// malformed message's vector read as 0. The transcript charges read every
// node's flags before nodeDecision rejects such a message.
inline std::uint8_t flagAt(const std::vector<std::uint8_t>& flags, std::size_t j) {
  return j < flags.size() ? flags[j] : 0;
}

// "<kName><suffix>": the shape's label for errors and audits.
template <typename Shape>
std::string label(const char* suffix) {
  return std::string(Shape::kName) + suffix;
}

// Chain c's field: P for the GS chain, the check prime for the others.
template <typename Shape>
const util::BigUInt& chainPrime(const GsParams<Shape>& params, std::size_t c) {
  return c == 0 ? params.gsHash.fieldPrime() : params.checkFamily.prime();
}

}  // namespace gs_detail

// ---- Parameters ----

template <typename Shape>
GsParams<Shape> GsParams<Shape>::choose(std::size_t n, util::Rng& rng) {
  if (n < 2) throw std::invalid_argument(gs_detail::label<Shape>(" params: n < 2"));
  GsParams params;
  params.n = n;
  const std::size_t side = Shape::kHashSide * n;
  util::BigUInt nFactorial = util::factorial(n);
  params.ell = nFactorial.bitLength() + 2;  // 2^ell in [4 n!, 8 n!).
  if (hash::EpsApiHash::fieldBits(side, params.ell) > kMaxSearchFieldBits) {
    throw std::invalid_argument(gs_detail::label<Shape>(
        " params: n > 15, the preimage search cannot hold the field"));
  }
  params.gsHash = hash::EpsApiHash::create(side, params.ell, rng);
  params.checkFamily =
      hash::LinearHashFamily(util::findPrimeWithBits(gs_detail::checkPrimeBits(n), rng),
                             static_cast<std::uint64_t>(n) * n);

  // Per-round acceptance bounds (DESIGN.md 4.5). q = n!/2^ell in (1/8, 1/4].
  const double q = std::exp2(nFactorial.log2() - static_cast<double>(params.ell));
  const double fs = std::exp2(static_cast<double>(params.ell) -
                              params.gsHash.fieldPrime().log2());
  const double m = static_cast<double>(side) * static_cast<double>(side);
  // 2^ell * Pr[H(x) = H(x')] <= 2^ell (m+1)/P + (1 + 3 fs).
  const double pairFactor = (m + 1.0) * fs + 1.0 + 3.0 * fs;
  params.perRoundYesLb = 2.0 * q - 2.0 * q * q * pairFactor;
  params.perRoundNoUb =
      q + Shape::kCheckSlack * m / params.checkFamily.prime().toDouble() + 1e-9;

  // Smallest k whose threshold test separates 2/3 from 1/3 (with margin).
  for (std::size_t k = 16; k <= 16384; k *= 2) {
    std::size_t tau = static_cast<std::size_t>(
        static_cast<double>(k) * (params.perRoundYesLb + params.perRoundNoUb) / 2.0);
    if (tau == 0) tau = 1;
    if (util::binomialTailGE(k, params.perRoundYesLb, tau) > 0.70 &&
        util::binomialTailGE(k, params.perRoundNoUb, tau) < 0.30) {
      params.repetitions = k;
      params.threshold = tau;
      break;
    }
  }
  if (params.repetitions == 0) {
    throw std::runtime_error(gs_detail::label<Shape>(" params: amplification search failed"));
  }
  return params;
}

// ---- Protocol ----

template <typename Shape>
GsProtocol<Shape>::GsProtocol(Params params) : params_(std::move(params)) {}

template <typename Shape>
bool GsProtocol<Shape>::nodeDecision(const GniInstance& instance, graph::Vertex v,
                                     const First& first, const Second& second,
                                     const std::vector<GniChallenge>& ownChallenges,
                                     const util::BigUInt& ownCheckChallenge) const {
  constexpr auto chains = gsChains<Shape>();
  constexpr std::size_t always = Shape::kChains.size();
  constexpr std::size_t maps = Shape::kCommitted.size();
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const util::BigUInt& bigP = params_.gsHash.fieldPrime();
  const util::BigUInt& checkP = params_.checkFamily.prime();
  const util::BigUInt yBound = util::BigUInt{1} << params_.ell;
  const typename Shape::M1& m1 = first.perNode[v];
  const typename Shape::M2& m2 = second.perNode[v];

  // Shape checks: every per-repetition vector of v's messages and of its G0
  // neighbours' holds k entries (v reads the neighbours' commitments for
  // b = 0 and its children's chain values). The root is fixed at node 0.
  bool shaped = true;
  instance.g0.closedRow(v).forEachSet([&](std::size_t u) {
    const typename Shape::M1& m1u = first.perNode[u];
    const typename Shape::M2& m2u = second.perNode[u];
    shaped = shaped && m1u.echo.size() == k && m1u.claimed.size() == k && m1u.b.size() == k;
    for (auto field : Shape::kCommitted) shaped = shaped && (m1u.*field).size() == k;
    for (auto field : Shape::kClaims) shaped = shaped && (m1u.*field).size() == k;
    for (auto field : chains) shaped = shaped && (m2u.*field).size() == k;
  });
  if (!shaped || m1.root != 0) return false;

  // Broadcast consistency against the G0 neighbours.
  bool consistent = true;
  instance.g0.row(v).forEachSet([&](std::size_t u) {
    const typename Shape::M1& other = first.perNode[u];
    if (other.root != m1.root || other.echo != m1.echo || other.claimed != m1.claimed ||
        other.b != m1.b || !(second.perNode[u].checkSeed == m2.checkSeed)) {
      consistent = false;
    }
  });
  if (!consistent || m2.checkSeed >= checkP) return false;

  // Spanning-tree local check (root fixed at 0).
  if (v == 0) {
    if (m1.dist != 0) return false;
  } else {
    if (m1.parent >= n || !instance.g0.hasEdge(v, m1.parent)) return false;
    if (m1.dist < 1 || first.perNode[m1.parent].dist != m1.dist - 1) return false;
  }
  std::vector<graph::Vertex> children;
  instance.g0.row(v).forEachSet([&](std::size_t u) {
    if (first.perNode[u].parent == v && u != 0) {
      children.push_back(static_cast<graph::Vertex>(u));
    }
  });

  // checkSeed is pinned for every repetition of this decision (and, under
  // the honest uniform broadcast, across all nodes of the trial), so the
  // check-family pieces batch into table lookups. The GS seed changes every
  // repetition but is the same at every node, so repetition j hashes on its
  // own slot evaluator, whose tables outlive this decision.
  thread_local hash::BatchLinearHashEvaluator checkBatch;
  thread_local gs_detail::Vouch<Shape> vouch;
  thread_local gs_detail::Pieces<Shape> pieces;
  checkBatch.rebind(params_.checkFamily, m2.checkSeed);
  vouch.closed1.clear();
  instance.g1.forEachClosedNeighbor(v, [&](graph::Vertex u) { vouch.closed1.push_back(u); });

  std::size_t claimedCount = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (!m1.claimed[j]) continue;
    ++claimedCount;
    if (m1.b[j] > 1) return false;
    const bool b1 = m1.b[j] == 1;

    // Seed and value domain checks.
    const GniChallenge& challenge = m1.echo[j];
    if (challenge.seed.a >= bigP || challenge.seed.alpha >= bigP ||
        challenge.seed.beta >= bigP || challenge.y >= yBound || m2.h[j] >= bigP) {
      return false;
    }

    // Own commitments in range, then the rows of the candidate this node
    // vouches for: from the G0 neighbours' commitments for b = 0, from v's
    // claims over its closed G1 neighbourhood for b = 1 (whose own entry
    // must repeat v's commitment).
    for (std::size_t i = 0; i < maps; ++i) {
      vouch.own[i] = (m1.*Shape::kCommitted[i])[j];
      if (vouch.own[i] >= n) return false;
      vouch.rows[i] = util::DynBitset(n);
    }
    if (!b1) {
      bool ok = true;
      instance.g0.closedRow(v).forEachSet([&](std::size_t u) {
        for (std::size_t i = 0; i < maps; ++i) {
          const graph::Vertex value = (first.perNode[u].*Shape::kCommitted[i])[j];
          if (value >= n) {
            ok = false;
          } else {
            vouch.rows[i].set(value);
          }
        }
      });
      if (!ok) return false;
    } else {
      for (std::size_t i = 0; i < maps; ++i) {
        const std::vector<graph::Vertex>& claims = (m1.*Shape::kClaims[i])[j];
        if (claims.size() != vouch.closed1.size()) return false;
        vouch.claims[i].clear();
        for (std::size_t idx = 0; idx < claims.size(); ++idx) {
          if (claims[idx] >= n) return false;
          if (vouch.closed1[idx] == v && claims[idx] != vouch.own[i]) return false;
          vouch.rows[i].set(claims[idx]);
          vouch.claims[i].push_back(claims[idx]);
        }
      }
    }

    // Chain links: own piece plus the children's sums. The accessor reads
    // children's message entries only, keeping the decision local to
    // M_{N(v)}.
    hash::BatchLinearHashEvaluator& gsSlot = hash::threadRepetitionEvaluator(j);
    gsSlot.rebind(params_.gsHash.inner(), challenge.seed.a);
    gs_detail::nodePieces<Shape>({params_.gsHash, gsSlot, checkBatch, n}, v, vouch, b1, pieces);
    const std::size_t chainCount = b1 ? chains.size() : always;
    for (std::size_t c = 0; c < chainCount; ++c) {
      const typename Shape::Chain field = chains[c];
      const auto claimedAt = [&](graph::Vertex u) -> const util::BigUInt& {
        return (second.perNode[u].*field)[j];
      };
      const util::BigUInt& prime = gs_detail::chainPrime(params_, c);
      if (!chainLinkHoldsAt(pieces[c], children, claimedAt, v, prime)) return false;
    }

    // Root-only equalities and echo checks.
    if (v == 0) {
      if (!(params_.gsHash.outer(challenge.seed, m2.h[j]) == challenge.y)) return false;
      for (const auto& [left, right] : Shape::kRootEqualities) {
        if (!((m2.*left)[j] == (m2.*right)[j])) return false;
      }
      for (std::size_t c = always; c < chainCount; c += 2) {
        if (!((m2.*chains[c])[j] == (m2.*chains[c + 1])[j])) return false;
      }
      if (!(challenge == ownChallenges[j])) return false;
    }
  }

  if (v == 0 && !(m2.checkSeed == ownCheckChallenge)) return false;
  return claimedCount >= params_.threshold;
}

template <typename Shape>
RunResult GsProtocol<Shape>::run(const GniInstance& instance, Prover& prover,
                                 util::Rng& rng) const {
  const std::size_t n = instance.g0.numVertices();
  if (n != params_.n || instance.g1.numVertices() != n) {
    throw std::invalid_argument(gs_detail::label<Shape>(": size mismatch"));
  }
  constexpr std::size_t always = Shape::kChains.size();
  constexpr std::size_t maps = Shape::kCommitted.size();
  const std::size_t k = params_.repetitions;
  const unsigned idBits = util::bitsFor(n);
  const std::size_t seedBlockBits = params_.gsHash.seedBits() + params_.ell;
  const std::size_t innerBits = params_.gsHash.innerValueBits();
  const std::size_t checkBits = params_.checkFamily.seedBits();

  RunResult result;
  result.transcript = net::Transcript(n);
  net::Transcript& transcript = result.transcript;

  // A1: eps-API seeds and targets.
  transcript.beginRound("A1: GS seeds + targets");
  std::vector<std::vector<GniChallenge>> challenges(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::Rng nodeRng = rng.split(v);
    challenges[v].reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      GniChallenge challenge;
      challenge.seed = params_.gsHash.randomSeed(nodeRng);
      challenge.y = nodeRng.nextBigBits(params_.ell);
      challenges[v].push_back(std::move(challenge));
    }
    transcript.chargeToProver(v, k * seedBlockBits);
  }
#if DIP_AUDIT
  for (graph::Vertex v = 0; v < n; ++v) {
    net::auditCharge(gs_detail::label<Shape>("/A1").c_str(), v, transcript.roundBitsToProver(v),
                     wire::encodeGniChallenges(challenges[v], params_).bitCount());
  }
#endif

  // M1: commitments.
  transcript.beginRound(Shape::kM1Round);
  First first = prover.firstMessage(instance, challenges);
  if (first.perNode.size() != n) throw std::runtime_error(gs_detail::label<Shape>(": malformed M1"));
  transcript.chargeBroadcastFromProver(idBits               // Root.
                                       + k * seedBlockBits  // Echo.
                                       + 2 * k);            // claimed + b bits.
  for (graph::Vertex v = 0; v < n; ++v) {
    const typename Shape::M1& m1 = first.perNode[v];
    std::size_t claimBits = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (!gs_detail::flagAt(m1.claimed, j) || gs_detail::flagAt(m1.b, j) != 1) continue;
      for (auto field : Shape::kClaims) {
        if (j < (m1.*field).size()) claimBits += (m1.*field)[j].size() * idBits;
      }
    }
    transcript.chargeFromProver(v, 2 * idBits              // t_v, d_v.
                                       + maps * k * idBits  // Commitments.
                                       + claimBits);
  }
#if DIP_AUDIT
  net::auditChargedRound(gs_detail::label<Shape>("/M1").c_str(), transcript,
                         [&] { return wire::encodeGniFirst(first, instance, params_); });
#endif

  // A2: fresh commitment-check indices.
  transcript.beginRound("A2: check indices");
  std::vector<util::BigUInt> checkChallenges;
  checkChallenges.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::Rng nodeRng = rng.split(Shape::kCheckStream + v);
    checkChallenges.push_back(params_.checkFamily.randomIndex(nodeRng));
    transcript.chargeToProver(v, checkBits);
  }
#if DIP_AUDIT
  net::roundArena().reset();
  for (graph::Vertex v = 0; v < n; ++v) {
    net::auditCharge(gs_detail::label<Shape>("/A2").c_str(), v, transcript.roundBitsToProver(v),
                     wire::encodeChallenge(checkChallenges[v], params_.checkFamily,
                                           &net::roundArena())
                         .bitCount());
  }
#endif

  // M2: chain values.
  transcript.beginRound("M2: check echo + chains");
  Second second = prover.secondMessage(instance, challenges, first, checkChallenges);
  if (second.perNode.size() != n) throw std::runtime_error(gs_detail::label<Shape>(": malformed M2"));
  transcript.chargeBroadcastFromProver(checkBits);
  for (graph::Vertex v = 0; v < n; ++v) {
    const typename Shape::M1& m1 = first.perNode[v];
    std::size_t bits = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (!gs_detail::flagAt(m1.claimed, j)) continue;
      bits += innerBits + (always - 1) * checkBits;
      if (gs_detail::flagAt(m1.b, j) == 1) bits += Shape::kB1Chains.size() * checkBits;
    }
    transcript.chargeFromProver(v, bits);
  }
#if DIP_AUDIT
  net::auditChargedRound(gs_detail::label<Shape>("/M2").c_str(), transcript, [&] {
    return wire::encodeGniSecond(second, first, instance, params_);
  });
#endif

  result.accepted = true;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!nodeDecision(instance, v, first, second, challenges[v], checkChallenges[v])) {
      result.accepted = false;
      break;
    }
  }
  return result;
}

template <typename Shape>
GniChallenge GsProtocol<Shape>::randomTarget(util::Rng& rng) const {
  GniChallenge target;
  target.seed = params_.gsHash.randomSeed(rng);
  target.y = rng.nextBigBits(params_.ell);
  return target;
}

template <typename Shape>
bool GsProtocol<Shape>::perRoundHitOnce(const GniInstance& instance, util::Rng& rng) const
  requires(!Shape::kCompensated)
{
  const GniChallenge target = randomTarget(rng);
  return searchGsPreimages(instance, params_.gsHash, std::span(&target, 1)).front().has_value();
}

template <typename Shape>
bool GsProtocol<Shape>::perRoundHitOnce(const GniInstance& instance,
                                        const std::vector<graph::Permutation>& aut0,
                                        const std::vector<graph::Permutation>& aut1,
                                        util::Rng& rng) const
  requires Shape::kCompensated
{
  const GniChallenge target = randomTarget(rng);
  return searchGsPreimages(instance, params_.gsHash, std::span(&target, 1), aut0, aut1)
      .front()
      .has_value();
}

template <typename Shape>
AcceptanceStats GsProtocol<Shape>::estimatePerRoundHit(const GniInstance& instance,
                                                       std::size_t trials,
                                                       util::Rng& rng) const {
  AcceptanceStats stats;
  stats.trials = trials;
  if constexpr (Shape::kCompensated) {
    const auto aut0 = graph::allAutomorphisms(instance.g0);
    const auto aut1 = graph::allAutomorphisms(instance.g1);
    for (std::size_t t = 0; t < trials; ++t) {
      if (perRoundHitOnce(instance, aut0, aut1, rng)) ++stats.accepts;
    }
  } else {
    for (std::size_t t = 0; t < trials; ++t) {
      if (perRoundHitOnce(instance, rng)) ++stats.accepts;
    }
  }
  return stats;
}

template <typename Shape>
GsModelWidths GsProtocol<Shape>::modelWidths(std::size_t n) {
  double log2Fact = 0.0;
  for (std::size_t i = 2; i <= n; ++i) log2Fact += std::log2(static_cast<double>(i));
  const std::size_t ell = static_cast<std::size_t>(log2Fact) + 3;
  GsModelWidths widths;
  widths.idBits = util::bitsFor(n);
  widths.fieldBits = ell + 2 * util::bitsFor(Shape::kHashSide * n) + 8;
  widths.seedBlockBits = 3 * widths.fieldBits + ell;
  widths.checkBits = gs_detail::checkPrimeBits(n);
  return widths;
}

template <typename Shape>
CostBreakdown GsProtocol<Shape>::costModel(std::size_t n, std::size_t repetitions) {
  const GsModelWidths w = modelWidths(n);
  const std::size_t maps = Shape::kCommitted.size();
  const std::size_t checkChains = Shape::kChains.size() - 1 + Shape::kB1Chains.size();
  const std::size_t k = repetitions;

  CostBreakdown cost;
  cost.bitsToProverPerNode = k * w.seedBlockBits + w.checkBits;  // A1 + A2.
  cost.bitsFromProverPerNode = w.idBits + k * w.seedBlockBits + 2 * k     // M1 broadcast.
                               + 2 * w.idBits + maps * k * w.idBits        // Tree + commitments.
                               + maps * k * n * w.idBits                   // Claims (worst case).
                               + w.checkBits                               // M2 broadcast.
                               + k * (w.fieldBits + checkChains * w.checkBits);  // Chains.
  return cost;
}

// ---- Honest prover ----

template <typename Shape>
HonestGsProver<Shape>::HonestGsProver(const GsParams<Shape>& params) : params_(params) {}

template <typename Shape>
auto HonestGsProver<Shape>::firstMessage(
    const GniInstance& instance, const std::vector<std::vector<GniChallenge>>& challenges)
    -> First {
  found_ = Shape::search(instance, params_.gsHash,
                         std::span(challenges[0]).first(params_.repetitions));
  return commit(instance, challenges[0]);
}

template <typename Shape>
auto HonestGsProver<Shape>::commit(const GniInstance& instance,
                                   const std::vector<GniChallenge>& rootChallenges) -> First {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  std::vector<std::uint8_t> claimed(k, 0);
  for (std::size_t j = 0; j < k; ++j) claimed[j] = found_[j].has_value() ? 1 : 0;

  tree_ = net::buildBfsTree(instance.g0, 0);
  net::bottomUpOrderInto(tree_, order_);
  First first;
  first.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    typename Shape::M1& m1 = first.perNode[v];
    m1.root = 0;
    m1.parent = tree_.parent[v];
    m1.dist = tree_.dist[v];
    m1.echo = rootChallenges;
    m1.claimed = claimed;
    m1.b.assign(k, 0);
    for (auto field : Shape::kCommitted) (m1.*field).assign(k, 0);
    for (auto field : Shape::kClaims) (m1.*field).resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      if (!found_[j]) continue;
      const GsPreimage& found = *found_[j];
      m1.b[j] = found.b;
      const auto own = Shape::commitOf(found, v);
      for (std::size_t i = 0; i < own.size(); ++i) (m1.*Shape::kCommitted[i])[j] = own[i];
      if (found.b == 1) {
        for (auto field : Shape::kClaims) (m1.*field)[j].reserve(instance.g1.degree(v) + 1);
        instance.g1.forEachClosedNeighbor(v, [&](graph::Vertex u) {
          const auto image = Shape::commitOf(found, u);
          for (std::size_t i = 0; i < image.size(); ++i) {
            (m1.*Shape::kClaims[i])[j].push_back(image[i]);
          }
        });
      }
    }
  }
  return first;
}

template <typename Shape>
auto HonestGsProver<Shape>::secondMessage(
    const GniInstance& instance, const std::vector<std::vector<GniChallenge>>& challenges,
    const First& /*first*/, const std::vector<util::BigUInt>& checkChallenges) -> Second {
  constexpr auto chains = gsChains<Shape>();
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const util::BigUInt& checkSeed = checkChallenges[0];

  Second second;
  second.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    second.perNode[v].checkSeed = checkSeed;
    for (auto field : chains) (second.perNode[v].*field).assign(k, util::BigUInt{});
  }

  // Per-thread buffers, reused across repetitions and trials. checkSeed is
  // pinned for the whole message and the GS seed for the whole repetition:
  // every row and entry hash is a table lookup.
  thread_local hash::BatchLinearHashEvaluator gsBatch;
  thread_local hash::BatchLinearHashEvaluator checkBatch;
  thread_local gs_detail::Vouch<Shape> vouch;
  thread_local gs_detail::Pieces<Shape> pieces;
  thread_local std::array<std::vector<util::BigUInt>, chains.size()> columns;
  thread_local std::vector<util::BigUInt> sums;
  checkBatch.rebind(params_.checkFamily, checkSeed);
  for (auto& column : columns) column.resize(n);

  for (std::size_t j = 0; j < k; ++j) {
    if (!found_[j]) continue;
    const GsPreimage& found = *found_[j];
    const graph::Graph& gb = (found.b == 0) ? instance.g0 : instance.g1;
    const bool b1 = found.b == 1;
    const std::size_t chainCount = b1 ? chains.size() : Shape::kChains.size();
    gsBatch.rebind(params_.gsHash.inner(), challenges[0][j].seed.a);
    const GsPieceContext ctx{params_.gsHash, gsBatch, checkBatch, n};
    for (graph::Vertex v = 0; v < n; ++v) {
      vouch.own = Shape::commitOf(found, v);
      for (auto& row : vouch.rows) row = util::DynBitset(n);
      gb.forEachClosedNeighbor(v, [&](graph::Vertex u) {
        const auto image = Shape::commitOf(found, u);
        for (std::size_t i = 0; i < image.size(); ++i) vouch.rows[i].set(image[i]);
      });
      if (b1) {
        vouch.closed1.clear();
        for (auto& claims : vouch.claims) claims.clear();
        instance.g1.forEachClosedNeighbor(v, [&](graph::Vertex u) {
          vouch.closed1.push_back(u);
          const auto image = Shape::commitOf(found, u);
          for (std::size_t i = 0; i < image.size(); ++i) vouch.claims[i].push_back(image[i]);
        });
      }
      gs_detail::nodePieces<Shape>(ctx, v, vouch, b1, pieces);
      for (std::size_t c = 0; c < chainCount; ++c) columns[c][v] = pieces[c];
    }
    for (std::size_t c = 0; c < chainCount; ++c) {
      subtreeSums(instance.g0, tree_, order_, columns[c], gs_detail::chainPrime(params_, c), sums);
      for (graph::Vertex v = 0; v < n; ++v) (second.perNode[v].*chains[c])[j] = sums[v];
    }
  }
  return second;
}

}  // namespace dip::core
