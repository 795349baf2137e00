#include "core/gni_general.hpp"

#include <cmath>
#include <stdexcept>

#include "core/chain_util.hpp"
#include "core/gni_general_wire.hpp"
#include "core/gni_wire.hpp"
#include "core/wire.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "net/audit.hpp"
#include "util/bitio.hpp"
#include "util/mathutil.hpp"
#include "util/primes.hpp"

namespace dip::core {

namespace {

// Pads an n-bit row to the hash's 2n-bit row width.
util::DynBitset padRow(const util::DynBitset& row, std::size_t width) {
  util::DynBitset padded(width);
  row.forEachSet([&](std::size_t i) { padded.set(i); });
  return padded;
}

// The GS inner-hash piece node v vouches for: H's row sigma(v) plus alpha's
// permutation-matrix row at index n + sigma(v).
util::BigUInt gsPairPiece(const hash::EpsApiHash& gsHash, std::size_t n,
                          const hash::EpsApiHash::Seed& seed, graph::Vertex sv,
                          graph::Vertex av, const util::DynBitset& hRow) {
  util::BigUInt piece = gsHash.innerRow(seed, sv, padRow(hRow, 2 * n));
  util::DynBitset alphaRow(2 * n);
  alphaRow.set(av);
  return gsHash.combine(piece, gsHash.innerRow(seed, n + sv, alphaRow));
}

}  // namespace

GniGeneralParams GniGeneralParams::choose(std::size_t n, util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("GniGeneralParams: n < 2");
  GniGeneralParams params;
  params.n = n;
  util::BigUInt nFactorial = util::factorial(n);
  params.ell = nFactorial.bitLength() + 2;  // 2^ell in [4 n!, 8 n!).
  params.gsHash = hash::EpsApiHash::create(2 * n, params.ell, rng);

  std::size_t checkBits = 3 * util::bitsFor(n) + 24;
  params.checkFamily = hash::LinearHashFamily(
      util::findPrimeWithBits(checkBits, rng), static_cast<std::uint64_t>(n) * n);

  const double q = std::exp2(nFactorial.log2() - static_cast<double>(params.ell));
  const double fs = std::exp2(static_cast<double>(params.ell) -
                              params.gsHash.fieldPrime().log2());
  const double m = 4.0 * static_cast<double>(n) * static_cast<double>(n);
  const double pairFactor = (m + 1.0) * fs + 1.0 + 3.0 * fs;
  params.perRoundYesLb = 2.0 * q - 2.0 * q * q * pairFactor;
  params.perRoundNoUb = q + 6.0 * m / params.checkFamily.prime().toDouble() + 1e-9;

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
    throw std::runtime_error("GniGeneralParams: amplification search failed");
  }
  return params;
}

GniGeneralProtocol::GniGeneralProtocol(GniGeneralParams params)
    : params_(std::move(params)) {}

bool GniGeneralProtocol::nodeDecision(const GniInstance& instance, graph::Vertex v,
                                      const GniGenFirstMessage& first,
                                      const GniGenSecondMessage& second,
                                      const std::vector<GniChallenge>& ownChallenges,
                                      const util::BigUInt& ownCheckChallenge) const {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const util::BigUInt& bigP = params_.gsHash.fieldPrime();
  const util::BigUInt& checkP = params_.checkFamily.prime();
  const util::BigUInt yBound = util::BigUInt{1} << params_.ell;
  const GniGenM1PerNode& m1 = first.perNode[v];
  const GniGenM2PerNode& m2 = second.perNode[v];

  // Shape checks.
  if (m1.echo.size() != k || m1.claimed.size() != k || m1.b.size() != k ||
      m1.s.size() != k || m1.a.size() != k || m1.sClaims.size() != k ||
      m1.aClaims.size() != k) {
    return false;
  }
  if (m2.h.size() != k || m2.identity.size() != k || m2.permS.size() != k ||
      m2.permA.size() != k || m2.autL.size() != k || m2.autR.size() != k ||
      m2.consSC.size() != k || m2.consST.size() != k || m2.consAC.size() != k ||
      m2.consAT.size() != k) {
    return false;
  }
  if (m1.root != 0) return false;

  // Broadcast consistency.
  bool consistent = true;
  instance.g0.row(v).forEachSet([&](std::size_t u) {
    const GniGenM1PerNode& other = first.perNode[u];
    if (other.root != m1.root || other.echo != m1.echo || other.claimed != m1.claimed ||
        other.b != m1.b || !(second.perNode[u].checkSeed == m2.checkSeed)) {
      consistent = false;
    }
  });
  if (!consistent || m2.checkSeed >= checkP) return false;

  // Tree check (root fixed at 0).
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

  const std::vector<graph::Vertex> closed1 = instance.g1.closedNeighbors(v);

  // checkSeed is pinned across every repetition of this decision, so the
  // nine check-family pieces batch into table lookups (the GS piece's seed
  // changes per repetition and stays scalar).
  const bool useBatch = hash::batchEnabled();
  thread_local hash::BatchLinearHashEvaluator checkBatch;
  thread_local std::vector<std::uint64_t> consRows;
  thread_local std::vector<std::uint64_t> consCols;
  if (useBatch) checkBatch.rebind(params_.checkFamily, m2.checkSeed);

  std::size_t claimedCount = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (!m1.claimed[j]) continue;
    ++claimedCount;
    if (m1.b[j] > 1) return false;

    const GniChallenge& challenge = m1.echo[j];
    if (challenge.seed.a >= bigP || challenge.seed.alpha >= bigP ||
        challenge.seed.beta >= bigP || challenge.y >= yBound) {
      return false;
    }
    graph::Vertex sv = m1.s[j];
    graph::Vertex av = m1.a[j];
    if (sv >= n || av >= n) return false;

    // Assemble H's row sigma(v) and its alpha-image from the visible
    // commitments (neighbors for b = 0, prover claims for b = 1).
    util::DynBitset hRow(n);
    util::DynBitset alphaHRow(n);
    if (m1.b[j] == 0) {
      bool ok = true;
      instance.g0.closedRow(v).forEachSet([&](std::size_t u) {
        graph::Vertex su = first.perNode[u].s[j];
        graph::Vertex au = first.perNode[u].a[j];
        if (su >= n || au >= n) {
          ok = false;
        } else {
          hRow.set(su);
          alphaHRow.set(au);
        }
      });
      if (!ok) return false;
    } else {
      const auto& sClaims = m1.sClaims[j];
      const auto& aClaims = m1.aClaims[j];
      if (sClaims.size() != closed1.size() || aClaims.size() != closed1.size()) {
        return false;
      }
      for (std::size_t i = 0; i < closed1.size(); ++i) {
        if (sClaims[i] >= n || aClaims[i] >= n) return false;
        if (closed1[i] == v && (sClaims[i] != sv || aClaims[i] != av)) return false;
        hRow.set(sClaims[i]);
        alphaHRow.set(aClaims[i]);
      }
    }

    // (i) GS hash of the pair (H, alpha).
    util::BigUInt gsPiece =
        gsPairPiece(params_.gsHash, n, challenge.seed, sv, av, hRow);
    if (m2.h[j] >= bigP ||
        !chainLinkHoldsAt(
            gsPiece, children,
            [&](graph::Vertex u) -> const util::BigUInt& {
              return second.perNode[u].h[j];
            },
            v, bigP)) {
      return false;
    }

    // (ii)-(vi) check-family chains. The accessor reads children's message
    // entries only, keeping the decision local to M_{N(v)}.
    auto entry = [&](std::vector<util::BigUInt> GniGenM2PerNode::* field) {
      return [&, field](graph::Vertex u) -> const util::BigUInt& {
        return (second.perNode[u].*field)[j];
      };
    };
    const auto& cf = params_.checkFamily;
    util::BigUInt idPiece = useBatch ? checkBatch.hashMatrixEntry(v, v, 1, n)
                                     : cf.hashMatrixEntry(m2.checkSeed, v, v, 1, n);
    util::BigUInt permSPiece = useBatch
                                   ? checkBatch.hashMatrixEntry(sv, sv, 1, n)
                                   : cf.hashMatrixEntry(m2.checkSeed, sv, sv, 1, n);
    util::BigUInt permAPiece = useBatch
                                   ? checkBatch.hashMatrixEntry(av, av, 1, n)
                                   : cf.hashMatrixEntry(m2.checkSeed, av, av, 1, n);
    util::BigUInt autLPiece = useBatch ? checkBatch.hashMatrixRow(sv, hRow, n)
                                       : cf.hashMatrixRow(m2.checkSeed, sv, hRow, n);
    util::BigUInt autRPiece = useBatch
                                  ? checkBatch.hashMatrixRow(av, alphaHRow, n)
                                  : cf.hashMatrixRow(m2.checkSeed, av, alphaHRow, n);
    if (!chainLinkHoldsAt(idPiece, children, entry(&GniGenM2PerNode::identity), v, checkP) ||
        !chainLinkHoldsAt(permSPiece, children, entry(&GniGenM2PerNode::permS), v, checkP) ||
        !chainLinkHoldsAt(permAPiece, children, entry(&GniGenM2PerNode::permA), v, checkP) ||
        !chainLinkHoldsAt(autLPiece, children, entry(&GniGenM2PerNode::autL), v, checkP) ||
        !chainLinkHoldsAt(autRPiece, children, entry(&GniGenM2PerNode::autR), v, checkP)) {
      return false;
    }

    if (m1.b[j] == 1) {
      util::BigUInt consSCPiece, consACPiece;
      if (useBatch) {
        consRows.clear();
        consCols.clear();
        for (std::size_t i = 0; i < closed1.size(); ++i) {
          consRows.push_back(closed1[i]);
          consCols.push_back(m1.sClaims[j][i]);
        }
        consSCPiece = checkBatch.accumulateMatrixEntries(consRows, consCols, n);
        consCols.clear();
        for (std::size_t i = 0; i < closed1.size(); ++i) {
          consCols.push_back(m1.aClaims[j][i]);
        }
        consACPiece = checkBatch.accumulateMatrixEntries(consRows, consCols, n);
      } else {
        for (std::size_t i = 0; i < closed1.size(); ++i) {
          consSCPiece = util::addMod(
              consSCPiece, cf.hashMatrixEntry(m2.checkSeed, closed1[i], m1.sClaims[j][i], 1, n),
              checkP);
          consACPiece = util::addMod(
              consACPiece, cf.hashMatrixEntry(m2.checkSeed, closed1[i], m1.aClaims[j][i], 1, n),
              checkP);
        }
      }
      util::BigUInt consSTPiece =
          useBatch ? checkBatch.hashMatrixEntry(v, sv, closed1.size(), n)
                   : cf.hashMatrixEntry(m2.checkSeed, v, sv, closed1.size(), n);
      util::BigUInt consATPiece =
          useBatch ? checkBatch.hashMatrixEntry(v, av, closed1.size(), n)
                   : cf.hashMatrixEntry(m2.checkSeed, v, av, closed1.size(), n);
      if (!chainLinkHoldsAt(consSCPiece, children, entry(&GniGenM2PerNode::consSC), v, checkP) ||
          !chainLinkHoldsAt(consSTPiece, children, entry(&GniGenM2PerNode::consST), v, checkP) ||
          !chainLinkHoldsAt(consACPiece, children, entry(&GniGenM2PerNode::consAC), v, checkP) ||
          !chainLinkHoldsAt(consATPiece, children, entry(&GniGenM2PerNode::consAT), v, checkP)) {
        return false;
      }
    }

    // Root-only equalities.
    if (v == 0) {
      if (!(params_.gsHash.outer(challenge.seed, m2.h[j]) == challenge.y)) return false;
      if (!(m2.identity[j] == m2.permS[j])) return false;   // sigma is a permutation.
      if (!(m2.identity[j] == m2.permA[j])) return false;   // alpha is a permutation.
      if (!(m2.autL[j] == m2.autR[j])) return false;        // alpha in Aut(H).
      if (m1.b[j] == 1) {
        if (!(m2.consSC[j] == m2.consST[j])) return false;
        if (!(m2.consAC[j] == m2.consAT[j])) return false;
      }
      if (!(challenge == ownChallenges[j])) return false;
    }
  }

  if (v == 0 && !(m2.checkSeed == ownCheckChallenge)) return false;
  return claimedCount >= params_.threshold;
}

RunResult GniGeneralProtocol::run(const GniInstance& instance, GniGeneralProver& prover,
                                  util::Rng& rng) const {
  const std::size_t n = instance.g0.numVertices();
  if (n != params_.n || instance.g1.numVertices() != n) {
    throw std::invalid_argument("GniGeneralProtocol: size mismatch");
  }
  const std::size_t k = params_.repetitions;
  const unsigned idBits = util::bitsFor(n);
  const std::size_t seedBlockBits = params_.gsHash.seedBits() + params_.ell;
  const std::size_t innerBits = params_.gsHash.innerValueBits();
  const std::size_t checkBits = params_.checkFamily.seedBits();

  RunResult result;
  result.transcript = net::Transcript(n);
  net::Transcript& transcript = result.transcript;

  transcript.beginRound("A1: GS seeds + targets");
  std::vector<std::vector<GniChallenge>> challenges(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::Rng nodeRng = rng.split(v);
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
    net::auditCharge(
        "GniGeneral/A1", v, transcript.roundBitsToProver(v),
        wire::encodeGniChallenges(challenges[v], params_.gsHash, params_.ell)
            .bitCount());
  }
#endif

  transcript.beginRound("M1: echo + (sigma, alpha) commitments");
  GniGenFirstMessage first = prover.firstMessage(instance, challenges);
  if (first.perNode.size() != n) throw std::runtime_error("malformed general GNI M1");
  transcript.chargeBroadcastFromProver(idBits + k * seedBlockBits + 2 * k);
  for (graph::Vertex v = 0; v < n; ++v) {
    std::size_t claimBits = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (first.perNode[v].claimed[j] && first.perNode[v].b[j] == 1) {
        claimBits += (first.perNode[v].sClaims[j].size() +
                      first.perNode[v].aClaims[j].size()) *
                     idBits;
      }
    }
    transcript.chargeFromProver(v, 2 * idBits + 2 * k * idBits + claimBits);
  }
#if DIP_AUDIT
  net::auditChargedRound("GniGeneral/M1", transcript, [&] {
    return wire::encodeGniGenFirst(first, instance, params_);
  });
#endif

  transcript.beginRound("A2: check indices");
  std::vector<util::BigUInt> checkChallenges;
  for (graph::Vertex v = 0; v < n; ++v) {
    util::Rng nodeRng = rng.split(0x20000u + v);
    checkChallenges.push_back(params_.checkFamily.randomIndex(nodeRng));
    transcript.chargeToProver(v, checkBits);
  }
#if DIP_AUDIT
  net::roundArena().reset();
  for (graph::Vertex v = 0; v < n; ++v) {
    net::auditCharge("GniGeneral/A2", v, transcript.roundBitsToProver(v),
                     wire::encodeChallenge(checkChallenges[v], params_.checkFamily,
                                           &net::roundArena())
                         .bitCount());
  }
#endif

  transcript.beginRound("M2: check echo + chains");
  GniGenSecondMessage second =
      prover.secondMessage(instance, challenges, first, checkChallenges);
  if (second.perNode.size() != n) throw std::runtime_error("malformed general GNI M2");
  transcript.chargeBroadcastFromProver(checkBits);
  for (graph::Vertex v = 0; v < n; ++v) {
    std::size_t bits = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (!first.perNode[v].claimed[j]) continue;
      bits += innerBits + 5 * checkBits;  // h + identity/permS/permA/autL/autR.
      if (first.perNode[v].b[j] == 1) bits += 4 * checkBits;
    }
    transcript.chargeFromProver(v, bits);
  }
#if DIP_AUDIT
  net::auditChargedRound("GniGeneral/M2", transcript, [&] {
    return wire::encodeGniGenSecond(second, first, instance, params_);
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

AcceptanceStats GniGeneralProtocol::estimatePerRoundHit(const GniInstance& instance,
                                                        std::size_t trials,
                                                        util::Rng& rng) const {
  auto aut0 = graph::allAutomorphisms(instance.g0);
  auto aut1 = graph::allAutomorphisms(instance.g1);
  AcceptanceStats stats;
  stats.trials = trials;
  for (std::size_t t = 0; t < trials; ++t) {
    if (perRoundHitOnce(instance, aut0, aut1, rng)) ++stats.accepts;
  }
  return stats;
}

bool GniGeneralProtocol::perRoundHitOnce(const GniInstance& instance,
                                         const std::vector<graph::Permutation>& aut0,
                                         const std::vector<graph::Permutation>& aut1,
                                         util::Rng& rng) const {
  GniChallenge target;
  target.seed = params_.gsHash.randomSeed(rng);
  target.y = rng.nextBigBits(params_.ell);
  return searchGsPreimages(instance, params_.gsHash, std::span(&target, 1), aut0, aut1)
      .front()
      .has_value();
}

CostBreakdown GniGeneralProtocol::costModel(std::size_t n, std::size_t repetitions) {
  const unsigned idBits = util::bitsFor(n);
  double log2Fact = 0.0;
  for (std::size_t i = 2; i <= n; ++i) log2Fact += std::log2(static_cast<double>(i));
  const std::size_t ell = static_cast<std::size_t>(log2Fact) + 3;
  const std::size_t fieldBits = ell + 2 * util::bitsFor(2 * n) + 8;
  const std::size_t seedBlockBits = 3 * fieldBits + ell;
  const std::size_t checkBits = 3 * util::bitsFor(n) + 24;
  const std::size_t k = repetitions;

  CostBreakdown cost;
  cost.bitsToProverPerNode = k * seedBlockBits + checkBits;
  cost.bitsFromProverPerNode = idBits + k * seedBlockBits + 2 * k  // M1 broadcast.
                               + 2 * idBits + 2 * k * idBits       // Tree + s + a.
                               + 2 * k * n * idBits                // Claims (worst case).
                               + checkBits                         // M2 broadcast.
                               + k * (fieldBits + 9 * checkBits);  // Chains.
  return cost;
}

// ---- Honest prover ----

HonestGniGeneralProver::HonestGniGeneralProver(const GniGeneralParams& params)
    : params_(params) {}

GniGenFirstMessage HonestGniGeneralProver::firstMessage(
    const GniInstance& instance,
    const std::vector<std::vector<GniChallenge>>& challenges) {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const std::vector<GniChallenge>& rootChallenges = challenges[0];
  auto aut0 = graph::allAutomorphisms(instance.g0);
  auto aut1 = graph::allAutomorphisms(instance.g1);

  lastFound_ = searchGsPreimages(instance, params_.gsHash, std::span(rootChallenges).first(k),
                                 aut0, aut1);
  std::vector<std::uint8_t> claimed(k, 0);
  for (std::size_t j = 0; j < k; ++j) claimed[j] = lastFound_[j].has_value() ? 1 : 0;

  net::SpanningTreeAdvice tree = net::buildBfsTree(instance.g0, 0);
  GniGenFirstMessage first;
  first.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    GniGenM1PerNode& m1 = first.perNode[v];
    m1.root = 0;
    m1.parent = tree.parent[v];
    m1.dist = tree.dist[v];
    m1.echo = rootChallenges;
    m1.claimed = claimed;
    m1.b.assign(k, 0);
    m1.s.assign(k, 0);
    m1.a.assign(k, 0);
    m1.sClaims.resize(k);
    m1.aClaims.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      if (!lastFound_[j]) continue;
      const GsPreimage& found = *lastFound_[j];
      m1.b[j] = found.b;
      m1.s[j] = found.sigma[v];
      m1.a[j] = found.alpha[found.sigma[v]];
      if (found.b == 1) {
        m1.sClaims[j].reserve(instance.g1.degree(v) + 1);
        m1.aClaims[j].reserve(instance.g1.degree(v) + 1);
        instance.g1.forEachClosedNeighbor(v, [&](graph::Vertex u) {
          m1.sClaims[j].push_back(found.sigma[u]);
          m1.aClaims[j].push_back(found.alpha[found.sigma[u]]);
        });
      }
    }
  }
  return first;
}

GniGenSecondMessage HonestGniGeneralProver::secondMessage(
    const GniInstance& instance, const std::vector<std::vector<GniChallenge>>& challenges,
    const GniGenFirstMessage& /*first*/, const std::vector<util::BigUInt>& checkChallenges) {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const util::BigUInt& bigP = params_.gsHash.fieldPrime();
  const util::BigUInt& checkP = params_.checkFamily.prime();
  const util::BigUInt& checkSeed = checkChallenges[0];
  const auto& cf = params_.checkFamily;
  net::SpanningTreeAdvice tree = net::buildBfsTree(instance.g0, 0);

  GniGenSecondMessage second;
  second.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    GniGenM2PerNode& m2 = second.perNode[v];
    m2.checkSeed = checkSeed;
    for (auto field : {&GniGenM2PerNode::h, &GniGenM2PerNode::identity,
                       &GniGenM2PerNode::permS, &GniGenM2PerNode::permA,
                       &GniGenM2PerNode::autL, &GniGenM2PerNode::autR,
                       &GniGenM2PerNode::consSC, &GniGenM2PerNode::consST,
                       &GniGenM2PerNode::consAC, &GniGenM2PerNode::consAT}) {
      (m2.*field).assign(k, util::BigUInt{});
    }
  }

  for (std::size_t j = 0; j < k; ++j) {
    if (!lastFound_[j]) continue;
    const GsPreimage& found = *lastFound_[j];
    const graph::Graph& gb = (found.b == 0) ? instance.g0 : instance.g1;
    const GniChallenge& challenge = challenges[0][j];

    std::vector<util::BigUInt> gsPieces(n), idPieces(n), permSPieces(n), permAPieces(n),
        autLPieces(n), autRPieces(n), consSCPieces(n), consSTPieces(n), consACPieces(n),
        consATPieces(n);
    std::vector<std::uint64_t> lIdx, rIdx;
    std::vector<util::DynBitset> lRows, rRows;
    const bool useBatch = hash::batchEnabled();
    thread_local hash::BatchLinearHashEvaluator batch;
    thread_local hash::BatchLinearHashEvaluator gsBatch;
    thread_local std::vector<std::uint64_t> gsIdx;
    thread_local std::vector<util::DynBitset> gsRows;
    thread_local std::vector<std::uint64_t> consRows;
    thread_local std::vector<std::uint64_t> consCols;
    std::vector<graph::Vertex> avList(n);
    if (useBatch) {
      lIdx.reserve(n);
      rIdx.reserve(n);
      lRows.reserve(n);
      rRows.reserve(n);
      gsIdx.clear();
      gsRows.clear();
      // checkSeed is pinned for the whole message and the GS seed for the
      // whole repetition: rows and entries on both families become table
      // lookups (the batch evaluators' rebind short-circuits across j for
      // the check family).
      batch.rebind(cf.prime(), cf.dimension(), checkSeed);
      gsBatch.rebind(params_.gsHash.inner(), challenge.seed.a);
    }
    const std::size_t width = 2 * n;
    for (graph::Vertex v = 0; v < n; ++v) {
      graph::Vertex sv = found.sigma[v];
      graph::Vertex av = found.alpha[sv];
      avList[v] = av;
      util::DynBitset hRow = graph::Graph::imageOf(gb.closedRow(v), found.sigma);
      util::DynBitset alphaHRow = graph::Graph::imageOf(hRow, found.alpha);

      if (useBatch) {
        gsIdx.push_back(sv);
        gsRows.push_back(padRow(hRow, width));
        idPieces[v] = batch.hashMatrixEntry(v, v, 1, n);
        permSPieces[v] = batch.hashMatrixEntry(sv, sv, 1, n);
        permAPieces[v] = batch.hashMatrixEntry(av, av, 1, n);
        // The 2n automorphism-check row hashes all share checkSeed: defer
        // them into two batch calls over one set of power tables.
        lIdx.push_back(sv);
        lRows.push_back(std::move(hRow));
        rIdx.push_back(av);
        rRows.push_back(std::move(alphaHRow));
      } else {
        gsPieces[v] = gsPairPiece(params_.gsHash, n, challenge.seed, sv, av, hRow);
        idPieces[v] = cf.hashMatrixEntry(checkSeed, v, v, 1, n);
        permSPieces[v] = cf.hashMatrixEntry(checkSeed, sv, sv, 1, n);
        permAPieces[v] = cf.hashMatrixEntry(checkSeed, av, av, 1, n);
        autLPieces[v] = cf.hashMatrixRow(checkSeed, sv, hRow, n);
        autRPieces[v] = cf.hashMatrixRow(checkSeed, av, alphaHRow, n);
      }
      if (found.b == 1) {
        const std::size_t closedCount = instance.g1.degree(v) + 1;
        if (useBatch) {
          consRows.clear();
          consCols.clear();
          instance.g1.forEachClosedNeighbor(v, [&](graph::Vertex u) {
            consRows.push_back(u);
            consCols.push_back(found.sigma[u]);
          });
          consSCPieces[v] = batch.accumulateMatrixEntries(consRows, consCols, n);
          consCols.clear();
          instance.g1.forEachClosedNeighbor(v, [&](graph::Vertex u) {
            consCols.push_back(found.alpha[found.sigma[u]]);
          });
          consACPieces[v] = batch.accumulateMatrixEntries(consRows, consCols, n);
          consSTPieces[v] = batch.hashMatrixEntry(v, sv, closedCount, n);
          consATPieces[v] = batch.hashMatrixEntry(v, av, closedCount, n);
        } else {
          util::BigUInt accS, accA;
          instance.g1.forEachClosedNeighbor(v, [&](graph::Vertex u) {
            accS = util::addMod(
                accS, cf.hashMatrixEntry(checkSeed, u, found.sigma[u], 1, n), checkP);
            accA = util::addMod(
                accA, cf.hashMatrixEntry(checkSeed, u, found.alpha[found.sigma[u]], 1, n),
                checkP);
          });
          consSCPieces[v] = accS;
          consACPieces[v] = accA;
          consSTPieces[v] = cf.hashMatrixEntry(checkSeed, v, sv, closedCount, n);
          consATPieces[v] = cf.hashMatrixEntry(checkSeed, v, av, closedCount, n);
        }
      }
    }
    if (useBatch) {
      // gsPairPiece(sv, av, hRow) = innerRow(sv, pad(hRow)) +
      // innerRow(n + sv, one-hot av) — the one-hot row is a single matrix
      // entry of the 2n x 2n inner hash.
      gsBatch.hashMatrixRows(gsIdx, gsRows, width, gsPieces);
      for (graph::Vertex v = 0; v < n; ++v) {
        gsPieces[v] = params_.gsHash.combine(
            gsPieces[v],
            gsBatch.hashMatrixEntry(n + gsIdx[v], avList[v], 1, width));
      }
      batch.hashMatrixRows(lIdx, lRows, n, autLPieces);
      batch.hashMatrixRows(rIdx, rRows, n, autRPieces);
    }

    auto assign = [&](std::vector<util::BigUInt> GniGenM2PerNode::* field,
                      const std::vector<util::BigUInt>& pieces, const util::BigUInt& prime) {
      auto sums = subtreeSums(instance.g0, tree, pieces, prime);
      for (graph::Vertex v = 0; v < n; ++v) (second.perNode[v].*field)[j] = sums[v];
    };
    assign(&GniGenM2PerNode::h, gsPieces, bigP);
    assign(&GniGenM2PerNode::identity, idPieces, checkP);
    assign(&GniGenM2PerNode::permS, permSPieces, checkP);
    assign(&GniGenM2PerNode::permA, permAPieces, checkP);
    assign(&GniGenM2PerNode::autL, autLPieces, checkP);
    assign(&GniGenM2PerNode::autR, autRPieces, checkP);
    if (found.b == 1) {
      assign(&GniGenM2PerNode::consSC, consSCPieces, checkP);
      assign(&GniGenM2PerNode::consST, consSTPieces, checkP);
      assign(&GniGenM2PerNode::consAC, consACPieces, checkP);
      assign(&GniGenM2PerNode::consAT, consATPieces, checkP);
    }
  }
  return second;
}

// ---- Instance generators ----

GniInstance gniGeneralYesInstance(std::size_t n, util::Rng& rng) {
  // A symmetric g0 (the case the basic protocol cannot count) against a
  // rigid, non-isomorphic g1.
  graph::Graph g0 = graph::randomSymmetricConnected(n, rng);
  graph::Graph g1 = graph::randomRigidConnected(n, rng);
  // Different automorphism counts already guarantee non-isomorphism.
  return GniInstance{std::move(g0), std::move(g1)};
}

GniInstance gniGeneralNoInstance(std::size_t n, util::Rng& rng) {
  graph::Graph g0 = graph::randomSymmetricConnected(n, rng);
  graph::Graph g1 = graph::randomIsomorphicCopy(g0, rng);
  return GniInstance{std::move(g0), std::move(g1)};
}

}  // namespace dip::core
