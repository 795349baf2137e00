#include "core/gni_amam.hpp"

#include <cmath>
#include <stdexcept>

#include "core/chain_util.hpp"
#include "core/gni_search.hpp"
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

std::vector<graph::Vertex> sortedClosed1(const GniInstance& instance, graph::Vertex v) {
  return instance.g1.closedNeighbors(v);
}

}  // namespace

GniInstance gniYesInstance(std::size_t n, util::Rng& rng) {
  GniInstance instance{graph::randomRigidConnected(n, rng),
                       graph::randomRigidConnected(n, rng)};
  while (graph::areIsomorphic(instance.g0, instance.g1)) {
    instance.g1 = graph::randomRigidConnected(n, rng);
  }
  return instance;
}

GniInstance gniNoInstance(std::size_t n, util::Rng& rng) {
  graph::Graph g0 = graph::randomRigidConnected(n, rng);
  graph::Graph g1 = graph::randomIsomorphicCopy(g0, rng);
  return GniInstance{std::move(g0), std::move(g1)};
}

GniParams GniParams::choose(std::size_t n, util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("GniParams: n < 2");
  GniParams params;
  params.n = n;
  util::BigUInt nFactorial = util::factorial(n);
  // 2^ell in [4 n!, 8 n!).
  params.ell = nFactorial.bitLength() + 2;
  params.gsHash = hash::EpsApiHash::create(n, params.ell, rng);

  // Commitment-check family: dimension n^2, prime with enough headroom that
  // k repetitions x 3 checks still leave negligible collision probability.
  std::size_t checkBits = 3 * util::bitsFor(n) + 24;
  params.checkFamily = hash::LinearHashFamily(
      util::findPrimeWithBits(checkBits, rng), static_cast<std::uint64_t>(n) * n);

  // Per-round acceptance bounds (DESIGN.md 4.5). q = n!/2^ell in (1/8, 1/4].
  const double q = std::exp2(nFactorial.log2() - static_cast<double>(params.ell));
  const double fs = std::exp2(static_cast<double>(params.ell) -
                              params.gsHash.fieldPrime().log2());
  const double m = static_cast<double>(n) * static_cast<double>(n);
  // 2^ell * Pr[H(x) = H(x')] <= 2^ell (m+1)/P + (1 + 3 fs).
  const double pairFactor = (m + 1.0) * fs + 1.0 + 3.0 * fs;
  params.perRoundYesLb = 2.0 * q - 2.0 * q * q * pairFactor;
  params.perRoundNoUb = q + 3.0 * m / params.checkFamily.prime().toDouble() + 1e-9;

  // Smallest k whose threshold test separates 2/3 from 1/3 (with margin).
  for (std::size_t k = 16; k <= 16384; k *= 2) {
    std::size_t tau = static_cast<std::size_t>(
        static_cast<double>(k) * (params.perRoundYesLb + params.perRoundNoUb) / 2.0);
    if (tau == 0) tau = 1;
    double yesTail = util::binomialTailGE(k, params.perRoundYesLb, tau);
    double noTail = util::binomialTailGE(k, params.perRoundNoUb, tau);
    if (yesTail > 0.70 && noTail < 0.30) {
      params.repetitions = k;
      params.threshold = tau;
      break;
    }
  }
  if (params.repetitions == 0) {
    throw std::runtime_error("GniParams: amplification search failed");
  }
  return params;
}

GniAmamProtocol::GniAmamProtocol(GniParams params) : params_(std::move(params)) {}

bool GniAmamProtocol::nodeDecision(const GniInstance& instance, graph::Vertex v,
                                   const GniFirstMessage& first,
                                   const GniSecondMessage& second,
                                   const std::vector<GniChallenge>& ownChallenges,
                                   const util::BigUInt& ownCheckChallenge) const {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const util::BigUInt& bigP = params_.gsHash.fieldPrime();
  const util::BigUInt& checkP = params_.checkFamily.prime();
  const util::BigUInt yBound = util::BigUInt{1} << params_.ell;
  const GniM1PerNode& m1 = first.perNode[v];
  const GniM2PerNode& m2 = second.perNode[v];

  // Shape checks.
  if (m1.echo.size() != k || m1.claimed.size() != k || m1.b.size() != k ||
      m1.s.size() != k || m1.claims.size() != k) {
    return false;
  }
  if (m2.h.size() != k || m2.permI.size() != k || m2.permS.size() != k ||
      m2.consC.size() != k || m2.consT.size() != k) {
    return false;
  }
  // The protocol fixes the tree root at node 0.
  if (m1.root != 0) return false;

  // Broadcast consistency against the G0 neighbors.
  bool consistent = true;
  instance.g0.row(v).forEachSet([&](std::size_t u) {
    const GniM1PerNode& other = first.perNode[u];
    if (other.root != m1.root || other.echo != m1.echo || other.claimed != m1.claimed ||
        other.b != m1.b || !(second.perNode[u].checkSeed == m2.checkSeed)) {
      consistent = false;
    }
  });
  if (!consistent) return false;
  if (m2.checkSeed >= checkP) return false;

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

  const std::vector<graph::Vertex> closed1 = sortedClosed1(instance, v);

  // checkSeed is pinned for every repetition of this decision (and, under
  // the honest uniform broadcast, across all nodes of the trial), so the
  // check-family pieces batch into table lookups. The GS piece stays on the
  // scalar evaluator: its seed changes every repetition, so shared tables
  // would rebuild per call.
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

    // Seed and value domain checks.
    const GniChallenge& challenge = m1.echo[j];
    if (challenge.seed.a >= bigP || challenge.seed.alpha >= bigP ||
        challenge.seed.beta >= bigP || challenge.y >= yBound) {
      return false;
    }
    if (m2.h[j] >= bigP || m2.permI[j] >= checkP || m2.permS[j] >= checkP) return false;

    // Own commitment in range.
    graph::Vertex sv = m1.s[j];
    if (sv >= n) return false;

    // Assemble the row of sigma(G_b) this node vouches for.
    util::DynBitset image(n);
    if (m1.b[j] == 0) {
      bool ok = true;
      util::DynBitset closed0 = instance.g0.closedRow(v);
      closed0.forEachSet([&](std::size_t u) {
        graph::Vertex su = first.perNode[u].s[j];
        if (su >= n) {
          ok = false;
        } else {
          image.set(su);
        }
      });
      if (!ok) return false;
    } else {
      const std::vector<graph::Vertex>& claims = m1.claims[j];
      if (claims.size() != closed1.size()) return false;
      for (std::size_t i = 0; i < closed1.size(); ++i) {
        if (claims[i] >= n) return false;
        if (closed1[i] == v && claims[i] != sv) return false;  // Self-claim check.
        image.set(claims[i]);
      }
    }

    // Chain checks. Each expected value is own piece + children's sums.
    auto chainOk = [&](const util::BigUInt& piece,
                       const std::vector<util::BigUInt> GniM2PerNode::* field,
                       const util::BigUInt& prime) {
      util::BigUInt expect = piece;
      for (graph::Vertex child : children) {
        const util::BigUInt& childVal = (second.perNode[child].*field)[j];
        if (childVal >= prime) return false;
        expect = util::addMod(expect, childVal, prime);
      }
      return (m2.*field)[j] == expect;
    };

    // (i) Goldwasser-Sipser inner hash of sigma(G_b).
    util::BigUInt gsPiece = params_.gsHash.innerRow(challenge.seed, sv, image);
    if (!chainOk(gsPiece, &GniM2PerNode::h, bigP)) return false;

    // (ii) Permutation check: identity side vs sigma side.
    util::BigUInt permIPiece =
        useBatch ? checkBatch.hashMatrixEntry(v, v, 1, n)
                 : params_.checkFamily.hashMatrixEntry(m2.checkSeed, v, v, 1, n);
    util::BigUInt permSPiece =
        useBatch ? checkBatch.hashMatrixEntry(sv, sv, 1, n)
                 : params_.checkFamily.hashMatrixEntry(m2.checkSeed, sv, sv, 1, n);
    if (!chainOk(permIPiece, &GniM2PerNode::permI, checkP)) return false;
    if (!chainOk(permSPiece, &GniM2PerNode::permS, checkP)) return false;

    // (iii) Claimed-image consistency (b = 1 only).
    if (m1.b[j] == 1) {
      if (m2.consC[j] >= checkP || m2.consT[j] >= checkP) return false;
      util::BigUInt consCPiece;
      if (useBatch) {
        consRows.clear();
        consCols.clear();
        for (std::size_t i = 0; i < closed1.size(); ++i) {
          consRows.push_back(closed1[i]);
          consCols.push_back(m1.claims[j][i]);
        }
        consCPiece = checkBatch.accumulateMatrixEntries(consRows, consCols, n);
      } else {
        for (std::size_t i = 0; i < closed1.size(); ++i) {
          consCPiece = util::addMod(
              consCPiece,
              params_.checkFamily.hashMatrixEntry(m2.checkSeed, closed1[i],
                                                  m1.claims[j][i], 1, n),
              checkP);
        }
      }
      util::BigUInt consTPiece =
          useBatch
              ? checkBatch.hashMatrixEntry(v, sv,
                                           static_cast<std::uint64_t>(closed1.size()), n)
              : params_.checkFamily.hashMatrixEntry(
                    m2.checkSeed, v, sv, static_cast<std::uint64_t>(closed1.size()), n);
      if (!chainOk(consCPiece, &GniM2PerNode::consC, checkP)) return false;
      if (!chainOk(consTPiece, &GniM2PerNode::consT, checkP)) return false;
    }

    // Root-only equality and echo checks.
    if (v == 0) {
      if (!(params_.gsHash.outer(challenge.seed, m2.h[j]) == challenge.y)) return false;
      if (!(m2.permI[j] == m2.permS[j])) return false;
      if (m1.b[j] == 1 && !(m2.consC[j] == m2.consT[j])) return false;
      if (!(challenge == ownChallenges[j])) return false;
    }
  }

  if (v == 0 && !(m2.checkSeed == ownCheckChallenge)) return false;
  return claimedCount >= params_.threshold;
}

RunResult GniAmamProtocol::run(const GniInstance& instance, GniProver& prover,
                               util::Rng& rng) const {
  const std::size_t n = instance.g0.numVertices();
  if (n != params_.n) throw std::invalid_argument("GniAmamProtocol: size mismatch");
  if (instance.g1.numVertices() != n) {
    throw std::invalid_argument("GniAmamProtocol: g1 size mismatch");
  }
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
    net::auditCharge("GniAmam/A1", v, transcript.roundBitsToProver(v),
                     wire::encodeGniChallenges(challenges[v], params_).bitCount());
  }
#endif

  // M1: commitments.
  transcript.beginRound("M1: echo + sigma commitments");
  GniFirstMessage first = prover.firstMessage(instance, challenges);
  if (first.perNode.size() != n) throw std::runtime_error("GniProver: malformed M1");
  transcript.chargeBroadcastFromProver(idBits               // Root.
                                       + k * seedBlockBits  // Echo.
                                       + 2 * k);            // claimed + b bits.
  for (graph::Vertex v = 0; v < n; ++v) {
    std::size_t claimBits = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (first.perNode[v].claimed[j] && first.perNode[v].b[j] == 1) {
        claimBits += first.perNode[v].claims[j].size() * idBits;
      }
    }
    transcript.chargeFromProver(v, 2 * idBits       // t_v, d_v.
                                       + k * idBits  // s values.
                                       + claimBits);
  }
#if DIP_AUDIT
  net::auditChargedRound("GniAmam/M1", transcript, [&] {
    return wire::encodeGniFirst(first, instance, params_);
  });
#endif

  // A2: fresh commitment-check indices.
  transcript.beginRound("A2: check indices");
  std::vector<util::BigUInt> checkChallenges;
  checkChallenges.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    util::Rng nodeRng = rng.split(0x10000u + v);
    checkChallenges.push_back(params_.checkFamily.randomIndex(nodeRng));
    transcript.chargeToProver(v, checkBits);
  }
#if DIP_AUDIT
  net::roundArena().reset();
  for (graph::Vertex v = 0; v < n; ++v) {
    net::auditCharge("GniAmam/A2", v, transcript.roundBitsToProver(v),
                     wire::encodeChallenge(checkChallenges[v], params_.checkFamily,
                                           &net::roundArena())
                         .bitCount());
  }
#endif

  // M2: chain values.
  transcript.beginRound("M2: check echo + chains");
  GniSecondMessage second =
      prover.secondMessage(instance, challenges, first, checkChallenges);
  if (second.perNode.size() != n) throw std::runtime_error("GniProver: malformed M2");
  transcript.chargeBroadcastFromProver(checkBits);
  for (graph::Vertex v = 0; v < n; ++v) {
    std::size_t bits = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (!first.perNode[v].claimed[j]) continue;
      bits += innerBits + 2 * checkBits;
      if (first.perNode[v].b[j] == 1) bits += 2 * checkBits;
    }
    transcript.chargeFromProver(v, bits);
  }
#if DIP_AUDIT
  net::auditChargedRound("GniAmam/M2", transcript, [&] {
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

AcceptanceStats GniAmamProtocol::estimatePerRoundHit(const GniInstance& instance,
                                                     std::size_t trials,
                                                     util::Rng& rng) const {
  AcceptanceStats stats;
  stats.trials = trials;
  for (std::size_t t = 0; t < trials; ++t) {
    if (perRoundHitOnce(instance, rng)) ++stats.accepts;
  }
  return stats;
}

bool GniAmamProtocol::perRoundHitOnce(const GniInstance& instance, util::Rng& rng) const {
  GniChallenge target;
  target.seed = params_.gsHash.randomSeed(rng);
  target.y = rng.nextBigBits(params_.ell);
  return searchGsPreimages(instance, params_.gsHash, std::span(&target, 1)).front().has_value();
}

CostBreakdown GniAmamProtocol::costModel(std::size_t n, std::size_t repetitions) {
  const unsigned idBits = util::bitsFor(n);
  // ell ~ log2(n!) + 3; field prime ~ ell + 2 log2 n + 8 bits (create()).
  double log2Fact = 0.0;
  for (std::size_t i = 2; i <= n; ++i) log2Fact += std::log2(static_cast<double>(i));
  const std::size_t ell = static_cast<std::size_t>(log2Fact) + 3;
  const std::size_t fieldBits = ell + 2 * util::bitsFor(n) + 8;
  const std::size_t seedBlockBits = 3 * fieldBits + ell;
  const std::size_t checkBits = 3 * util::bitsFor(n) + 24;
  const std::size_t k = repetitions;

  CostBreakdown cost;
  cost.bitsToProverPerNode = k * seedBlockBits + checkBits;  // A1 + A2.
  cost.bitsFromProverPerNode = idBits + k * seedBlockBits + 2 * k  // M1 broadcast.
                               + 2 * idBits + k * idBits           // Tree + s.
                               + k * n * idBits                    // Claims (worst case).
                               + checkBits                         // M2 broadcast.
                               + k * (fieldBits + 4 * checkBits);  // Chains.
  return cost;
}

// ---- Honest prover ----

HonestGniProver::HonestGniProver(const GniParams& params) : params_(params) {}

GniFirstMessage HonestGniProver::firstMessage(
    const GniInstance& instance,
    const std::vector<std::vector<GniChallenge>>& challenges) {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const std::vector<GniChallenge>& rootChallenges = challenges[0];

  lastClaims_.assign(k, 0);
  lastFound_.assign(k, std::nullopt);
  GsSearchResult hits =
      searchGsPreimages(instance, params_.gsHash, std::span(rootChallenges).first(k));
  for (std::size_t j = 0; j < k; ++j) {
    if (hits[j]) {
      lastClaims_[j] = 1;
      lastFound_[j] = Found{std::move(hits[j]->sigma), hits[j]->b};
    }
  }

  net::SpanningTreeAdvice tree = net::buildBfsTree(instance.g0, 0);
  GniFirstMessage first;
  first.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    GniM1PerNode& m1 = first.perNode[v];
    m1.root = 0;
    m1.parent = tree.parent[v];
    m1.dist = tree.dist[v];
    m1.echo = rootChallenges;
    m1.claimed = lastClaims_;
    m1.b.assign(k, 0);
    m1.s.assign(k, 0);
    m1.claims.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      if (!lastFound_[j]) continue;
      const Found& found = *lastFound_[j];
      m1.b[j] = found.b;
      m1.s[j] = found.sigma[v];
      if (found.b == 1) {
        m1.claims[j].reserve(instance.g1.degree(v) + 1);
        instance.g1.forEachClosedNeighbor(
            v, [&](graph::Vertex u) { m1.claims[j].push_back(found.sigma[u]); });
      }
    }
  }
  return first;
}

GniSecondMessage HonestGniProver::secondMessage(
    const GniInstance& instance, const std::vector<std::vector<GniChallenge>>& challenges,
    const GniFirstMessage& /*first*/, const std::vector<util::BigUInt>& checkChallenges) {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const util::BigUInt& bigP = params_.gsHash.fieldPrime();
  const util::BigUInt& checkP = params_.checkFamily.prime();
  const util::BigUInt& checkSeed = checkChallenges[0];
  net::SpanningTreeAdvice tree = net::buildBfsTree(instance.g0, 0);

  GniSecondMessage second;
  second.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    GniM2PerNode& m2 = second.perNode[v];
    m2.checkSeed = checkSeed;
    m2.h.assign(k, util::BigUInt{});
    m2.permI.assign(k, util::BigUInt{});
    m2.permS.assign(k, util::BigUInt{});
    m2.consC.assign(k, util::BigUInt{});
    m2.consT.assign(k, util::BigUInt{});
  }

  for (std::size_t j = 0; j < k; ++j) {
    if (!lastFound_[j]) continue;
    const Found& found = *lastFound_[j];
    const graph::Graph& gb = (found.b == 0) ? instance.g0 : instance.g1;
    const GniChallenge& challenge = challenges[0][j];

    std::vector<util::BigUInt> gsPieces(n), permIPieces(n), permSPieces(n);
    std::vector<util::BigUInt> consCPieces(n), consTPieces(n);
    const bool useBatch = hash::batchEnabled();
    hash::EpsApiHash::RowHasher rowHasher(params_.gsHash, challenge.seed);
    thread_local hash::BatchLinearHashEvaluator gsBatch;
    thread_local hash::BatchLinearHashEvaluator checkBatch;
    thread_local std::vector<std::uint64_t> gsIdx;
    thread_local std::vector<util::DynBitset> gsRows;
    thread_local std::vector<std::uint64_t> consRows;
    thread_local std::vector<std::uint64_t> consCols;
    if (useBatch) {
      // The GS seed is pinned for the whole repetition and checkSeed for the
      // whole message: all row and entry hashes become table lookups.
      gsBatch.rebind(params_.gsHash.inner(), challenge.seed.a);
      checkBatch.rebind(params_.checkFamily, checkSeed);
      gsIdx.clear();
      gsRows.clear();
    }
    for (graph::Vertex v = 0; v < n; ++v) {
      util::DynBitset image = graph::Graph::imageOf(gb.closedRow(v), found.sigma);
      if (useBatch) {
        gsIdx.push_back(found.sigma[v]);
        gsRows.push_back(std::move(image));
        permIPieces[v] = checkBatch.hashMatrixEntry(v, v, 1, n);
        permSPieces[v] =
            checkBatch.hashMatrixEntry(found.sigma[v], found.sigma[v], 1, n);
      } else {
        gsPieces[v] = rowHasher.innerRow(found.sigma[v], image);
        permIPieces[v] = params_.checkFamily.hashMatrixEntry(checkSeed, v, v, 1, n);
        permSPieces[v] = params_.checkFamily.hashMatrixEntry(checkSeed, found.sigma[v],
                                                             found.sigma[v], 1, n);
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
          consCPieces[v] = checkBatch.accumulateMatrixEntries(consRows, consCols, n);
          consTPieces[v] = checkBatch.hashMatrixEntry(v, found.sigma[v],
                                                      closedCount, n);
        } else {
          util::BigUInt acc;
          instance.g1.forEachClosedNeighbor(v, [&](graph::Vertex u) {
            acc = util::addMod(acc,
                               params_.checkFamily.hashMatrixEntry(
                                   checkSeed, u, found.sigma[u], 1, n),
                               checkP);
          });
          consCPieces[v] = acc;
          consTPieces[v] = params_.checkFamily.hashMatrixEntry(
              checkSeed, v, found.sigma[v], closedCount, n);
        }
      }
    }
    if (useBatch) {
      gsBatch.hashMatrixRows(gsIdx, gsRows, n, gsPieces);
    }

    auto gsSums = subtreeSums(instance.g0, tree, gsPieces, bigP);
    auto permISums = subtreeSums(instance.g0, tree, permIPieces, checkP);
    auto permSSums = subtreeSums(instance.g0, tree, permSPieces, checkP);
    std::vector<util::BigUInt> consCSums, consTSums;
    if (found.b == 1) {
      consCSums = subtreeSums(instance.g0, tree, consCPieces, checkP);
      consTSums = subtreeSums(instance.g0, tree, consTPieces, checkP);
    }
    for (graph::Vertex v = 0; v < n; ++v) {
      second.perNode[v].h[j] = gsSums[v];
      second.perNode[v].permI[j] = permISums[v];
      second.perNode[v].permS[j] = permSSums[v];
      if (found.b == 1) {
        second.perNode[v].consC[j] = consCSums[v];
        second.perNode[v].consT[j] = consTSums[v];
      }
    }
  }
  return second;
}

// ---- Non-permutation adversary ----

NonPermutationGniProver::NonPermutationGniProver(const GniParams& params,
                                                 std::uint64_t seed)
    : params_(params), rng_(seed) {}

GniFirstMessage NonPermutationGniProver::firstMessage(
    const GniInstance& instance,
    const std::vector<std::vector<GniChallenge>>& challenges) {
  // Claim every repetition with a random NON-permutation mapping; the
  // permutation check must catch this (up to hash collision).
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  net::SpanningTreeAdvice tree = net::buildBfsTree(instance.g0, 0);

  std::vector<std::vector<graph::Vertex>> sigmas(k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<graph::Vertex>& sigma = sigmas[j];
    sigma.resize(n);
    for (auto& value : sigma) value = static_cast<graph::Vertex>(rng_.nextBelow(n));
    sigma[0] = sigma[n - 1];  // Force a collision: definitely not injective.
  }

  GniFirstMessage first;
  first.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    GniM1PerNode& m1 = first.perNode[v];
    m1.root = 0;
    m1.parent = tree.parent[v];
    m1.dist = tree.dist[v];
    m1.echo = challenges[0];
    m1.claimed.assign(k, 1);
    m1.b.assign(k, 0);
    m1.s.assign(k, 0);
    m1.claims.resize(k);
    for (std::size_t j = 0; j < k; ++j) m1.s[j] = sigmas[j][v];
  }
  return first;
}

GniSecondMessage NonPermutationGniProver::secondMessage(
    const GniInstance& instance, const std::vector<std::vector<GniChallenge>>& challenges,
    const GniFirstMessage& first, const std::vector<util::BigUInt>& checkChallenges) {
  // Build fully consistent chains for the committed mappings; only the
  // root's permI == permS equality can fail (and must, w.h.p.).
  const std::size_t n = instance.g0.numVertices();
  const std::size_t k = params_.repetitions;
  const util::BigUInt& bigP = params_.gsHash.fieldPrime();
  const util::BigUInt& checkP = params_.checkFamily.prime();
  const util::BigUInt& checkSeed = checkChallenges[0];
  net::SpanningTreeAdvice tree = net::buildBfsTree(instance.g0, 0);

  GniSecondMessage second;
  second.perNode.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    GniM2PerNode& m2 = second.perNode[v];
    m2.checkSeed = checkSeed;
    m2.h.assign(k, util::BigUInt{});
    m2.permI.assign(k, util::BigUInt{});
    m2.permS.assign(k, util::BigUInt{});
    m2.consC.assign(k, util::BigUInt{});
    m2.consT.assign(k, util::BigUInt{});
  }

  for (std::size_t j = 0; j < k; ++j) {
    std::vector<graph::Vertex> sigma(n);
    for (graph::Vertex v = 0; v < n; ++v) sigma[v] = first.perNode[v].s[j];
    const GniChallenge& challenge = challenges[0][j];

    std::vector<util::BigUInt> gsPieces(n), permIPieces(n), permSPieces(n);
    hash::EpsApiHash::RowHasher rowHasher(params_.gsHash, challenge.seed);
    for (graph::Vertex v = 0; v < n; ++v) {
      // Mirror exactly what each node will recompute: the image of its
      // closed G0 row under the committed s values.
      util::DynBitset image(n);
      instance.g0.closedRow(v).forEachSet([&](std::size_t u) { image.set(sigma[u]); });
      gsPieces[v] = rowHasher.innerRow(sigma[v], image);
      permIPieces[v] = params_.checkFamily.hashMatrixEntry(checkSeed, v, v, 1, n);
      permSPieces[v] =
          params_.checkFamily.hashMatrixEntry(checkSeed, sigma[v], sigma[v], 1, n);
    }
    auto gsSums = subtreeSums(instance.g0, tree, gsPieces, bigP);
    auto permISums = subtreeSums(instance.g0, tree, permIPieces, checkP);
    auto permSSums = subtreeSums(instance.g0, tree, permSPieces, checkP);
    for (graph::Vertex v = 0; v < n; ++v) {
      second.perNode[v].h[j] = gsSums[v];
      second.perNode[v].permI[j] = permISums[v];
      second.perNode[v].permS[j] = permSSums[v];
    }
  }
  return second;
}

}  // namespace dip::core
