// Failure injection / adversarial fuzz: random structured corruption of
// protocol messages. Two invariants must survive ANY corruption:
//   (1) no crash — verification handles arbitrary field values gracefully;
//   (2) no soundness leak — corrupted messages on YES instances either
//       still verify (when the corruption misses every read field) or are
//       rejected; corrupted messages can never make a NO instance accepted
//       beyond the hash-collision budget.
// Each fuzz round draws from its own counter-based child stream (see
// fuzz_seed.hpp), so a failure reproduces from the printed seed line alone.
#include <gtest/gtest.h>

#include "core/dsym_dam.hpp"
#include "core/gni_amam.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "fuzz_seed.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using testutil::fuzzStream;
using testutil::seedLine;
using util::Rng;

// Applies one random structured mutation to a Protocol 1 message pair.
void mutateSymDmam(Rng& rng, std::size_t n, const hash::LinearHashFamily& family,
                   SymDmamFirstMessage& first, SymDmamSecondMessage& second) {
  graph::Vertex victim = static_cast<graph::Vertex>(rng.nextBelow(n));
  switch (rng.nextBelow(8)) {
    case 0:
      first.rootPerNode.set(victim, static_cast<graph::Vertex>(rng.nextBelow(2 * n)));
      break;
    case 1:
      first.rho[victim] = static_cast<graph::Vertex>(rng.nextBelow(2 * n));
      break;
    case 2:
      first.parent[victim] = static_cast<graph::Vertex>(rng.nextBelow(2 * n));
      break;
    case 3:
      first.dist[victim] = static_cast<std::uint32_t>(rng.nextBelow(2 * n));
      break;
    case 4:
      second.indexPerNode.set(victim, rng.nextBigBelow(family.prime()));
      break;
    case 5:
      second.a[victim] = rng.nextBigBelow(family.prime());
      break;
    case 6:
      second.b[victim] = rng.nextBigBelow(family.prime());
      break;
    case 7:
      // Out-of-field value: must be rejected by domain checks, not crash.
      second.a[victim] = family.prime() + util::BigUInt{rng.nextBelow(100)};
      break;
  }
}

TEST(Fuzz, SymDmamNeverCrashesAndCatchesCorruption) {
  constexpr std::uint64_t kSeed = 221;
  const std::size_t n = 10;
  Rng setup(222);
  SymDmamProtocol protocol(hash::makeProtocol1Family(n, setup));
  Rng graphRng(kSeed);
  graph::Graph g = graph::randomSymmetricConnected(n, graphRng);
  HonestSymDmamProver prover(protocol.family());

  std::size_t corruptedAccepts = 0;
  const std::uint64_t rounds = 300;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    SCOPED_TRACE(seedLine(kSeed, round));
    Rng rng = fuzzStream(kSeed, round);
    SymDmamFirstMessage first = prover.firstMessage(g);
    std::vector<util::BigUInt> challenges;
    for (graph::Vertex v = 0; v < n; ++v) {
      challenges.push_back(protocol.family().randomIndex(rng));
    }
    SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);

    int mutations = 1 + static_cast<int>(rng.nextBelow(3));
    for (int m = 0; m < mutations; ++m) {
      mutateSymDmam(rng, n, protocol.family(), first, second);
    }
    bool allAccept = true;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (!protocol.nodeDecision(g, v, first, challenges[v], second)) {
        allAccept = false;
        break;
      }
    }
    if (allAccept) ++corruptedAccepts;
  }
  // A mutation can hit a field nobody reads on this tree (e.g. the root's
  // parent pointer) or replace a value with itself; most corruptions must
  // be caught.
  EXPECT_LT(corruptedAccepts, static_cast<std::size_t>(rounds) / 4);
}

TEST(Fuzz, SymDamRejectsRandomGarbageMessages) {
  // Entirely random (well-shaped) messages on a rigid graph: acceptance
  // would require simultaneously forging tree, chains, and the root
  // equality — never happens.
  constexpr std::uint64_t kSeed = 223;
  const std::size_t n = 8;
  Rng setup(224);
  SymDamProtocol protocol(hash::makeProtocol1Family(n, setup));  // Short hash: hardest case.
  Rng graphRng(kSeed);
  graph::Graph g = graph::randomRigidConnected(n, graphRng);

  for (std::uint64_t round = 0; round < 200; ++round) {
    Rng rng = fuzzStream(kSeed, round);
    SymDamMessage msg;
    std::vector<graph::Vertex> rho(n);
    for (auto& x : rho) x = static_cast<graph::Vertex>(rng.nextBelow(n));
    msg.rhoPerNode.assign(n, rho);
    msg.indexPerNode.assign(n, rng.nextBigBelow(protocol.family().prime()));
    msg.rootPerNode.assign(n, static_cast<graph::Vertex>(rng.nextBelow(n)));
    msg.parent.resize(n);
    msg.dist.resize(n);
    msg.a.resize(n);
    msg.b.resize(n);
    for (graph::Vertex v = 0; v < n; ++v) {
      msg.parent[v] = static_cast<graph::Vertex>(rng.nextBelow(n));
      msg.dist[v] = static_cast<std::uint32_t>(rng.nextBelow(n));
      msg.a[v] = rng.nextBigBelow(protocol.family().prime());
      msg.b[v] = rng.nextBigBelow(protocol.family().prime());
    }
    util::BigUInt ownChallenge = protocol.family().randomIndex(rng);
    bool allAccept = true;
    for (graph::Vertex v = 0; v < n && allAccept; ++v) {
      allAccept = protocol.nodeDecision(g, v, msg, ownChallenge);
    }
    EXPECT_FALSE(allAccept) << seedLine(kSeed, round);
  }
}

TEST(Fuzz, DSymSurvivesArbitraryGraphInputs) {
  // Feed the DSym verifier graphs that are NOT DSym-shaped at all (wrong
  // sizes handled by run(); here: right size, random structure). No crash,
  // and the structural checks reject.
  constexpr std::uint64_t kSeed = 225;
  const std::size_t side = 5;
  graph::DSymLayout layout = graph::dsymLayout(side, 1);
  Rng setup(226);
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{layout.numVertices}, 3);
  DSymDamProtocol protocol(
      layout, hash::LinearHashFamily(
                  util::findPrimeInRange(util::BigUInt{10} * n3,
                                         util::BigUInt{100} * n3, setup),
                  static_cast<std::uint64_t>(layout.numVertices) * layout.numVertices));

  for (std::uint64_t round = 0; round < 20; ++round) {
    Rng rng = fuzzStream(kSeed, round);
    graph::Graph g = graph::randomConnected(layout.numVertices, layout.numVertices, rng);
    HonestDSymProver prover(layout, protocol.family());
    RunResult result = protocol.run(g, prover, rng);
    // Random connected graphs essentially never satisfy the rigid DSym
    // wiring; acceptance would need every structural check to pass.
    EXPECT_FALSE(result.accepted) << seedLine(kSeed, round);
  }
}

TEST(Fuzz, BigUIntMessageFieldsAtDomainBoundaries) {
  // Boundary values (0, p-1, p, p+1) in every chain slot: domain checks
  // must handle them without exceptions leaking through nodeDecision.
  constexpr std::uint64_t kSeed = 227;
  const std::size_t n = 8;
  Rng setup(228);
  SymDmamProtocol protocol(hash::makeProtocol1Family(n, setup));
  Rng rng = fuzzStream(kSeed, 0);
  graph::Graph g = graph::randomSymmetricConnected(n, rng);
  HonestSymDmamProver prover(protocol.family());

  SymDmamFirstMessage first = prover.firstMessage(g);
  std::vector<util::BigUInt> challenges;
  for (graph::Vertex v = 0; v < n; ++v) {
    challenges.push_back(protocol.family().randomIndex(rng));
  }
  SymDmamSecondMessage second = prover.secondMessage(g, first, challenges);

  const util::BigUInt& p = protocol.family().prime();
  for (const util::BigUInt& boundary :
       {util::BigUInt{}, p - util::BigUInt{1}, p, p + util::BigUInt{1}}) {
    SymDmamSecondMessage corrupted = second;
    corrupted.a[3] = boundary;
    for (graph::Vertex v = 0; v < n; ++v) {
      // Must not throw — just accept/reject.
      (void)protocol.nodeDecision(g, v, first, challenges[v], corrupted);
    }
  }
}

TEST(Fuzz, GniMessagesSurviveStructuredCorruption) {
  // Mutate an honest GNI interaction's messages in random slots; no crash,
  // and every all-nodes-accept outcome must trace back to a mutation that
  // hit an unclaimed repetition (whose fields nobody reads) or was a
  // self-replacement.
  constexpr std::uint64_t kSeed = 229;
  Rng rng(kSeed);
  Rng setup(230);
  GniParams params = GniParams::choose(6, setup);
  GniAmamProtocol protocol(params);
  GniInstance yes = gniYesInstance(6, rng);

  std::vector<std::vector<GniChallenge>> challenges(6);
  for (graph::Vertex v = 0; v < 6; ++v) {
    for (std::size_t j = 0; j < params.repetitions; ++j) {
      GniChallenge challenge;
      challenge.seed = params.gsHash.randomSeed(rng);
      challenge.y = rng.nextBigBits(params.ell);
      challenges[v].push_back(challenge);
    }
  }
  HonestGniProver prover(params);
  GniFirstMessage first = prover.firstMessage(yes, challenges);
  std::vector<util::BigUInt> checkChallenges;
  for (graph::Vertex v = 0; v < 6; ++v) {
    checkChallenges.push_back(params.checkFamily.randomIndex(rng));
  }
  GniSecondMessage second = prover.secondMessage(yes, challenges, first, checkChallenges);

  for (std::uint64_t round = 0; round < 60; ++round) {
    Rng stream = fuzzStream(kSeed, round);
    GniFirstMessage corruptedFirst = first;
    GniSecondMessage corruptedSecond = second;
    graph::Vertex victim = static_cast<graph::Vertex>(stream.nextBelow(6));
    std::size_t rep = stream.nextBelow(params.repetitions);
    bool hitClaimed = first.perNode[0].claimed[rep] != 0;
    switch (stream.nextBelow(5)) {
      case 0:
        corruptedFirst.perNode[victim].s[rep] =
            static_cast<graph::Vertex>(stream.nextBelow(6));
        break;
      case 1:
        corruptedFirst.perNode[victim].b[rep] ^= 1;
        break;
      case 2:
        corruptedSecond.perNode[victim].h[rep] =
            stream.nextBigBelow(params.gsHash.fieldPrime());
        break;
      case 3:
        corruptedSecond.perNode[victim].permS[rep] =
            stream.nextBigBelow(params.checkFamily.prime());
        break;
      case 4:
        corruptedFirst.perNode[victim].parent =
            static_cast<graph::Vertex>(stream.nextBelow(6));
        break;
    }
    bool allAccept = true;
    bool unchanged =
        corruptedFirst.perNode[victim].s == first.perNode[victim].s &&
        corruptedFirst.perNode[victim].b == first.perNode[victim].b &&
        corruptedFirst.perNode[victim].parent == first.perNode[victim].parent &&
        corruptedSecond.perNode[victim].h == second.perNode[victim].h &&
        corruptedSecond.perNode[victim].permS == second.perNode[victim].permS;
    for (graph::Vertex v = 0; v < 6; ++v) {
      if (!protocol.nodeDecision(yes, v, corruptedFirst, corruptedSecond, challenges[v],
                                 checkChallenges[v])) {
        allAccept = false;
        break;
      }
    }
    if (allAccept && hitClaimed && !unchanged) {
      // A read-field corruption of a claimed repetition slipped through:
      // only possible for the b-flip of a rep whose OTHER fields happen to
      // verify — flag anything else.
      ADD_FAILURE() << "corruption accepted: " << seedLine(kSeed, round);
    }
  }
}

}  // namespace
}  // namespace dip::core
