// Differential tests for the honest GNI provers' preimage search
// (core/gni_search): the lane walk must return, lane by lane, the same
// first hit (sigma, alpha, b) — or the same miss — as the BigUInt
// per-repetition search of tests/gni_search_ref, for every lane count and
// both lane kernels.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/gni_general.hpp"
#include "core/gni_search.hpp"
#include "gni_search_ref.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using util::Rng;

// Restores the process-wide AVX2 toggle on scope exit.
class Avx2Toggle {
 public:
  Avx2Toggle() : avx2_(hash::avx2Enabled()) {}
  ~Avx2Toggle() { hash::setAvx2Enabled(avx2_); }
  Avx2Toggle(const Avx2Toggle&) = delete;
  Avx2Toggle& operator=(const Avx2Toggle&) = delete;

 private:
  bool avx2_;
};

// A candidate of the search space, to plant as a target.
struct Candidate {
  std::uint8_t b = 0;
  graph::Permutation sigma;
  std::size_t beta = 0;  // Index into aut_b (general form).
};

// y = H(x) for the candidate x, through the hash's own full-matrix entry
// point (independent of both search paths).
util::BigUInt hashOf(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                     const hash::EpsApiHash::Seed& seed, const Candidate& c,
                     const std::vector<graph::Permutation>* aut) {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t width = gsHash.n();
  const graph::Graph& gb = c.b == 0 ? instance.g0 : instance.g1;
  std::vector<util::DynBitset> rows(width, util::DynBitset(width));
  for (graph::Vertex v = 0; v < n; ++v) {
    gb.closedRow(v).forEachSet([&](std::size_t u) { rows[c.sigma[v]].set(c.sigma[u]); });
  }
  if (aut != nullptr) {
    const graph::Permutation alpha = graph::compose(
        c.sigma, graph::compose(aut[c.b][c.beta], graph::inverse(c.sigma)));
    for (graph::Vertex u = 0; u < n; ++u) rows[n + u].set(alpha[u]);
  }
  return gsHash.hashRows(seed, rows);
}

// `count` targets: every other one planted on a random candidate (so the
// search must hit by then, on either side and any beta), the rest uniform.
std::vector<GniChallenge> makeTargets(const GniInstance& instance,
                                      const hash::EpsApiHash& gsHash, std::size_t count,
                                      const std::vector<graph::Permutation>* aut, Rng& rng) {
  const std::size_t n = instance.g0.numVertices();
  std::vector<GniChallenge> targets(count);
  for (std::size_t j = 0; j < count; ++j) {
    targets[j].seed = gsHash.randomSeed(rng);
    if (j % 2 == 1) {
      targets[j].y = rng.nextBigBits(gsHash.outputBits());
      continue;
    }
    Candidate c;
    c.b = static_cast<std::uint8_t>(rng.nextBelow(2));
    c.sigma = graph::identityPermutation(n);
    for (std::size_t i = n; i > 1; --i) std::swap(c.sigma[i - 1], c.sigma[rng.nextBelow(i)]);
    if (aut != nullptr) c.beta = rng.nextBelow(aut[c.b].size());
    targets[j].y = hashOf(instance, gsHash, targets[j].seed, c, aut);
  }
  return targets;
}

GsSearchResult runSearch(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                         std::span<const GniChallenge> targets,
                         const std::vector<graph::Permutation>* aut) {
  return aut == nullptr ? searchGsPreimages(instance, gsHash, targets)
                        : searchGsPreimages(instance, gsHash, targets, aut[0], aut[1]);
}

GsSearchResult runPerRepetition(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                                std::span<const GniChallenge> targets,
                                const std::vector<graph::Permutation>* aut) {
  return aut == nullptr
             ? searchGsPreimagesPerRepetition(instance, gsHash, targets)
             : searchGsPreimagesPerRepetition(instance, gsHash, targets, aut[0], aut[1]);
}

struct Coverage {
  std::size_t hits = 0, misses = 0, side1 = 0;
  std::size_t nontrivialAlpha[2] = {0, 0};  // Per side b.
  // Hits inside the walk's first depth-0 subtree (b = 0, sigma[0] = 0); every
  // later hit is on a lane that outlived at least one retirement.
  std::size_t firstSubtree = 0;
};

// The walk over targets[0 .. lanes) for each lane count and kernel must
// equal the BigUInt search lane by lane.
void expectWalkMatchesBigUInt(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                              const std::vector<GniChallenge>& targets,
                              const std::vector<graph::Permutation>* aut,
                              std::initializer_list<std::size_t> laneCounts,
                              Coverage& coverage) {
  Avx2Toggle restore;
  ASSERT_TRUE(laneWalkSupports(gsHash, instance.g0.numVertices()));
  const GsSearchResult reference = runPerRepetition(instance, gsHash, targets, aut);
  ASSERT_EQ(reference.size(), targets.size());
  for (const auto& hit : reference) {
    if (!hit) {
      ++coverage.misses;
      continue;
    }
    ++coverage.hits;
    coverage.side1 += hit->b;
    if (hit->b == 0 && hit->sigma.front() == 0) ++coverage.firstSubtree;
    if (aut != nullptr &&
        hit->alpha != graph::identityPermutation(instance.g0.numVertices())) {
      ++coverage.nontrivialAlpha[hit->b];
    }
  }

  for (const bool avx2 : {false, true}) {
    hash::setAvx2Enabled(avx2);
    for (const std::size_t lanes : laneCounts) {
      SCOPED_TRACE(testing::Message() << "avx2 " << avx2 << ", lanes " << lanes);
      const GsSearchResult walk =
          runSearch(instance, gsHash, std::span(targets).first(lanes), aut);
      ASSERT_EQ(walk.size(), lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        SCOPED_TRACE(testing::Message() << "lane " << j);
        ASSERT_EQ(walk[j].has_value(), reference[j].has_value());
        if (!walk[j]) continue;
        EXPECT_EQ(walk[j]->b, reference[j]->b);
        EXPECT_EQ(walk[j]->sigma, reference[j]->sigma);
        EXPECT_EQ(walk[j]->alpha, reference[j]->alpha);
      }
    }
  }
}

TEST(gni_search, RigidWalkMatchesBigUIntSearch) {
  Rng setup(801);
  const GniParams params = GniParams::choose(6, setup);
  Rng rng(802);
  Coverage coverage;
  for (const GniInstance& instance : {gniYesInstance(6, rng), gniNoInstance(6, rng)}) {
    const auto targets = makeTargets(instance, params.gsHash, 65, nullptr, rng);
    expectWalkMatchesBigUInt(instance, params.gsHash, targets, nullptr, {1, 3, 64, 65},
                             coverage);
  }
  EXPECT_GT(coverage.hits, 0u);
  EXPECT_GT(coverage.misses, 0u);
  EXPECT_GT(coverage.side1, 0u);
  EXPECT_GT(coverage.hits - coverage.side1, 0u);
}

TEST(gni_search, GeneralWalkMatchesBigUIntSearch) {
  Rng setup(803);
  const GniGeneralParams params = GniGeneralParams::choose(6, setup);
  Rng rng(804);
  Coverage coverage;
  // A YES instance has a symmetric g0 and a rigid g1; swapped, the
  // symmetric side is b = 1, whose hits a NO instance's b = 0 side shadows.
  const GniInstance yes = gniGeneralYesInstance(6, rng);
  for (const GniInstance& instance :
       {yes, GniInstance{yes.g1, yes.g0}, gniGeneralNoInstance(6, rng)}) {
    const std::vector<graph::Permutation> aut[2] = {graph::allAutomorphisms(instance.g0),
                                                    graph::allAutomorphisms(instance.g1)};
    const auto targets = makeTargets(instance, params.gsHash, 65, aut, rng);
    expectWalkMatchesBigUInt(instance, params.gsHash, targets, aut, {1, 3, 64, 65},
                             coverage);
  }
  // Hits whose alpha is not the identity, on b = 0 and on b = 1.
  EXPECT_GT(coverage.misses, 0u);
  EXPECT_GT(coverage.side1, 0u);
  EXPECT_GT(coverage.hits - coverage.side1, 0u);
  EXPECT_GT(coverage.nontrivialAlpha[0], 0u);
  EXPECT_GT(coverage.nontrivialAlpha[1], 0u);
}

TEST(gni_search, GeneralWalkMatchesBigUIntSearchAtEightVertices) {
  Rng setup(805);
  const GniGeneralParams params = GniGeneralParams::choose(8, setup);
  Rng rng(806);
  Coverage coverage;
  for (const GniInstance& instance :
       {gniGeneralYesInstance(8, rng), gniGeneralNoInstance(8, rng)}) {
    const std::vector<graph::Permutation> aut[2] = {graph::allAutomorphisms(instance.g0),
                                                    graph::allAutomorphisms(instance.g1)};
    const auto targets = makeTargets(instance, params.gsHash, 3, aut, rng);
    expectWalkMatchesBigUInt(instance, params.gsHash, targets, aut, {1, 3}, coverage);
  }
  EXPECT_GT(coverage.hits, 0u);
}

TEST(gni_search, TinyRangeExposesTheCandidateOrder) {
  // With 3 output bits every sigma has several hitting candidates, so the
  // first hit pins the whole order: b, then sigma in lex order, then beta.
  // The lane counts cover every remainder of a 4-lane AVX2 block, several of
  // the 8-lane block these narrow fields run on, and more than two blocks
  // of 64.
  Rng rng(811);
  Coverage coverage;
  const GniInstance rigid = gniYesInstance(6, rng);
  const hash::EpsApiHash rigidHash = hash::EpsApiHash::create(6, 3, rng);
  expectWalkMatchesBigUInt(rigid, rigidHash, makeTargets(rigid, rigidHash, 129, nullptr, rng),
                           nullptr, {1, 3, 4, 5, 63, 64, 65, 129}, coverage);
  const GniInstance general = gniGeneralNoInstance(6, rng);
  const std::vector<graph::Permutation> aut[2] = {graph::allAutomorphisms(general.g0),
                                                  graph::allAutomorphisms(general.g1)};
  const hash::EpsApiHash generalHash = hash::EpsApiHash::create(12, 3, rng);
  expectWalkMatchesBigUInt(general, generalHash,
                           makeTargets(general, generalHash, 129, aut, rng), aut,
                           {1, 3, 4, 5, 63, 64, 65, 129}, coverage);
  EXPECT_GT(coverage.nontrivialAlpha[0], 0u);
}

TEST(gni_search, RetirementKeepsScatteredSurvivors) {
  // At 8 or 9 output bits a lane survives a depth-0 subtree about half the
  // time, so hits spread over the whole walk and each depth-0 boundary
  // retires a scattered set of lanes, leaving survivors that are not
  // contiguous and counts that are not multiples of the AVX2 block.
  Rng rng(816);
  Coverage coverage;
  const GniInstance rigid = gniYesInstance(6, rng);
  const hash::EpsApiHash rigidHash = hash::EpsApiHash::create(6, 8, rng);
  expectWalkMatchesBigUInt(rigid, rigidHash, makeTargets(rigid, rigidHash, 129, nullptr, rng),
                           nullptr, {1, 3, 4, 5, 63, 64, 65, 129}, coverage);
  const GniInstance general = gniGeneralNoInstance(6, rng);
  const std::vector<graph::Permutation> aut[2] = {graph::allAutomorphisms(general.g0),
                                                  graph::allAutomorphisms(general.g1)};
  const hash::EpsApiHash generalHash = hash::EpsApiHash::create(12, 9, rng);
  expectWalkMatchesBigUInt(general, generalHash,
                           makeTargets(general, generalHash, 129, aut, rng), aut,
                           {1, 3, 4, 5, 63, 64, 65, 129}, coverage);
  EXPECT_GT(coverage.firstSubtree, 0u);
  EXPECT_GT(coverage.hits - coverage.firstSubtree - coverage.side1, 0u);
  EXPECT_GT(coverage.side1, 0u);
}

TEST(gni_search, DepthsWithoutEarlierNeighboursAddNoRows) {
  // In g0 vertex 1 has no earlier neighbour and vertex 5 none at all, so
  // those DFS nodes (the leaf among them) add no H-block rows; in g1
  // vertices 1 and 2 have none. Aut(g0) is the identity and the swap of 0
  // and 1, which fixes 2..5; Aut(g1) permutes the leaves 0, 1, 2 of vertex 3
  // and fixes 3, 4, 5.
  const GniInstance instance{
      graph::Graph::fromEdges(6, {{0, 2}, {1, 2}, {2, 3}, {3, 4}}),
      graph::Graph::fromEdges(6, {{0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 5}})};
  const std::vector<graph::Permutation> aut[2] = {graph::allAutomorphisms(instance.g0),
                                                  graph::allAutomorphisms(instance.g1)};
  ASSERT_EQ(aut[0].size(), 2u);
  ASSERT_EQ(aut[1].size(), 6u);
  for (const auto& group : aut) {
    EXPECT_NE(std::find(group.begin(), group.end(), graph::identityPermutation(6)),
              group.end());
  }
  const graph::Permutation swap01 = {1, 0, 2, 3, 4, 5};
  EXPECT_NE(std::find(aut[0].begin(), aut[0].end(), swap01), aut[0].end());

  Rng rng(814);
  Coverage coverage;
  const hash::EpsApiHash rigidHash = hash::EpsApiHash::create(6, 10, rng);
  expectWalkMatchesBigUInt(instance, rigidHash,
                           makeTargets(instance, rigidHash, 65, nullptr, rng), nullptr,
                           {1, 5, 65}, coverage);
  const hash::EpsApiHash generalHash = hash::EpsApiHash::create(12, 10, rng);
  expectWalkMatchesBigUInt(instance, generalHash,
                           makeTargets(instance, generalHash, 65, aut, rng), aut, {1, 5, 65},
                           coverage);
  EXPECT_GT(coverage.side1, 0u);
  EXPECT_GT(coverage.hits - coverage.side1, 0u);
  EXPECT_GT(coverage.nontrivialAlpha[0], 0u);
  EXPECT_GT(coverage.nontrivialAlpha[1], 0u);
}

TEST(gni_search, PlantedHitsAtASixtyThreeBitPrime) {
  // The widest field the walk takes: P has exactly 63 bits, so a pair row
  // (two residues summed) and an alpha-block difference (an entry plus
  // P - diagonal) are as close to 2^64 as the carry-free add allows.
  // ell + 2 * bitLength(width) + 8 = 63 for the 6 x 6 and 12 x 12 hashes.
  Rng rng(815);
  Coverage coverage;
  const GniInstance rigid = gniYesInstance(6, rng);
  const hash::EpsApiHash rigidHash = hash::EpsApiHash::create(6, 49, rng);
  ASSERT_EQ(rigidHash.fieldPrime().bitLength(), 63u);
  ASSERT_EQ(laneWalkLaneBits(rigidHash, 6), 64u);
  expectWalkMatchesBigUInt(rigid, rigidHash, makeTargets(rigid, rigidHash, 5, nullptr, rng),
                           nullptr, {1, 5}, coverage);
  const GniInstance general = gniGeneralYesInstance(6, rng);
  const std::vector<graph::Permutation> aut[2] = {graph::allAutomorphisms(general.g0),
                                                  graph::allAutomorphisms(general.g1)};
  const hash::EpsApiHash generalHash = hash::EpsApiHash::create(12, 47, rng);
  ASSERT_EQ(generalHash.fieldPrime().bitLength(), 63u);
  expectWalkMatchesBigUInt(general, generalHash,
                           makeTargets(general, generalHash, 5, aut, rng), aut, {1, 5},
                           coverage);
  // The three planted lanes of each form hit; the uniform ones (2^-47 per
  // candidate) miss.
  EXPECT_EQ(coverage.hits, 6u);
  EXPECT_EQ(coverage.misses, 4u);
}

// Both forms at a field of the caller's choosing, on n = 6: 129 targets
// (planted every other one, so lanes resolve all through the walk and
// each depth-0 boundary retires a scattered set) over lane counts that
// cover every remainder of an 8-lane and a 4-lane block.
void expectBothFormsMatchAt(const util::BigUInt& prime, std::size_t rigidEll,
                            std::size_t generalEll, std::size_t laneBits, Rng& rng) {
  Coverage coverage;
  const GniInstance rigid = gniYesInstance(6, rng);
  const hash::EpsApiHash rigidHash = hash::EpsApiHash::withPrime(6, rigidEll, prime);
  ASSERT_EQ(laneWalkLaneBits(rigidHash, 6), laneBits);
  expectWalkMatchesBigUInt(rigid, rigidHash, makeTargets(rigid, rigidHash, 129, nullptr, rng),
                           nullptr, {1, 7, 8, 9, 15, 63, 64, 65, 129}, coverage);
  const GniInstance general = gniGeneralNoInstance(6, rng);
  const std::vector<graph::Permutation> aut[2] = {graph::allAutomorphisms(general.g0),
                                                  graph::allAutomorphisms(general.g1)};
  const hash::EpsApiHash generalHash = hash::EpsApiHash::withPrime(12, generalEll, prime);
  ASSERT_EQ(laneWalkLaneBits(generalHash, 6), laneBits);
  expectWalkMatchesBigUInt(general, generalHash,
                           makeTargets(general, generalHash, 129, aut, rng), aut,
                           {1, 7, 8, 9, 15, 63, 64, 65, 129}, coverage);
  // The planted lanes hit (on both sides, and past the first depth-0
  // subtree); the uniform ones, at 2^-30 or less per candidate, miss.
  EXPECT_EQ(coverage.hits, 2 * 65u);
  EXPECT_EQ(coverage.misses, 2 * 64u);
  EXPECT_GT(coverage.side1, 0u);
  EXPECT_GT(coverage.hits - coverage.firstSubtree - coverage.side1, 0u);
  EXPECT_GT(coverage.nontrivialAlpha[0], 0u);
}

TEST(gni_search, LaneWidthFollowsTheField) {
  const util::BigUInt narrowest{(std::uint64_t{1} << 31) - 1};
  const util::BigUInt widest{(std::uint64_t{1} << 31) + 11};
  EXPECT_EQ(laneWalkLaneBits(hash::EpsApiHash::withPrime(6, 31, narrowest), 6), 32u);
  EXPECT_EQ(laneWalkLaneBits(hash::EpsApiHash::withPrime(6, 32, narrowest), 6), 64u);
  EXPECT_EQ(laneWalkLaneBits(hash::EpsApiHash::withPrime(6, 31, widest), 6), 64u);
  EXPECT_EQ(laneWalkLaneBits(hash::EpsApiHash::withPrime(6, 31, narrowest), 33), 0u);
  // Every n = 6 GNI cell's field is narrow.
  Rng setup(817);
  EXPECT_EQ(laneWalkLaneBits(GniParams::choose(6, setup).gsHash, 6), 32u);
  EXPECT_EQ(laneWalkLaneBits(GniGeneralParams::choose(6, setup).gsHash, 6), 32u);
}

TEST(gni_search, ThirtyTwoBitLanesAtTheLargestNarrowPrime) {
  // P = 2^31 - 1, the largest prime a 32-bit lane takes: a lane sum reaches
  // 2P - 2 = 2^32 - 4 before its reduction, as close to 2^32 as the
  // carry-free add allows. ell = 30 masks the outer layer; ell = 31 (the
  // widest a 32-bit lane takes) leaves it whole.
  Rng rng(818);
  expectBothFormsMatchAt(util::BigUInt{(std::uint64_t{1} << 31) - 1}, 30, 31, 32, rng);
}

TEST(gni_search, PrimesAboveTwoToTheThirtyOneTakeSixtyFourBitLanes) {
  // P = 2^31 + 11, the smallest prime above 2^31, and P = 2^32 - 5, the
  // largest below 2^32: a lane sum of two residues can reach 2P - 2 >= 2^32
  // (about half of them do at 2^32 - 5), so both run on 64-bit lanes at the
  // same ell as the narrow test.
  Rng rng(819);
  expectBothFormsMatchAt(util::BigUInt{(std::uint64_t{1} << 31) + 11}, 30, 31, 64, rng);
  expectBothFormsMatchAt(util::BigUInt{(std::uint64_t{1} << 32) - 5}, 30, 31, 64, rng);
}

TEST(gni_search, WideFieldIsRefused) {
  // 50 output bits over 6 x 6 matrices: P has 50 + 2*3 + 7 + 1 = 64 bits, so
  // it fits a u64 but not the walk's carry-free P < 2^63.
  Rng rng(807);
  const hash::EpsApiHash wide = hash::EpsApiHash::create(6, 50, rng);
  ASSERT_TRUE(wide.fieldPrime().fitsU64());
  ASSERT_GE(wide.fieldPrime().toU64(), std::uint64_t{1} << 63);
  EXPECT_FALSE(laneWalkSupports(wide, 6));
  EXPECT_EQ(laneWalkLaneBits(wide, 6), 0u);
  const hash::EpsApiHash wider = hash::EpsApiHash::create(6, 60, rng);
  EXPECT_FALSE(wider.fieldPrime().fitsU64());
  EXPECT_FALSE(laneWalkSupports(wider, 6));
  // The same P > 2^63 under a 20-bit outer layer: the field alone refuses.
  const hash::EpsApiHash narrowOutput = hash::EpsApiHash::withPrime(6, 20, wide.fieldPrime());
  EXPECT_FALSE(laneWalkSupports(narrowOutput, 6));

  Rng setup(808);
  EXPECT_TRUE(laneWalkSupports(GniParams::choose(6, setup).gsHash, 6));

  const GniInstance instance = gniYesInstance(6, rng);
  for (const hash::EpsApiHash* refused : {&wide, &wider, &narrowOutput}) {
    GniChallenge target;
    target.seed = refused->randomSeed(rng);
    EXPECT_THROW(searchGsPreimages(instance, *refused, std::span(&target, 1)),
                 std::invalid_argument);
    EXPECT_THROW(searchGsPreimages(instance, *refused, {}), std::invalid_argument);
  }
}

TEST(gni_search, RejectsMismatchedInputs) {
  Rng setup(812);
  const GniGeneralParams params = GniGeneralParams::choose(6, setup);
  Rng rng(813);
  const GniInstance instance = gniGeneralYesInstance(6, rng);
  const std::vector<graph::Permutation> aut0 = graph::allAutomorphisms(instance.g0);
  const std::vector<graph::Permutation> notAPermutation = {{0, 0, 1, 2, 3, 4}};
  GniChallenge target;
  target.seed = params.gsHash.randomSeed(rng);
  EXPECT_THROW(searchGsPreimages(instance, params.gsHash, std::span(&target, 1), aut0,
                                 notAPermutation),
               std::invalid_argument);
  // The general form's 2n x 2n hash is the wrong width for the rigid form.
  EXPECT_THROW(searchGsPreimages(instance, params.gsHash, std::span(&target, 1)),
               std::invalid_argument);
}

TEST(gni_search, NoTargetsNoWork) {
  Rng setup(809);
  const GniParams params = GniParams::choose(6, setup);
  Rng rng(810);
  const GniInstance instance = gniYesInstance(6, rng);
  EXPECT_TRUE(searchGsPreimages(instance, params.gsHash, {}).empty());
}

}  // namespace
}  // namespace dip::core
