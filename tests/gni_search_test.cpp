// Differential tests for the honest GNI provers' preimage search
// (core/gni_search): the lane walk must return, lane by lane, the same
// first hit (sigma, alpha, b) — or the same miss — as the BigUInt
// per-repetition search that DIP_BATCH=0 runs, for every lane count and
// both lane kernels.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/gni_general.hpp"
#include "core/gni_search.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "util/rng.hpp"

namespace dip::core {
namespace {

using util::Rng;

// Restores the process-wide engine toggles on scope exit.
class EngineToggles {
 public:
  EngineToggles() : batch_(hash::batchEnabled()), avx2_(hash::avx2Enabled()) {}
  ~EngineToggles() {
    hash::setBatchEnabled(batch_);
    hash::setAvx2Enabled(avx2_);
  }
  EngineToggles(const EngineToggles&) = delete;
  EngineToggles& operator=(const EngineToggles&) = delete;

 private:
  bool batch_;
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

struct Coverage {
  std::size_t hits = 0, misses = 0, side1 = 0;
  std::size_t nontrivialAlpha[2] = {0, 0};  // Per side b.
};

// The walk over targets[0 .. lanes) for each lane count and kernel must
// equal the BigUInt search lane by lane.
void expectWalkMatchesBigUInt(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                              const std::vector<GniChallenge>& targets,
                              const std::vector<graph::Permutation>* aut,
                              std::initializer_list<std::size_t> laneCounts,
                              Coverage& coverage) {
  EngineToggles restore;
  ASSERT_TRUE(laneWalkSupports(gsHash, instance.g0.numVertices()));
  hash::setBatchEnabled(false);
  const GsSearchResult reference = runSearch(instance, gsHash, targets, aut);
  ASSERT_EQ(reference.size(), targets.size());
  for (const auto& hit : reference) {
    if (!hit) {
      ++coverage.misses;
      continue;
    }
    ++coverage.hits;
    coverage.side1 += hit->b;
    if (aut != nullptr &&
        hit->alpha != graph::identityPermutation(instance.g0.numVertices())) {
      ++coverage.nontrivialAlpha[hit->b];
    }
  }

  hash::setBatchEnabled(true);
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
  Rng rng(811);
  Coverage coverage;
  const GniInstance rigid = gniYesInstance(6, rng);
  const hash::EpsApiHash rigidHash = hash::EpsApiHash::create(6, 3, rng);
  expectWalkMatchesBigUInt(rigid, rigidHash, makeTargets(rigid, rigidHash, 65, nullptr, rng),
                           nullptr, {1, 3, 64, 65}, coverage);
  const GniInstance general = gniGeneralNoInstance(6, rng);
  const std::vector<graph::Permutation> aut[2] = {graph::allAutomorphisms(general.g0),
                                                  graph::allAutomorphisms(general.g1)};
  const hash::EpsApiHash generalHash = hash::EpsApiHash::create(12, 3, rng);
  expectWalkMatchesBigUInt(general, generalHash, makeTargets(general, generalHash, 65, aut, rng),
                           aut, {1, 3, 64, 65}, coverage);
  EXPECT_GT(coverage.nontrivialAlpha[0], 0u);
}

TEST(gni_search, WideFieldTakesTheBigUIntPath) {
  // 50 output bits over 6 x 6 matrices: P has 50 + 2*3 + 7 + 1 = 64 bits, so
  // it fits a u64 but not the walk's carry-free P < 2^63.
  Rng rng(807);
  const hash::EpsApiHash wide = hash::EpsApiHash::create(6, 50, rng);
  ASSERT_TRUE(wide.fieldPrime().fitsU64());
  ASSERT_GE(wide.fieldPrime().toU64(), std::uint64_t{1} << 63);
  EXPECT_FALSE(laneWalkSupports(wide, 6));
  const hash::EpsApiHash wider = hash::EpsApiHash::create(6, 60, rng);
  EXPECT_FALSE(wider.fieldPrime().fitsU64());
  EXPECT_FALSE(laneWalkSupports(wider, 6));

  Rng setup(808);
  EXPECT_TRUE(laneWalkSupports(GniParams::choose(6, setup).gsHash, 6));

  // With batch on, the wide field still finds exactly the BigUInt answer:
  // a planted b = 0 candidate early in lex order.
  const GniInstance instance = gniYesInstance(6, rng);
  GniChallenge target;
  target.seed = wide.randomSeed(rng);
  Candidate planted;
  planted.sigma = {0, 1, 2, 5, 3, 4};
  target.y = hashOf(instance, wide, target.seed, planted, nullptr);

  EngineToggles restore;
  hash::setBatchEnabled(true);
  const GsSearchResult batched = searchGsPreimages(instance, wide, std::span(&target, 1));
  hash::setBatchEnabled(false);
  const GsSearchResult reference = searchGsPreimages(instance, wide, std::span(&target, 1));
  ASSERT_TRUE(batched.front().has_value());
  ASSERT_TRUE(reference.front().has_value());
  EXPECT_EQ(batched.front()->sigma, planted.sigma);
  EXPECT_EQ(batched.front()->sigma, reference.front()->sigma);
  EXPECT_EQ(batched.front()->b, 0u);
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
