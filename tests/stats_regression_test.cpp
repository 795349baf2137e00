// Statistical acceptance regression tier (seed-pinned, engine-driven).
//
// One completeness cell and one committed-cheater soundness cell per
// protocol, run through sim::estimateAcceptance with pinned master seeds.
// The assertions are the paper's thresholds — completeness >= 2/3,
// soundness <= 1/3 — plus a Wilson-interval separation (the YES lower
// confidence bound must clear the NO upper bound), so a regression that
// merely nudges rates toward each other fails before it crosses 1/2.
// Thread counts are pinned explicitly: the engine's determinism contract
// makes the cells reproducible byte-for-byte regardless.
//
// On top of the statistical thresholds, every cell pins its EXACT golden
// row (accepts, maxPerNodeBits, digest), captured from the scalar hash path
// before the batch hash engine rewired the trial paths. The batch engine,
// now the only hash path, changes evaluation strategy, never values, so
// these rows must not move.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/dsym_dam.hpp"
#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_input.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "hash/linear_hash.hpp"
#include "sim/acceptance.hpp"
#include "util/rng.hpp"

namespace dip::sim {
namespace {

using graph::Graph;
using util::Rng;

TrialConfig config(std::uint64_t masterSeed) {
  TrialConfig c;
  c.masterSeed = masterSeed;
  c.threads = 4;
  return c;
}

// Pre-batch-rewiring golden row for a cell: accept count, per-node cost
// and transcript digest are pinned exactly.
void expectGolden(const TrialStats& stats, std::size_t accepts,
                  std::size_t maxPerNodeBits, std::uint64_t digest) {
  EXPECT_EQ(stats.accepts, accepts);
  EXPECT_EQ(stats.maxPerNodeBits, maxPerNodeBits);
  EXPECT_EQ(stats.digest, digest) << std::hex << "got digest 0x" << stats.digest;
}

void expectSeparation(const TrialStats& yes, const TrialStats& no) {
  EXPECT_GE(yes.rate(), 2.0 / 3.0);
  EXPECT_LE(no.rate(), 1.0 / 3.0);
  // The confidence intervals must not touch: yes stays above no with margin.
  EXPECT_GT(yes.interval().low, no.interval().high);
}

TEST(stats_regression, SymDmamProtocol1) {
  const std::size_t n = 10;
  Rng rng(501);
  core::SymDmamProtocol protocol(hash::makeProtocol1FamilyCached(n));
  Graph symmetric = graph::randomSymmetricConnected(n, rng);
  Graph rigid = graph::randomRigidConnected(n, rng);

  TrialStats honest = estimateAcceptance(
      protocol, symmetric,
      [&](std::size_t) {
        return std::make_unique<core::HonestSymDmamProver>(protocol.family());
      },
      120, config(50101));
  TrialStats cheater = estimateAcceptance(
      protocol, rigid,
      [&](std::size_t trial) {
        return std::make_unique<core::CheatingRhoProver>(
            protocol.family(), core::CheatingRhoProver::Strategy::kRandomPermutation,
            trial);
      },
      120, config(50102));
  expectSeparation(honest, cheater);
  // Protocol 1's completeness is perfect; soundness error is <= 1/(10 n).
  EXPECT_EQ(honest.accepts, honest.trials);
  expectGolden(honest, 120, 84, 0xdd6dc81783e05d5full);
  expectGolden(cheater, 0, 84, 0x7a9ab4d2d10ee38dull);
}

TEST(stats_regression, SymDamProtocol2) {
  const std::size_t n = 6;
  Rng rng(502);
  core::SymDamProtocol protocol(hash::makeProtocol2FamilyCached(n));
  Graph symmetric = graph::randomSymmetricConnected(n, rng);
  Graph rigid = graph::randomRigidConnected(n, rng);

  TrialStats honest = estimateAcceptance(
      protocol, symmetric,
      [&](std::size_t) {
        return std::make_unique<core::HonestSymDamProver>(protocol.family());
      },
      60, config(50201));
  // The committed cheater for dAM: an adaptive searcher with budget 1 is
  // morally a committed prover (it cannot retry against the seen seed).
  TrialStats cheater = estimateAcceptance(
      protocol, rigid,
      [&](std::size_t trial) {
        return std::make_unique<core::AdaptiveCollisionProver>(protocol.family(), 1,
                                                               trial);
      },
      60, config(50202));
  expectSeparation(honest, cheater);
  expectGolden(honest, 60, 139, 0x22ec98eaf93de960ull);
  expectGolden(cheater, 0, 139, 0x1b95d4a2e75b2e07ull);
}

TEST(stats_regression, DSymDam) {
  const std::size_t side = 6;
  Rng rng(503);
  graph::DSymLayout layout = graph::dsymLayout(side, 1);
  // Protocol 1's family shape (p ~ 10..100 N^3, dimension N^2) is exactly
  // the DSym family for N = layout vertices.
  core::DSymDamProtocol protocol(layout,
                                 hash::makeProtocol1FamilyCached(layout.numVertices));

  Graph f = graph::randomRigidConnected(side, rng);
  Graph fOther = graph::randomRigidConnected(side, rng);
  while (fOther == f) fOther = graph::randomRigidConnected(side, rng);
  Graph yes = graph::dsymInstance(f, 1);
  Graph no = graph::dsymNoInstance(f, fOther, 1);
  ASSERT_FALSE(graph::isDSymInstance(no, layout));

  auto factory = [&](std::size_t) {
    return std::make_unique<core::HonestDSymProver>(layout, protocol.family());
  };
  TrialStats honest = estimateAcceptance(protocol, yes, factory, 60, config(50301));
  TrialStats cheater = estimateAcceptance(protocol, no, factory, 120, config(50302));
  expectSeparation(honest, cheater);
  expectGolden(honest, 60, 84, 0x3a459e457f132b33ull);
  expectGolden(cheater, 0, 84, 0x68e01786eba41870ull);
}

TEST(stats_regression, SymInput) {
  const std::size_t n = 8;
  Rng rng(504);
  core::SymInputProtocol protocol(hash::makeProtocol1FamilyCached(n));
  core::SymInputInstance symmetric{graph::randomConnected(n, n / 2, rng),
                                   graph::randomSymmetricConnected(n, rng)};
  core::SymInputInstance rigid{graph::randomConnected(n, n / 2, rng),
                               graph::randomRigidConnected(n, rng)};

  TrialStats honest = estimateAcceptance(
      protocol, symmetric,
      [&](std::size_t) {
        return std::make_unique<core::HonestSymInputProver>(protocol.family());
      },
      100, config(50401));
  TrialStats cheater = estimateAcceptance(
      protocol, rigid,
      [&](std::size_t trial) {
        return std::make_unique<core::CheatingSymInputProver>(
            protocol.family(),
            core::CheatingSymInputProver::Strategy::kFakeRhoHonestClaims, trial);
      },
      120, config(50402));
  expectSeparation(honest, cheater);
  expectGolden(honest, 100, 111, 0x6d8c7df5397fbb0bull);
  expectGolden(cheater, 1, 117, 0xd1f516473d729129ull);
}

TEST(stats_regression, GniAmam) {
  Rng setup(505);
  core::GniParams params = core::GniParams::choose(6, setup);
  core::GniAmamProtocol protocol(params);
  Rng rng(50599);
  core::GniInstance yes = core::gniYesInstance(6, rng);
  core::GniInstance no = core::gniNoInstance(6, rng);

  // The honest strategy is also the optimal cheating strategy on an
  // isomorphic (NO) instance: the candidate set is simply half as large.
  auto factory = [&](std::size_t) {
    return std::make_unique<core::HonestGniProver>(params);
  };
  TrialStats honest = estimateAcceptance(protocol, yes, factory, 12, config(50501));
  TrialStats cheater = estimateAcceptance(protocol, no, factory, 12, config(50502));
  expectSeparation(honest, cheater);
  expectGolden(honest, 12, 16041, 0x960f13c90be3c0feull);
  expectGolden(cheater, 2, 13295, 0x3e78c627342e2eceull);
}

TEST(stats_regression, GniGeneral) {
  Rng setup(506);
  core::GniGeneralParams params = core::GniGeneralParams::choose(6, setup);
  core::GniGeneralProtocol protocol(params);
  Rng rng(50699);
  core::GniInstance yes = core::gniGeneralYesInstance(6, rng);
  core::GniInstance no = core::gniGeneralNoInstance(6, rng);

  auto factory = [&](std::size_t) {
    return std::make_unique<core::HonestGniGeneralProver>(params);
  };
  TrialStats honest = estimateAcceptance(protocol, yes, factory, 10, config(50601));
  TrialStats cheater = estimateAcceptance(protocol, no, factory, 10, config(50602));
  expectSeparation(honest, cheater);
  expectGolden(honest, 10, 19868, 0xa75fd724290064cbull);
  expectGolden(cheater, 0, 15191, 0x6c43e49b05e1ad00ull);
}

}  // namespace
}  // namespace dip::sim
