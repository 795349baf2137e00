// The engine's determinism contract: same master seed => bit-identical
// results at every thread count. Runs under the tsan preset too, where the
// shared work counter, result slots, and prime-cache single-flight paths
// get exercised with real concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/sym_dmam.hpp"
#include "graph/generators.hpp"
#include "hash/linear_hash.hpp"
#include "sim/acceptance.hpp"
#include "sim/parallel_map.hpp"
#include "sim/pool.hpp"
#include "util/rng.hpp"

namespace dip::sim {
namespace {

using graph::Graph;
using util::Rng;

TrialConfig config(std::uint64_t masterSeed, unsigned threads) {
  TrialConfig c;
  c.masterSeed = masterSeed;
  c.threads = threads;
  return c;
}

TEST(trial_determinism, RawRunnerIdenticalAcrossThreadCounts) {
  // A body that exercises the per-trial stream directly: the outcome is a
  // pure function of (master seed, index), so stats and per-trial outcomes
  // must match across pool sizes.
  auto body = [](TrialContext& ctx) {
    TrialOutcome outcome;
    std::uint64_t x = ctx.rng.nextU64();
    for (int i = 0; i < 16; ++i) x = digestCombine(x, ctx.rng.nextU64());
    outcome.digest = x;
    outcome.accepted = (x & 1) != 0;
    outcome.maxPerNodeBits = static_cast<std::size_t>(x % 97);
    return outcome;
  };

  std::vector<TrialOutcome> base;
  TrialStats baseStats = TrialRunner(config(9001, 1)).run(257, body, &base);
  for (unsigned threads : {2u, 8u}) {
    std::vector<TrialOutcome> outcomes;
    TrialStats stats = TrialRunner(config(9001, threads)).run(257, body, &outcomes);
    EXPECT_TRUE(stats.sameResults(baseStats)) << "threads=" << threads;
    EXPECT_EQ(outcomes, base) << "threads=" << threads;
  }
}

TEST(trial_determinism, ChildStreamsIndependentOfClaimOrder) {
  // Child derivation is pure: deriving child(i) repeatedly, in any order,
  // yields the same stream, and distinct indices yield distinct streams.
  const Rng master(424242);
  Rng a = master.child(7);
  Rng b = master.child(3);
  Rng a2 = master.child(7);
  EXPECT_EQ(a.nextU64(), a2.nextU64());
  EXPECT_EQ(a.nextU64(), a2.nextU64());
  Rng c = master.child(3);
  EXPECT_EQ(b.nextU64(), c.nextU64());
  EXPECT_NE(master.child(0).nextU64(), master.child(1).nextU64());
}

TEST(trial_determinism, ProtocolTrialsIdenticalAcrossThreadCounts) {
  // End-to-end on a real protocol: transcripts (via the run digest) and the
  // acceptance fold must be identical at 1, 2, and 8 threads.
  const std::size_t n = 8;
  Rng rng(9100);
  core::SymDmamProtocol protocol(hash::makeProtocol1FamilyCached(n));
  Graph symmetric = graph::randomSymmetricConnected(n, rng);
  auto factory = [&](std::size_t) {
    return std::make_unique<core::HonestSymDmamProver>(protocol.family());
  };

  std::vector<TrialOutcome> base;
  TrialStats baseStats =
      estimateAcceptance(protocol, symmetric, factory, 64, config(9101, 1), &base);
  ASSERT_EQ(base.size(), 64u);
  for (unsigned threads : {2u, 8u}) {
    std::vector<TrialOutcome> outcomes;
    TrialStats stats = estimateAcceptance(protocol, symmetric, factory, 64,
                                          config(9101, threads), &outcomes);
    EXPECT_TRUE(stats.sameResults(baseStats)) << "threads=" << threads;
    EXPECT_EQ(outcomes, base) << "threads=" << threads;
  }
}

TEST(trial_determinism, MasterSeedChangesResults) {
  auto body = [](TrialContext& ctx) {
    TrialOutcome outcome;
    outcome.digest = ctx.rng.nextU64();
    return outcome;
  };
  TrialStats a = TrialRunner(config(1, 4)).run(32, body);
  TrialStats b = TrialRunner(config(2, 4)).run(32, body);
  EXPECT_NE(a.digest, b.digest);
}

TEST(trial_determinism, ExceptionSurfacedByLowestTrialIndex) {
  // Failures are rethrown deterministically: the lowest failing index wins
  // regardless of which worker hit it first.
  for (unsigned threads : {1u, 8u}) {
    TrialRunner runner(config(77, threads));
    try {
      runner.run(100, [](TrialContext& ctx) -> TrialOutcome {
        if (ctx.index >= 40) throw ctx.index;
        return {};
      });
      FAIL() << "expected the trial exception to propagate";
    } catch (const std::size_t& index) {
      EXPECT_EQ(index, 40u) << "threads=" << threads;
    }
  }
}

// A body whose outcome is a pure function of the trial's stream; it also
// bump-allocates from the arena so the pool's per-thread arenas are used.
TrialOutcome streamOutcome(TrialContext& ctx) {
  std::uint64_t* scratch = ctx.arena->allocateArray<std::uint64_t>(8);
  for (int i = 0; i < 8; ++i) scratch[i] = ctx.rng.nextU64();
  TrialOutcome outcome;
  for (int i = 0; i < 8; ++i) outcome.digest = digestCombine(outcome.digest, scratch[i]);
  outcome.accepted = (outcome.digest & 1) != 0;
  outcome.maxPerNodeBits = static_cast<std::size_t>(outcome.digest % 89);
  return outcome;
}

std::vector<TrialOutcome> serialOutcomes(std::uint64_t seed, std::size_t trials) {
  std::vector<TrialOutcome> outcomes;
  TrialRunner(config(seed, 1)).run(trials, streamOutcome, &outcomes);
  return outcomes;
}

TEST(trial_determinism, PoolBatchesIdenticalAsThreadCountsGrowAndShrink) {
  // The pool grows to the largest count asked and keeps its helpers; later
  // batches that want fewer must leave the extra helpers idle and still
  // give the serial outcomes.
  const std::vector<TrialOutcome> reference = serialOutcomes(515, 300);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (unsigned threads : {2u, 8u, 3u}) {
      std::vector<TrialOutcome> outcomes;
      TrialRunner(config(515, threads)).run(300, streamOutcome, &outcomes);
      EXPECT_EQ(outcomes, reference) << "threads=" << threads << " repeat=" << repeat;
    }
  }
}

TEST(trial_determinism, NestedRunnerInsideTrialMatchesSerial) {
  // A runner or parallelMap called from inside a trial body runs inline on
  // that worker, with its own arena: outer and inner results must equal the
  // all-serial run.
  auto body = [](TrialContext& ctx) {
    std::uint64_t* outer = ctx.arena->allocateArray<std::uint64_t>(1);
    *outer = ctx.rng.nextU64();
    const std::vector<TrialOutcome> inner =
        TrialRunner(config(*outer, 4)).runRange(0, 16, streamOutcome);
    const std::vector<std::uint64_t> mapped = parallelMap<std::uint64_t>(
        8, 4, [&](std::size_t i) { return digestCombine(*outer, i); });
    TrialOutcome outcome;
    outcome.digest = *outer;  // Read after the nested runs: still this trial's.
    for (const TrialOutcome& o : inner) outcome.digest = digestCombine(outcome.digest, o.digest);
    for (std::uint64_t m : mapped) outcome.digest = digestCombine(outcome.digest, m);
    return outcome;
  };
  std::vector<TrialOutcome> serial;
  TrialRunner(config(616, 1)).run(40, body, &serial);
  std::vector<TrialOutcome> pooled;
  TrialRunner(config(616, 4)).run(40, body, &pooled);
  EXPECT_EQ(pooled, serial);
}

TEST(trial_determinism, ConcurrentCallersMatchSerial) {
  // Two threads that each drive their own runner share the one pool: one
  // batch waits for the other, and both match their serial runs.
  const std::vector<TrialOutcome> referenceA = serialOutcomes(717, 400);
  const std::vector<TrialOutcome> referenceB = serialOutcomes(818, 400);
  std::vector<TrialOutcome> a;
  std::vector<TrialOutcome> b;
  std::thread first([&] {
    for (int i = 0; i < 5; ++i) TrialRunner(config(717, 4)).run(400, streamOutcome, &a);
  });
  std::thread second([&] {
    for (int i = 0; i < 5; ++i) TrialRunner(config(818, 3)).run(400, streamOutcome, &b);
  });
  first.join();
  second.join();
  EXPECT_EQ(a, referenceA);
  EXPECT_EQ(b, referenceB);
}

TEST(trial_determinism, PoolRethrowsAWorkFailureAfterItsHelpersFinish) {
  // The engine's own loops never let an item's exception escape `work`, but
  // if `work` throws on any thread, runOnPool rethrows it, and only after
  // every thread that joined the batch has left `work`.
  for (int repeat = 0; repeat < 20; ++repeat) {
    std::atomic<int> next{0};
    std::atomic<int> running{0};
    auto work = [&] {
      running.fetch_add(1);
      struct Leave {
        std::atomic<int>& running;
        ~Leave() { running.fetch_sub(1); }
      } leave{running};
      for (int i = next.fetch_add(1); i < 64; i = next.fetch_add(1)) {
        if (i == 5) throw std::runtime_error("item 5");
      }
    };
    EXPECT_THROW(runOnPool(4, work), std::runtime_error);
    EXPECT_EQ(running.load(), 0);
  }
}

TEST(trial_determinism, RunBatchesMatchesOneRunnerPerSeed) {
  // One dispatch of several seeded batches: batch m's fold receives what a
  // run on a runner seeded with seeds[m] gives, with ctx.batch = m and
  // ctx.index = t, and each batch is folded exactly once.
  const std::vector<std::uint64_t> seeds = {3, 1, 4, 1, 5};
  const std::size_t trialsEach = 37;
  for (unsigned threads : {1u, 4u}) {
    std::vector<std::vector<TrialOutcome>> folded(seeds.size());
    std::vector<int> folds(seeds.size(), 0);
    TrialRunner(config(999, threads))
        .runBatches(
            seeds, trialsEach,
            [&](TrialContext& ctx) {
              TrialOutcome outcome = streamOutcome(ctx);
              outcome.maxPerNodeBits = ctx.batch * 1000 + ctx.index;
              return outcome;
            },
            [&](std::size_t m, std::span<const TrialOutcome> outcomes) {
              folded[m].assign(outcomes.begin(), outcomes.end());
              ++folds[m];
            });
    for (std::size_t m = 0; m < seeds.size(); ++m) {
      EXPECT_EQ(folds[m], 1) << "threads=" << threads << " batch " << m;
      std::vector<TrialOutcome> want = serialOutcomes(seeds[m], trialsEach);
      for (std::size_t t = 0; t < trialsEach; ++t) want[t].maxPerNodeBits = m * 1000 + t;
      EXPECT_EQ(folded[m], want) << "threads=" << threads << " batch " << m;
    }
  }
}

TEST(trial_determinism, RunBatchesSurfacesSmallestBatchAndIndex) {
  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  for (unsigned threads : {1u, 8u}) {
    try {
      TrialRunner(config(0, threads))
          .runBatches(
              seeds, 50,
              [](TrialContext& ctx) {
                if (ctx.batch >= 1 && ctx.index >= 20) throw ctx.batch * 100 + ctx.index;
                return TrialOutcome{};
              },
              [](std::size_t, std::span<const TrialOutcome>) {});
      FAIL() << "expected the trial exception to propagate";
    } catch (const std::size_t& where) {
      EXPECT_EQ(where, 120u) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dip::sim
