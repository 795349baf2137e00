// Differential determinism: the multi-process DistributedRunner against the
// in-process TrialRunner substrate, across a worker-count x threads-per-
// worker matrix for all six registered workload cells. The contract
// (docs/DISTRIBUTED.md): identical TrialStats AND identical per-trial
// outcome vectors — not statistically close, byte-identical — because both
// substrates compute outcomes as pure functions of (cell, master seed,
// global trial index) and fold through sim::foldOutcomes in index order.
//
// These tests fork real worker processes, so they live in their own binary
// under the `dist_quick` ctest label (like the adv_stress tier) and the
// per-push CI jobs run them as a dedicated step.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/distributed.hpp"
#include "sim/trial.hpp"
#include "sim/workload.hpp"

namespace dip::sim {
namespace {

// Trials per cell for the differential matrix: full committed counts for
// the tiny GNI cells, a fast prefix for the large Sym-family cells (a
// prefix of a deterministic stream is as differential as the whole).
std::size_t matrixLimit(const workload::CellInfo& info) {
  return info.gni ? 0 : 64;  // 0 = the committed full count.
}

struct Reference {
  TrialStats stats;
  std::vector<TrialOutcome> outcomes;
};

Reference inProcessReference(const workload::CellInfo& info, std::uint64_t seed) {
  TrialConfig config;
  config.masterSeed = seed;
  config.threads = 2;  // Thread count must not matter; 2 exercises the pool.
  Reference ref;
  ref.stats = workload::makeCell(info.name)->run(config, matrixLimit(info),
                                                 &ref.outcomes);
  return ref;
}

TEST(distributed_diff, MatchesInProcessAcrossWorkerAndThreadMatrix) {
  const std::uint64_t seed = 0;  // The committed bench/golden base seed.
  std::vector<Reference> refs;
  for (const workload::CellInfo& info : workload::cells()) {
    refs.push_back(inProcessReference(info, seed));
  }

  for (unsigned workers : {1u, 2u, 4u}) {
    for (unsigned threadsPerWorker : {1u, 4u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " threadsPerWorker=" + std::to_string(threadsPerWorker));
      TrialConfig base;
      base.masterSeed = seed;
      DistributedConfig dist;
      dist.workers = workers;
      dist.threadsPerWorker = threadsPerWorker;
      dist.grain = 8;  // Several ranges per worker even for the tiny cells.
      DistributedRunner runner(base, dist);
      std::size_t i = 0;
      for (const workload::CellInfo& info : workload::cells()) {
        SCOPED_TRACE(std::string(info.name));
        std::vector<TrialOutcome> outcomes;
        const TrialStats stats =
            runner.runCell(info.name, matrixLimit(info), &outcomes);
        EXPECT_TRUE(stats.sameResults(refs[i].stats));
        EXPECT_EQ(outcomes, refs[i].outcomes);
        ++i;
      }
      EXPECT_EQ(runner.liveWorkers(), workers);  // Nobody died doing this.
      runner.shutdown();
    }
  }
}

TEST(distributed_diff, ForkAfterPooledInProcessRunFoldsIdentically) {
  // An in-process run at 4 threads leaves the engine pool's helpers parked
  // in this process. Forking the fleet afterwards must neither hang nor
  // change a fold: each child starts from an empty pool and grows its own.
  const workload::CellInfo& info = workload::cells().front();
  TrialConfig inProcess;
  inProcess.masterSeed = 5;
  inProcess.threads = 4;
  std::vector<TrialOutcome> want;
  const TrialStats wantStats = workload::makeCell(info.name)->run(inProcess, 64, &want);

  TrialConfig base;
  base.masterSeed = 5;
  DistributedConfig dist;
  dist.workers = 2;
  dist.threadsPerWorker = 2;
  dist.grain = 8;
  DistributedRunner runner(base, dist);
  std::vector<TrialOutcome> outcomes;
  const TrialStats stats = runner.runCell(info.name, 64, &outcomes);
  EXPECT_TRUE(stats.sameResults(wantStats));
  EXPECT_EQ(outcomes, want);
  EXPECT_EQ(runner.liveWorkers(), 2u);
  runner.shutdown();
}

TEST(distributed_diff, NonZeroBaseSeedPropagatesToWorkers) {
  // The master seed crosses the wire in ASSIGN; both substrates must agree
  // on a non-default seed too. (The honest-prover cells always accept with
  // a fixed bit account, so digests can COINCIDE across seeds — the binding
  // check is the full outcome-vector comparison below, which would expose a
  // worker running the wrong stream.)
  const workload::CellInfo* info = workload::findCell("sym_dam_p2");
  ASSERT_NE(info, nullptr);
  const Reference ref = inProcessReference(*info, 0xABCDEF0123ull);

  TrialConfig base;
  base.masterSeed = 0xABCDEF0123ull;
  DistributedConfig dist;
  dist.workers = 2;
  dist.grain = 8;
  DistributedRunner runner(base, dist);
  std::vector<TrialOutcome> outcomes;
  const TrialStats stats = runner.runCell(info->name, matrixLimit(*info), &outcomes);
  EXPECT_TRUE(stats.sameResults(ref.stats));
  EXPECT_EQ(outcomes, ref.outcomes);
}

TEST(distributed_diff, DaemonSessionServesRepeatedAndMixedRuns) {
  // One fleet, many verification requests (the service shape): repeated
  // runs of the same cell are identical (worker-side cell caches and the
  // coordinator epoch guard), interleaved with a different cell.
  TrialConfig base;
  DistributedConfig dist;
  dist.workers = 2;
  dist.grain = 8;
  DistributedRunner runner(base, dist);
  const TrialStats first = runner.runCell("sym_dmam_p1", 48);
  const TrialStats other = runner.runCell("sym_input", 48);
  const TrialStats second = runner.runCell("sym_dmam_p1", 48);
  EXPECT_TRUE(first.sameResults(second));
  EXPECT_FALSE(first.sameResults(other));

  // And a shorter re-run is a prefix, not a rescaled batch.
  const TrialStats prefix = runner.runCell("sym_dmam_p1", 16);
  EXPECT_EQ(prefix.trials, 16u);
}

TEST(distributed_diff, UnknownCellThrowsWithoutSpawning) {
  DistributedRunner runner(TrialConfig{}, DistributedConfig{});
  EXPECT_THROW((void)runner.runCell("no_such_cell"), std::invalid_argument);
}

TEST(distributed_diff, GrainExtremesStillByteIdentical) {
  // Grain 1 (one trial per ASSIGN, maximal scheduling churn) and a grain
  // larger than the whole run (a single range) bracket the sharding space.
  const workload::CellInfo* info = workload::findCell("sym_dmam_p1");
  ASSERT_NE(info, nullptr);
  const Reference ref = inProcessReference(*info, 0);
  for (std::uint64_t grain : {std::uint64_t{1}, std::uint64_t{1000}}) {
    SCOPED_TRACE("grain=" + std::to_string(grain));
    TrialConfig base;
    DistributedConfig dist;
    dist.workers = 2;
    dist.grain = grain;
    DistributedRunner runner(base, dist);
    std::vector<TrialOutcome> outcomes;
    const TrialStats stats = runner.runCell(info->name, matrixLimit(*info), &outcomes);
    EXPECT_TRUE(stats.sameResults(ref.stats));
    EXPECT_EQ(outcomes, ref.outcomes);
  }
}

}  // namespace
}  // namespace dip::sim
