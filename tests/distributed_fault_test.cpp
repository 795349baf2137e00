// The fault-injection tier: kill, hang and delay a worker mid-range and
// require the folded TrialStats and per-trial outcome vectors to stay
// byte-identical to the single-process reference in EVERY scenario.
//
// Fault parameters are derived from counter-based child streams in the
// fuzz_seed.hpp style — each iteration prints a repro line naming
// (seed, trial), and replaying that pair reconstructs the exact FaultPlan.
//
// What each scenario certifies (asserted via the scheduler counters, not
// just the absence of divergence):
//   kill  — worker _exits mid-range: the coordinator sees EOF, re-issues
//           the dead worker's ranges (lastReissues > 0), the fold is
//           unaffected, and the fleet reports one fewer live worker.
//   hang  — worker stops making progress mid-range: heartbeat beacons
//           cease, the timeout marks it suspect, ranges re-issue.
//   delay — worker stalls past the timeout, is suspected, and then
//           DELIVERS its completion late into a still-running batch: the
//           exactly-once gate drops the duplicate (lastDuplicates > 0).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_seed.hpp"
#include "sim/distributed.hpp"
#include "sim/trial.hpp"
#include "sim/workload.hpp"

namespace dip::sim {
namespace {

constexpr std::uint64_t kFaultSeed = 0xFA017B01ull;
constexpr char kCell[] = "sym_dmam_p1";
// Small batch for the kill/hang scenarios.
constexpr std::size_t kTrials = 48;
constexpr unsigned kWorkers = 2;
// The delay scenario's injected stall is kDelayMinMillis plus up to
// kDelaySpreadMillis.
constexpr unsigned kDelayMinMillis = 250;
constexpr unsigned kDelaySpreadMillis = 70;

TrialConfig oneThread() {
  TrialConfig config;
  config.threads = 1;
  return config;
}

// The delay scenario needs a batch still in flight when the suspected
// worker's late completion arrives, forcing the dedup path inside the live
// fold, on a machine of any speed. A timed 1-thread probe gives this
// machine's cost per trial, and the batch is sized so that, split over the
// workers, it lasts kDelaysPerBatch times the longest injected stall (the
// rpc cost the probe leaves out only makes it longer). Never fewer than
// kMinDelayTrials.
constexpr std::size_t kProbeTrials = 2000;
constexpr double kDelaysPerBatch = 3.0;
constexpr std::size_t kMinDelayTrials = 9000;

std::size_t delayTrials() {
  static const std::size_t trials = [] {
    const TrialStats probe = workload::makeCell(kCell)->run(oneThread(), kProbeTrials);
    const double secondsPerTrial = probe.wallSeconds / kProbeTrials;
    const double longestDelaySeconds = (kDelayMinMillis + kDelaySpreadMillis) / 1000.0;
    const double batchSeconds = kDelaysPerBatch * longestDelaySeconds * kWorkers;
    return std::max(kMinDelayTrials,
                    static_cast<std::size_t>(std::ceil(batchSeconds / secondsPerTrial)));
  }();
  return trials;
}

struct Reference {
  TrialStats stats;
  std::vector<TrialOutcome> outcomes;
};

const Reference& reference(std::size_t trials) {
  auto make = [](std::size_t n) {
    Reference r;
    r.stats = workload::makeCell(kCell)->run(oneThread(), n, &r.outcomes);
    return r;
  };
  static const Reference small = make(kTrials);
  if (trials == kTrials) return small;
  static const Reference large = make(delayTrials());
  return large;
}

// The faulty fleet shape: 2 workers, small grain and beacon interval so a
// fault always lands with ranges in flight, short timeout so the suspect
// path runs in test time. afterTrials is bounded well below the ~half of
// the batch a single worker executes, so the trigger ALWAYS fires, and is
// kept off the grain boundary so it interrupts a range.
DistributedConfig faultyConfig(FaultPlan::Kind kind, util::Rng& rng) {
  DistributedConfig dist;
  dist.workers = kWorkers;
  dist.threadsPerWorker = 1;
  dist.maxOutstanding = 2;
  dist.graceMillis = 400;
  dist.fault.kind = kind;
  dist.fault.worker = rng.nextBelow(dist.workers);
  if (kind == FaultPlan::Kind::kDelay) {
    dist.grain = 64;
    dist.beaconTrials = 32;
    dist.timeoutMillis = 120;
    dist.fault.afterTrials = 1 + rng.nextBelow(60);
    // Longer than the heartbeat timeout (suspicion + re-issue happen), far
    // shorter than the batch's wall time (the late completion lands in-run).
    dist.fault.delayMillis =
        kDelayMinMillis + static_cast<unsigned>(rng.nextBelow(kDelaySpreadMillis));
  } else {
    dist.grain = 8;
    dist.beaconTrials = 4;
    dist.timeoutMillis = 150;
    dist.fault.afterTrials = 1 + rng.nextBelow(11);
  }
  if (dist.fault.afterTrials % dist.grain == 0) ++dist.fault.afterTrials;
  return dist;
}

struct ScenarioResult {
  TrialStats stats;
  std::vector<TrialOutcome> outcomes;
  unsigned liveAfter = 0;
  std::uint64_t reissues = 0;
  std::uint64_t duplicates = 0;
};

ScenarioResult runScenario(FaultPlan::Kind kind, std::uint64_t trial,
                           std::size_t trials) {
  util::Rng rng = testutil::fuzzStream(kFaultSeed, trial);
  const DistributedConfig dist = faultyConfig(kind, rng);
  DistributedRunner runner(TrialConfig{}, dist);
  ScenarioResult result;
  result.stats = runner.runCell(kCell, trials, &result.outcomes);
  result.liveAfter = runner.liveWorkers();
  result.reissues = runner.lastReissues();
  result.duplicates = runner.lastDuplicates();
  runner.shutdown();
  return result;
}

void expectByteIdentical(const ScenarioResult& result, std::size_t trials) {
  const Reference& ref = reference(trials);
  EXPECT_TRUE(result.stats.sameResults(ref.stats));
  EXPECT_EQ(result.outcomes, ref.outcomes);
}

TEST(distributed_fault, NoFaultBaseline) {
  SCOPED_TRACE(testutil::seedLine(kFaultSeed, 0));
  const ScenarioResult result = runScenario(FaultPlan::Kind::kNone, 0, kTrials);
  expectByteIdentical(result, kTrials);
  EXPECT_EQ(result.liveAfter, 2u);
  EXPECT_EQ(result.reissues, 0u);
  EXPECT_EQ(result.duplicates, 0u);
}

TEST(distributed_fault, KilledWorkerMidRangeFoldsIdentically) {
  // The dead worker's socket EOFs; its in-flight ranges re-issue to the
  // survivor. Three independent fault placements.
  for (std::uint64_t trial : {1u, 2u, 3u}) {
    SCOPED_TRACE(testutil::seedLine(kFaultSeed, trial));
    const ScenarioResult result = runScenario(FaultPlan::Kind::kKill, trial, kTrials);
    expectByteIdentical(result, kTrials);
    EXPECT_EQ(result.liveAfter, 1u);   // One corpse, one survivor.
    EXPECT_GE(result.reissues, 1u);    // Recovery actually ran.
  }
}

TEST(distributed_fault, HungWorkerMidRangeFoldsIdentically) {
  // Beacons stop, the heartbeat deadline fires, the worker is suspected
  // (not killed) and its ranges re-issue. It stays "live" — suspicion is
  // reversible — until shutdown force-reaps it.
  for (std::uint64_t trial : {4u, 5u}) {
    SCOPED_TRACE(testutil::seedLine(kFaultSeed, trial));
    const ScenarioResult result = runScenario(FaultPlan::Kind::kHang, trial, kTrials);
    expectByteIdentical(result, kTrials);
    EXPECT_EQ(result.liveAfter, 2u);
    EXPECT_GE(result.reissues, 1u);
  }
}

TEST(distributed_fault, DelayedWorkerTriggersDedupNotDoubleFold) {
  // The sharpest scenario: the suspected worker comes BACK and delivers a
  // completion for a range that was re-issued and already folded from the
  // other worker. accepts and digest double-count if the exactly-once gate
  // is broken; lastDuplicates proves the gate actually fired.
  for (std::uint64_t trial : {6u, 7u}) {
    SCOPED_TRACE(testutil::seedLine(kFaultSeed, trial));
    const ScenarioResult result =
        runScenario(FaultPlan::Kind::kDelay, trial, delayTrials());
    expectByteIdentical(result, delayTrials());
    EXPECT_EQ(result.liveAfter, 2u);   // Rehabilitated, not killed.
    EXPECT_GE(result.reissues, 1u);
    EXPECT_GE(result.duplicates, 1u);  // The late completion was deduped.
  }
}

TEST(distributed_fault, FaultPlansAreReproducible) {
  // The repro contract: replaying (seed, trial) reconstructs the plan.
  util::Rng a = testutil::fuzzStream(kFaultSeed, 6);
  util::Rng b = testutil::fuzzStream(kFaultSeed, 6);
  const DistributedConfig da = faultyConfig(FaultPlan::Kind::kDelay, a);
  const DistributedConfig db = faultyConfig(FaultPlan::Kind::kDelay, b);
  EXPECT_EQ(da.fault.worker, db.fault.worker);
  EXPECT_EQ(da.fault.afterTrials, db.fault.afterTrials);
  EXPECT_EQ(da.fault.delayMillis, db.fault.delayMillis);
}

}  // namespace
}  // namespace dip::sim
