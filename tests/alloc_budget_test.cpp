// Heap allocations per trial, held under committed ceilings.
//
// This binary replaces the global operator new with a counting one, which is
// why it is its own executable: the replacement touches no other test. Each
// Sym registry cell and the Protocol 2 n = 16 shape (a 78-bit field, the
// widest field a protocol cell uses) runs kTrials trials at 1 thread after a
// warm-up, and the allocations per trial must stay within 10% of the count
// committed below (measured with GCC 12.2 / libstdc++ on x86-64). Every field
// element of these cells fits BigUInt's two inline limbs, so a regression
// here usually means a field value went back to the heap, or a per-trial
// container appeared on a hot path. The two GNI cells run fewer trials: in
// each, the honest prover searches all 2 n! candidates for 64 repetitions.
//
// Skipped when DIP_AUDIT is on (the audit re-encodes every round, a
// different allocation profile by design) and under a sanitizer runtime
// (which replaces operator new itself and allocates for its own
// bookkeeping).
//
// The Montgomery batch entry points are held to zero: after warm-up,
// hashing rows on a multi-limb field must not touch the heap at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "adv/mutator.hpp"
#include "adv/stress.hpp"
#include "core/sym_dam.hpp"
#include "graph/generators.hpp"
#include "hash/batch_eval.hpp"
#include "hash/linear_hash.hpp"
#include "sim/acceptance.hpp"
#include "sim/trial.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::size_t> gAllocations{0};

void* countedAlloc(std::size_t size) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dip::sim {
namespace {

constexpr std::size_t kWarmupTrials = 200;
constexpr std::size_t kTrials = 2000;
constexpr std::size_t kGniWarmupTrials = 8;
constexpr std::size_t kGniTrials = 100;
// Trials per mutator of the battery cells (11 mutators each).
constexpr std::size_t kAdversaryWarmupTrials = 20;
constexpr std::size_t kAdversaryTrials = 100;

#if defined(DIP_AUDIT) || defined(DIP_ALLOC_BUDGET_SANITIZED)
constexpr const char* kSkipReason =
    "allocation counts are pinned for release builds: DIP_AUDIT re-encodes "
    "every round and sanitizer runtimes allocate for their own bookkeeping";
#else
constexpr const char* kSkipReason = nullptr;
#endif

// Heap allocations per trial of run(trials), after one uncounted warm-up.
template <typename Run>
double allocationsPerTrial(Run&& run, std::size_t warmup = kWarmupTrials,
                           std::size_t trials = kTrials) {
  run(warmup);
  gAllocations.store(0);
  gCounting.store(true);
  run(trials);
  gCounting.store(false);
  return static_cast<double>(gAllocations.load()) / static_cast<double>(trials);
}

TrialConfig oneThread() {
  TrialConfig config;
  config.threads = 1;
  return config;
}

constexpr double kHeadroom = 1.10;

struct CellBudget {
  const char* cell;
  double measured;  // Allocations per trial when the budget was committed.
};

void PrintTo(const CellBudget& budget, std::ostream* os) { *os << budget.cell; }

void expectCellWithinBudget(const CellBudget& budget, std::size_t warmup,
                            std::size_t trials) {
  const auto cell = workload::makeCell(budget.cell);
  const double perTrial = allocationsPerTrial(
      [&](std::size_t count) { cell->run(oneThread(), count); }, warmup, trials);
  ::testing::Test::RecordProperty("allocations_per_trial", std::to_string(perTrial));
  EXPECT_LE(perTrial, budget.measured * kHeadroom) << budget.cell;
}

class SymCellBudget : public ::testing::TestWithParam<CellBudget> {};

TEST_P(SymCellBudget, AllocationsPerTrialWithinCeiling) {
  if (kSkipReason != nullptr) GTEST_SKIP() << kSkipReason;
  expectCellWithinBudget(GetParam(), kWarmupTrials, kTrials);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SymCellBudget,
    ::testing::Values(CellBudget{"sym_dmam_p1", 14}, CellBudget{"sym_dam_p2", 12},
                      CellBudget{"dsym_dam", 12}, CellBudget{"sym_input", 38}),
    [](const ::testing::TestParamInfo<CellBudget>& info) {
      return std::string(info.param.cell);
    });

class GniCellBudget : public ::testing::TestWithParam<CellBudget> {};

TEST_P(GniCellBudget, AllocationsPerTrialWithinCeiling) {
  if (kSkipReason != nullptr) GTEST_SKIP() << kSkipReason;
  expectCellWithinBudget(GetParam(), kGniWarmupTrials, kGniTrials);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, GniCellBudget,
    ::testing::Values(CellBudget{"gni_amam", 186.3}, CellBudget{"gni_general", 373.5}),
    [](const ::testing::TestParamInfo<CellBudget>& info) {
      return std::string(info.param.cell);
    });

// The wire-mutation battery at 1 thread, per trial over all 11 mutators:
// one battery call per run, so its set-up (instance, mutators, report)
// is part of the count.
struct AdversaryCell {
  const char* name;
  adv::StressFn stress;
  double measured;  // Allocations per trial when the budget was committed.
};

void PrintTo(const AdversaryCell& cell, std::ostream* os) { *os << cell.name; }

class AdversaryBudget : public ::testing::TestWithParam<AdversaryCell> {};

TEST_P(AdversaryBudget, AllocationsPerTrialWithinCeiling) {
  if (kSkipReason != nullptr) GTEST_SKIP() << kSkipReason;
  const AdversaryCell& cell = GetParam();
  const std::size_t mutators = adv::standardMutators().size();
  const double perTrial = allocationsPerTrial(
      [&](std::size_t trials) {
        adv::StressOptions options;
        options.trialsPerMutator = trials / mutators;
        options.threads = 1;
        cell.stress(options);
      },
      kAdversaryWarmupTrials * mutators, kAdversaryTrials * mutators);
  RecordProperty("allocations_per_trial", std::to_string(perTrial));
  EXPECT_LE(perTrial, cell.measured * kHeadroom) << cell.name;
}

INSTANTIATE_TEST_SUITE_P(
    Battery, AdversaryBudget,
    ::testing::Values(AdversaryCell{"stressSymDam", &adv::stressSymDam, 35.0},
                      AdversaryCell{"stressSymDmam", &adv::stressSymDmam, 57.5}),
    [](const ::testing::TestParamInfo<AdversaryCell>& info) {
      return std::string(info.param.name);
    });

TEST(AllocBudget, Protocol2AtSixteenNodesWithinCeiling) {
  if (kSkipReason != nullptr) GTEST_SKIP() << kSkipReason;
  constexpr std::size_t kN = 16;
  constexpr double kMeasured = 12;
  const core::SymDamProtocol protocol(hash::makeProtocol2FamilyCached(kN));
  util::Rng rng(4000 + kN);
  const graph::Graph graph = graph::randomSymmetricConnected(kN, rng);
  const double perTrial = allocationsPerTrial([&](std::size_t trials) {
    estimateAcceptance(
        protocol, graph,
        [&](std::size_t) {
          return std::make_unique<core::HonestSymDamProver>(protocol.family());
        },
        trials, oneThread());
  });
  RecordProperty("allocations_per_trial", std::to_string(perTrial));
  EXPECT_LE(perTrial, kMeasured * kHeadroom);
}

TEST(AllocBudget, MontgomeryBatchRowsAllocateNothingWhenWarm) {
  if (kSkipReason != nullptr) GTEST_SKIP() << kSkipReason;
  // Protocol 2's n = 16 field (78 bits, two Montgomery limbs), rebinding
  // between two indices the way consecutive trials do.
  constexpr std::size_t kN = 16;
  const hash::LinearHashFamily family = hash::makeProtocol2FamilyCached(kN);
  ASSERT_FALSE(family.prime().fitsU64());
  util::Rng rng(4100 + kN);
  const graph::Graph graph = graph::randomSymmetricConnected(kN, rng);
  std::vector<std::uint64_t> rowIndices;
  std::vector<util::DynBitset> rows;
  for (graph::Vertex v = 0; v < kN; ++v) {
    rowIndices.push_back(v);
    rows.push_back(graph.closedRow(v));
  }
  const util::BigUInt indices[2] = {family.randomIndex(rng), family.randomIndex(rng)};
  hash::BatchLinearHashEvaluator evaluator;
  std::vector<util::BigUInt> out;
  util::BigUInt total;
  const double perRound = allocationsPerTrial([&](std::size_t rounds) {
    for (std::size_t i = 0; i < rounds; ++i) {
      evaluator.rebind(family, indices[i % 2]);
      evaluator.hashMatrixRows(rowIndices, rows, kN, out);
      total = evaluator.accumulateMatrixRows(rowIndices, rows, kN);
    }
  });
  EXPECT_EQ(perRound, 0.0);
}

}  // namespace
}  // namespace dip::sim
