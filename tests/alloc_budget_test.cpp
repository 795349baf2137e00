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
// container appeared on a hot path.
//
// Skipped when DIP_AUDIT is on (the audit re-encodes every round, a
// different allocation profile by design) and under a sanitizer runtime
// (which replaces operator new itself and allocates for its own
// bookkeeping).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>

#include "core/sym_dam.hpp"
#include "graph/generators.hpp"
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

#if defined(DIP_AUDIT) || defined(DIP_ALLOC_BUDGET_SANITIZED)
constexpr const char* kSkipReason =
    "allocation counts are pinned for release builds: DIP_AUDIT re-encodes "
    "every round and sanitizer runtimes allocate for their own bookkeeping";
#else
constexpr const char* kSkipReason = nullptr;
#endif

// Heap allocations per trial of run(trials), after one uncounted warm-up.
template <typename Run>
double allocationsPerTrial(Run&& run) {
  run(kWarmupTrials);
  gAllocations.store(0);
  gCounting.store(true);
  run(kTrials);
  gCounting.store(false);
  return static_cast<double>(gAllocations.load()) / static_cast<double>(kTrials);
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

class SymCellBudget : public ::testing::TestWithParam<CellBudget> {};

TEST_P(SymCellBudget, AllocationsPerTrialWithinCeiling) {
  if (kSkipReason != nullptr) GTEST_SKIP() << kSkipReason;
  const CellBudget& budget = GetParam();
  const auto cell = workload::makeCell(budget.cell);
  const double perTrial = allocationsPerTrial(
      [&](std::size_t trials) { cell->run(oneThread(), trials); });
  RecordProperty("allocations_per_trial", std::to_string(perTrial));
  EXPECT_LE(perTrial, budget.measured * kHeadroom) << budget.cell;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SymCellBudget,
    ::testing::Values(CellBudget{"sym_dmam_p1", 21}, CellBudget{"sym_dam_p2", 23},
                      CellBudget{"dsym_dam", 16}, CellBudget{"sym_input", 98}),
    [](const ::testing::TestParamInfo<CellBudget>& info) {
      return std::string(info.param.cell);
    });

TEST(AllocBudget, Protocol2AtSixteenNodesWithinCeiling) {
  if (kSkipReason != nullptr) GTEST_SKIP() << kSkipReason;
  constexpr std::size_t kN = 16;
  constexpr double kMeasured = 33;
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

}  // namespace
}  // namespace dip::sim
