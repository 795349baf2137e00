// Tests for sim::parallelMap — the deterministic indexed fan-out that the
// census (and any future sweep) builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/parallel_map.hpp"

namespace dip::sim {
namespace {

TEST(ParallelMap, ResultsLandAtTheirOwnIndex) {
  auto results = parallelMap<std::size_t>(100, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ParallelMap, IdenticalAcrossThreadCounts) {
  // The determinism contract: the result vector is a pure function of
  // (count, fn), never of the pool size or scheduling.
  auto reference = parallelMap<std::uint64_t>(
      257, 1, [](std::size_t i) { return (i * 2654435761u) ^ (i << 7); });
  for (unsigned threads : {2u, 3u, 8u, 64u}) {
    auto results = parallelMap<std::uint64_t>(
        257, threads, [](std::size_t i) { return (i * 2654435761u) ^ (i << 7); });
    EXPECT_EQ(results, reference) << "threads=" << threads;
  }
}

TEST(ParallelMap, NonTrivialResultTypes) {
  auto results = parallelMap<std::string>(
      10, 4, [](std::size_t i) { return std::string(i, 'x'); });
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i].size(), i);
}

TEST(ParallelMap, EmptyBatchReturnsEmpty) {
  auto results = parallelMap<int>(0, 8, [](std::size_t) { return 1; });
  EXPECT_TRUE(results.empty());
}

TEST(ParallelMap, SmallestIndexFailureWins) {
  // Several items throw; the caller must see the failure with the smallest
  // index regardless of which worker hit which item first.
  for (unsigned threads : {1u, 4u}) {
    try {
      parallelMap<int>(64, threads, [](std::size_t i) -> int {
        if (i % 10 == 7) throw std::runtime_error("item " + std::to_string(i));
        return static_cast<int>(i);
      });
      FAIL() << "expected a rethrown failure";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 7") << "threads=" << threads;
    }
  }
}

TEST(ParallelMap, EveryIndexRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(200);
  for (auto& h : hits) h.store(0);
  parallelMap<int>(200, 8, [&](std::size_t i) {
    hits[i].fetch_add(1);
    return 0;
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelMap, PoolBatchesIdenticalAsThreadCountsGrowAndShrink) {
  auto fn = [](std::size_t i) { return (i * 0x9E3779B97F4A7C15ull) ^ (i >> 3); };
  const auto reference = parallelMap<std::uint64_t>(500, 1, fn);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (unsigned threads : {2u, 8u, 3u}) {
      EXPECT_EQ(parallelMap<std::uint64_t>(500, threads, fn), reference)
          << "threads=" << threads << " repeat=" << repeat;
    }
  }
}

TEST(ParallelMap, NestedMapRunsInlineAndMatchesSerial) {
  auto outer = [](unsigned threads) {
    return parallelMap<std::uint64_t>(24, threads, [](std::size_t i) {
      const auto inner = parallelMap<std::uint64_t>(
          10, 4, [i](std::size_t j) { return i * 100 + j * j; });
      std::uint64_t sum = 0;
      for (std::uint64_t value : inner) sum = sum * 31 + value;
      return sum;
    });
  };
  EXPECT_EQ(outer(4), outer(1));
}

}  // namespace
}  // namespace dip::sim
