// The bench_throughput workload's determinism contract: every registry
// cell's deterministic columns (accepts, trials, maxPerNodeBits, digest) are
// a pure function of the master seed — identical at 1, 2 and 8 worker
// threads, and equal to the digests committed in BENCH_throughput.json.
// Only wallSeconds may differ, and TrialStats::sameResults excludes it.
//
// The fast Sym-family cells and the slow GNI cells run as separate tests so
// the sanitizer jobs (this suite is in the tsan preset's regex) keep a
// bounded wall time per test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/workload.hpp"

namespace dip::sim {
namespace {

TrialConfig config(unsigned threads) {
  TrialConfig c;
  c.masterSeed = 0;  // The committed-baseline workload.
  c.threads = threads;
  return c;
}

// The digest column of BENCH_throughput.json (masterSeed 0).
std::uint64_t committedDigest(std::string_view protocol) {
  struct Row {
    std::string_view protocol;
    std::uint64_t digest;
  };
  static constexpr Row kRows[] = {
      {"sym_dmam_p1", 0x9278db7cca222d33ull}, {"sym_dam_p2", 0x372a9113bc417d28ull},
      {"dsym_dam", 0x7f21e198a6a38af3ull},    {"sym_input", 0x4f0392c9c1d2ef5cull},
      {"gni_amam", 0x055a73e97bd1b935ull},    {"gni_general", 0x446ccb23f25aa2b6ull},
  };
  for (const Row& row : kRows) {
    if (row.protocol == protocol) return row.digest;
  }
  ADD_FAILURE() << "no committed digest for " << protocol;
  return 0;
}

struct CellRun {
  std::string_view name;
  TrialStats stats;
};

// Full-cell runs of the registry cells of one group (fast or GNI).
std::vector<CellRun> runGroup(const TrialConfig& c, bool gni) {
  std::vector<CellRun> runs;
  for (const workload::CellInfo& info : workload::cells()) {
    if (info.gni == gni) runs.push_back({info.name, workload::makeCell(info.name)->run(c)});
  }
  return runs;
}

// Every thread count reproduces the committed digest of every cell, and the
// same accepts and per-node cost as the 1-thread run.
void expectDeterministic(bool gni, std::size_t cellCount,
                         std::initializer_list<unsigned> threadCounts) {
  const std::vector<CellRun> baseline = runGroup(config(1), gni);
  ASSERT_EQ(baseline.size(), cellCount);
  for (const CellRun& run : baseline) {
    EXPECT_EQ(run.stats.digest, committedDigest(run.name))
        << run.name << std::hex << ": got digest 0x" << run.stats.digest;
  }
  for (unsigned threads : threadCounts) {
    const std::vector<CellRun> runs = runGroup(config(threads), gni);
    ASSERT_EQ(runs.size(), baseline.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const TrialStats& got = runs[i].stats;
      const TrialStats& want = baseline[i].stats;
      EXPECT_TRUE(got.sameResults(want))
          << threads << " threads, cell " << runs[i].name << ": accepts " << got.accepts
          << "/" << want.accepts << " digest " << std::hex << got.digest << "/" << want.digest;
    }
  }
}

// "Engine" here is the trial engine: its worker pool at each thread count.
TEST(throughput_determinism, FastCellsIdenticalAcrossThreadsAndEngine) {
  expectDeterministic(false, 4, {2u, 8u});
}

TEST(throughput_determinism, GniCellsIdenticalAcrossThreadsAndEngine) {
  expectDeterministic(true, 2, {8u});
}

TEST(throughput_determinism, MasterSeedOffsetsChangeResults) {
  // The master seed must actually reach the per-trial randomness. The fast
  // Sym-family cells cannot show this through TrialStats: honest provers
  // always accept and their wire messages are fixed-width, so accepts and
  // the bit-accounting digest are seed-invariant by design. The GNI cells'
  // transcripts carry variable-width field elements, so their digests (and
  // maxPerNodeBits) shift with the seed.
  TrialConfig other = config(1);
  other.masterSeed = 1;
  const std::vector<CellRun> a = runGroup(config(1), true);
  const std::vector<CellRun> b = runGroup(other, true);
  ASSERT_EQ(a.size(), b.size());
  bool anyDiffer = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].stats.sameResults(b[i].stats)) anyDiffer = true;
  }
  EXPECT_TRUE(anyDiffer) << "master seed must reach every cell";
}

}  // namespace
}  // namespace dip::sim
