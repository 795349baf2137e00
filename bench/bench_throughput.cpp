// Throughput macro-benchmark: trials/sec per protocol, batch engine vs the
// scalar hash path on identical workloads.
//
// The deterministic table (protocol, trials, accepts, maxBits, digest) goes
// to stdout and is bit-identical at every thread count and in both engine
// modes — the batch engine changes evaluation strategy, never values.
// Timings (trials/sec, speedup) go to stderr and, with --json PATH, to a
// JSON file in the BENCH_throughput.json baseline format.
//
// The same run also times a fixed calibration kernel (u64 Horner rows over
// Z_p, no allocation) and reports each cell's batch trials/sec divided by
// the kernel's rate. That quotient cancels most of the machine's speed, so
// tools/check_throughput.py gates the batch engine on it against committed
// floors; the batch/scalar speedup is still reported, and a cell whose
// speedup drops below 1.0 still fails.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "bench/table.hpp"
#include "hash/batch_eval.hpp"
#include "sim/throughput.hpp"

using namespace dip;

namespace {

// Best-of-5 wall times per cell keep the committed speedups stable on noisy
// machines without inflating the smoke-step runtime; main() interleaves the
// scalar and batch repeats so thermal or frequency drift hits both modes
// equally.
constexpr int kRepeats = 5;

// The calibration kernel: kCalibRows independent Horner chains of
// kCalibCols steps acc = acc * a + c (mod 2^61 - 1), repeated kCalibPasses
// times -- the u64 linear-hash step the batch engine spends its time on,
// on fixed data and without touching the heap.
constexpr std::uint64_t kCalibPrime = (std::uint64_t{1} << 61) - 1;
constexpr std::size_t kCalibRows = 8;
constexpr std::size_t kCalibCols = 256;
constexpr int kCalibPasses = 2000;
volatile std::uint64_t g_calibSink = 0;

// Millions of kernel steps per second for one timed run of the kernel.
double calibrationMops() {
  __extension__ using U128 = unsigned __int128;
  std::uint64_t coeffs[kCalibCols];
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  for (auto& c : coeffs) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    c = seed % kCalibPrime;
  }
  std::uint64_t acc[kCalibRows];
  for (std::size_t r = 0; r < kCalibRows; ++r) acc[r] = r + 1;
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kCalibPasses; ++pass) {
    for (std::size_t col = 0; col < kCalibCols; ++col) {
      for (std::size_t r = 0; r < kCalibRows; ++r) {
        const std::uint64_t a = coeffs[(col + r) % kCalibCols] | 1;
        acc[r] = static_cast<std::uint64_t>(
            (static_cast<U128>(acc[r]) * a + coeffs[col]) % kCalibPrime);
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::uint64_t fold = 0;
  for (std::uint64_t value : acc) fold ^= value;
  g_calibSink = g_calibSink ^ fold;
  const double steps = double(kCalibPasses) * kCalibCols * kCalibRows;
  return steps / seconds / 1e6;
}

std::vector<sim::ThroughputCell> runOnce(const sim::TrialConfig& config, bool batch) {
  const bool saved = hash::batchEnabled();
  hash::setBatchEnabled(batch);
  std::vector<sim::ThroughputCell> cells = sim::runThroughputWorkload(config);
  hash::setBatchEnabled(saved);
  return cells;
}

void keepBest(std::vector<sim::ThroughputCell>& best,
              std::vector<sim::ThroughputCell>&& cells) {
  if (best.empty()) {
    best = std::move(cells);
    return;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].stats.wallSeconds < best[i].stats.wallSeconds) {
      best[i].stats.wallSeconds = cells[i].stats.wallSeconds;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const sim::TrialConfig engine = bench::parseTrialOptions(argc, argv);
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      jsonPath = argv[i] + 7;
    }
  }

  bench::printHeader("THROUGHPUT", "Trial engine throughput: batch vs scalar hash path");

  std::vector<sim::ThroughputCell> scalar;
  std::vector<sim::ThroughputCell> batch;
  double calibMops = 0.0;  // Best sample, timed next to every cell sweep.
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    calibMops = std::max(calibMops, calibrationMops());
    keepBest(scalar, runOnce(engine, false));
    calibMops = std::max(calibMops, calibrationMops());
    keepBest(batch, runOnce(engine, true));
  }

  // Deterministic table only: identical at any pool size and engine mode.
  std::printf("\n%-12s  %7s  %7s  %8s  %18s\n", "protocol", "trials", "accepts",
              "maxBits", "digest");
  bench::printRule();
  bool identical = true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const sim::TrialStats& s = batch[i].stats;
    std::printf("%-12s  %7zu  %7zu  %8zu  0x%016llx\n", batch[i].protocol.c_str(),
                s.trials, s.accepts, s.maxPerNodeBits,
                static_cast<unsigned long long>(s.digest));
    if (!s.sameResults(scalar[i].stats)) identical = false;
  }
  std::printf("\nbatch == scalar results: %s\n", identical ? "yes" : "NO (BUG)");

  // Timings: stderr + optional JSON, never stdout.
  std::fprintf(stderr, "\ncalibration kernel: %.1f Mstep/s\n", calibMops);
  std::fprintf(stderr, "%-12s  %12s  %12s  %8s  %14s\n", "protocol", "scalar t/s",
               "batch t/s", "speedup", "batch/calib");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::fprintf(stderr, "%-12s  %12.1f  %12.1f  %7.2fx  %14.3f\n",
                 batch[i].protocol.c_str(), scalar[i].trialsPerSecond(),
                 batch[i].trialsPerSecond(),
                 scalar[i].stats.wallSeconds / batch[i].stats.wallSeconds,
                 batch[i].trialsPerSecond() / calibMops);
  }

  if (!jsonPath.empty()) {
    std::FILE* out = std::fopen(jsonPath.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"benchmark\": \"bench_throughput\",\n"
                 "  \"threads\": %u,\n  \"calib_mops\": %.1f,\n  \"cells\": [\n",
                 engine.threads, calibMops);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::fprintf(out,
                   "    {\"protocol\": \"%s\", \"trials\": %zu, "
                   "\"scalar_trials_per_sec\": %.1f, \"batch_trials_per_sec\": %.1f, "
                   "\"speedup\": %.3f, \"batch_per_calib\": %.4f, "
                   "\"engine\": \"%s\"}%s\n",
                   batch[i].protocol.c_str(), batch[i].stats.trials,
                   scalar[i].trialsPerSecond(), batch[i].trialsPerSecond(),
                   scalar[i].stats.wallSeconds / batch[i].stats.wallSeconds,
                   batch[i].trialsPerSecond() / calibMops, batch[i].engine.c_str(),
                   i + 1 < batch.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }
  return identical ? 0 : 1;
}
