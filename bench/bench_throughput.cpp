// Throughput macro-benchmark: trials/sec per workload-registry cell
// (sim/workload), each an honest-prover acceptance run of one protocol.
//
// The deterministic table (protocol, trials, accepts, maxBits, digest) goes
// to stdout and is bit-identical at every thread count. Timings go to
// stderr and, with --json PATH, to a JSON file in the BENCH_throughput.json
// baseline format, together with each cell's digest.
//
// The same run also times a fixed calibration kernel (u64 Horner rows over
// Z_p, no allocation) and reports each cell's trials/sec divided by the
// kernel's rate. That quotient cancels most of the machine's speed, so
// tools/check_bench.py gates it against committed floors; the gate
// also requires every digest to equal the committed one. The bench exits 1
// if a rerun of a cell does not reproduce its first run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "bench/table.hpp"
#include "sim/workload.hpp"

using namespace dip;

namespace {

// Best-of-5 samples per cell keep the committed rates stable on noisy
// machines without inflating the smoke-step runtime; main() times the
// calibration kernel next to every sweep so frequency drift hits both.
constexpr int kRepeats = 5;
// Within a sample a cell reruns until this much wall time has passed, and
// its rate is all the trials it ran over that time: the GNI cells' committed
// runs take about a millisecond, too short to time alone.
constexpr double kMinSampleSeconds = 0.05;

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

struct Cell {
  std::string protocol;
  sim::TrialStats stats;  // The first run's.
  double bestRate = 0.0;  // Trials/s of the fastest sample.
};

// One sweep over the registry, one sample per cell: the cell reruns for at
// least kMinSampleSeconds. The first sweep fills `cells`. Returns false if
// any run's trials, accepts, max bits or digest differ from the cell's
// first run.
bool sweep(const sim::TrialConfig& config, std::vector<Cell>& cells) {
  const bool first = cells.empty();
  bool same = true;
  for (std::size_t i = 0; i < sim::workload::cells().size(); ++i) {
    const sim::workload::CellInfo& info = sim::workload::cells()[i];
    const std::unique_ptr<sim::workload::Cell> cell = sim::workload::makeCell(info.name);
    std::size_t trials = 0;
    double seconds = 0.0;
    while (seconds < kMinSampleSeconds) {
      sim::TrialStats stats = cell->run(config);
      if (first && trials == 0) cells.push_back({std::string(info.name), stats});
      if (!stats.sameResults(cells[i].stats)) {
        std::fprintf(stderr, "%s: a rerun's results differ from its first run\n",
                     cells[i].protocol.c_str());
        same = false;
      }
      trials += stats.trials;
      seconds += stats.wallSeconds;
    }
    cells[i].bestRate = std::max(cells[i].bestRate, double(trials) / seconds);
  }
  return same;
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

  bench::printHeader("THROUGHPUT", "Trial engine throughput per workload cell");

  std::vector<Cell> cells;
  double calibMops = 0.0;  // Best sample, timed next to every cell sweep.
  bool reproducible = true;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    calibMops = std::max(calibMops, calibrationMops());
    reproducible = sweep(engine, cells) && reproducible;
  }

  // Deterministic table only: identical at any pool size.
  std::printf("\n%-12s  %7s  %7s  %8s  %18s\n", "protocol", "trials", "accepts",
              "maxBits", "digest");
  bench::printRule();
  for (const Cell& cell : cells) {
    const sim::TrialStats& s = cell.stats;
    std::printf("%-12s  %7zu  %7zu  %8zu  0x%016llx\n", cell.protocol.c_str(),
                s.trials, s.accepts, s.maxPerNodeBits,
                static_cast<unsigned long long>(s.digest));
  }

  // Timings: stderr + optional JSON, never stdout.
  std::fprintf(stderr, "\ncalibration kernel: %.1f Mstep/s\n", calibMops);
  std::fprintf(stderr, "%-12s  %12s  %14s\n", "protocol", "trials/s", "batch/calib");
  for (const Cell& cell : cells) {
    std::fprintf(stderr, "%-12s  %12.1f  %14.3f\n", cell.protocol.c_str(), cell.bestRate,
                 cell.bestRate / calibMops);
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
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::fprintf(out,
                   "    {\"protocol\": \"%s\", \"trials\": %zu, "
                   "\"digest\": \"0x%016llx\", \"batch_trials_per_sec\": %.1f, "
                   "\"batch_per_calib\": %.4f}%s\n",
                   cells[i].protocol.c_str(), cells[i].stats.trials,
                   static_cast<unsigned long long>(cells[i].stats.digest),
                   cells[i].bestRate, cells[i].bestRate / calibMops,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }
  return reproducible ? 0 : 1;
}
