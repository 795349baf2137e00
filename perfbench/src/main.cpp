// dip_perfbench: one warm, long-run benchmark of the dip trial engine.
//
//   dip_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --reference FILE [--out-dir DIR] [--commit ID] [--source-id ID]
//   dip_perfbench --pin [--workload NAME]      (prints reference folds)
//
// A run builds the workload (timed as set-up), warms the machine on all
// cores until the pass rate stops rising, then measures for S seconds.
// --trace 0 measures end-to-end throughput untraced: alternating passes at
// nproc threads and at 1 thread. --trace 1 is the separate traced run: span
// self times per layer, body-timed engine passes, a dipd fleet and the
// direct layer probes. Every pass and request is checked against the pinned
// reference fold; the last stdout line is the JSON result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cells.hpp"
#include "hash/batch_eval.hpp"
#include "probes.hpp"
#include "sim/distributed.hpp"
#include "sim/workload.hpp"
#include "trace.hpp"
#include "util/montgomery.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

using namespace dip;
using namespace dip::perfbench;

namespace {

// Pool of pinned inputs: a run visits them in a seed-shuffled order, so the
// seed chooses the inputs and every pass still has a reference fold.
constexpr std::uint64_t kPoolSize = 16;
// Cold set-ups before the warm-up, and between the timed rounds of a
// --trace 0 run; setup_s is the median of all of them. Spread over the run,
// they sample the host's load as the passes do.
constexpr int kSetupRepeats = 5;
constexpr int kSetupsPerRound = 3;
// Warm-up stops once the rate stops rising by more than this share.
constexpr double kWarmRise = 0.02;
constexpr double kWarmMinSeconds = 1.0;
constexpr double kWarmMaxSeconds = 3.0;
// trials_per_s_1t is this quantile of a run's 1-thread pass rates. Other
// tenants of a shared host slow a 1-thread pass by up to a third, in spells
// of tens of seconds, and never speed it up: the median then tracks how busy
// the host was, while this quantile tracks the program's own speed as long as
// a tenth of the run's passes had the core's cache to themselves. An nproc
// pass pays thread wake-ups on every pass instead, so trials_per_s stays the
// median.
constexpr double kSerialQuantile = 0.9;
// dipd closed-loop requests per traced run (p90 then has 10 samples beyond it).
constexpr std::size_t kRequests = 100;
// The traced run's span self times must sum to the untraced pass time
// within this share.
constexpr double kSelfSumTolerance = 0.10;

// Trials of the first traced pass whose spans go to the span file.
constexpr std::uint64_t kWrittenTrials = 2000;

const std::int64_t g_processStart = nowNs();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool pin = false;
  std::string reference;
  std::string outDir = ".bench_out";
  std::string commit = "unknown";
  std::string sourceId = "unknown";
};

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peakRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// ---- Pinned reference ------------------------------------------------------

struct Fold {
  std::size_t accepts = 0;
  std::size_t trials = 0;
  std::size_t maxBits = 0;
  std::uint64_t digest = 0;

  static Fold of(const sim::TrialStats& stats) {
    return {stats.accepts, stats.trials, stats.maxPerNodeBits, stats.digest};
  }
  bool operator==(const Fold&) const = default;
};

// (workload, input, key) -> fold. key is a cell name for a pass's cell, or
// "req:<cell>" for a dipd request.
using Reference = std::map<std::tuple<std::string, std::uint64_t, std::string>, Fold>;

std::string referenceLine(const std::string& workload, std::uint64_t input,
                          const std::string& key, const Fold& fold) {
  std::ostringstream line;
  line << workload << ' ' << input << ' ' << key << ' ' << fold.accepts << ' ' << fold.trials
       << ' ' << fold.maxBits << ' ' << hex(fold.digest);
  return line.str();
}

Reference loadReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference reference;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, digest;
    std::uint64_t input = 0;
    Fold fold;
    if (!(fields >> workload >> input >> key >> fold.accepts >> fold.trials >> fold.maxBits >>
          digest)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    fold.digest = std::stoull(digest, nullptr, 16);
    reference[{workload, input, key}] = fold;
  }
  return reference;
}

// Counts operations and checks each against the reference.
class Checker {
 public:
  explicit Checker(const Reference& reference) : reference_(reference) {}

  // One operation whose folds are (key, fold) pairs; false on any mismatch.
  bool check(const std::string& workload, std::uint64_t input,
             const std::vector<std::pair<std::string, Fold>>& folds) {
    ++attempted_;
    for (const auto& [key, fold] : folds) {
      const auto it = reference_.find({workload, input, key});
      if (it == reference_.end() || !(it->second == fold)) {
        ++failed_;
        std::printf("FOLD MISMATCH: %s input %llu %s got %s\n", workload.c_str(),
                    static_cast<unsigned long long>(input), key.c_str(),
                    referenceLine(workload, input, key, fold).c_str());
        return false;
      }
    }
    return true;
  }
  void fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    std::printf("OPERATION FAILED: %s\n", what.c_str());
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  const Reference& reference_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- Passes ----------------------------------------------------------------

// The CPUs the process may run on. On a shared host the 1-thread rate
// differs by core with what runs beside it, so 1-thread passes visit the
// CPUs in turn instead of staying on whichever core the scheduler picked.
class Cpus {
 public:
  Cpus() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &all_)) ids_.push_back(cpu);
      }
    }
  }
  std::size_t count() const { return std::max<std::size_t>(ids_.size(), 1); }

  // Runs fn on the calling thread pinned to CPU slot (k mod count()), then
  // restores the full mask (threads started later inherit the mask).
  template <typename Fn>
  auto onCpu(std::size_t k, Fn&& fn) const {
    if (!ids_.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(ids_[k % ids_.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    auto result = fn();
    if (!ids_.empty()) sched_setaffinity(0, sizeof all_, &all_);
    return result;
  }

 private:
  cpu_set_t all_;
  std::vector<int> ids_;
};

enum class Mode { kUntraced, kInstrumented };

struct PassResult {
  double seconds = 0;
  std::vector<double> cellSeconds;
  std::size_t trials = 0;
  std::size_t decodeRejected = 0;
  bool ok = false;
  double rate() const { return seconds > 0 ? static_cast<double>(trials) / seconds : 0; }
};

PassResult runPass(const Workload& workload, std::uint64_t input, unsigned threads, Mode mode,
                   const Hooks& hooks, Checker& checker) {
  PassResult pass;
  std::vector<std::pair<std::string, Fold>> folds;
  try {
    std::vector<CellResult> results;
    const std::int64_t start = nowNs();
    {
      SpanScope span(hooks.tracer, "sim.pass");
      for (const auto& cell : workload.cells) {
        const std::int64_t cellStart = nowNs();
        results.push_back(mode == Mode::kUntraced
                              ? cell->run(input, threads)
                              : cell->runInstrumented(input, threads, hooks));
        pass.cellSeconds.push_back(seconds(nowNs() - cellStart));
      }
    }
    pass.seconds = seconds(nowNs() - start);
    for (std::size_t i = 0; i < results.size(); ++i) {
      folds.emplace_back(workload.cells[i]->name(), Fold::of(results[i].stats));
      pass.trials += results[i].stats.trials;
      pass.decodeRejected += results[i].decodeRejected;
    }
  } catch (const std::exception& error) {
    checker.fail(workload.name + " pass: " + error.what());
    return pass;
  }
  pass.ok = checker.check(workload.name, input, folds);
  return pass;
}

// Runs nproc passes until the rate stops rising: at least kWarmMinSeconds,
// and the last two passes each within kWarmRise of the best before them.
struct WarmUp {
  std::size_t passes = 0;
  double seconds = 0;
  double firstRate = 0;
  double lastRate = 0;
  bool plateaued = false;
};

WarmUp warmUp(const Workload& workload, const std::vector<std::uint64_t>& order,
              unsigned threads, Checker& checker) {
  WarmUp warm;
  std::vector<double> rates;
  const std::int64_t start = nowNs();
  int flat = 0;
  while (true) {
    const PassResult pass = runPass(workload, order[rates.size() % order.size()], threads,
                                    Mode::kUntraced, {}, checker);
    const double best = rates.empty() ? 0 : *std::max_element(rates.begin(), rates.end());
    flat = (!rates.empty() && pass.rate() <= best * (1 + kWarmRise)) ? flat + 1 : 0;
    rates.push_back(pass.rate());
    warm.seconds = seconds(nowNs() - start);
    if (flat >= 2 && warm.seconds >= kWarmMinSeconds) {
      warm.plateaued = true;
      break;
    }
    if (warm.seconds >= kWarmMaxSeconds) break;
  }
  warm.passes = rates.size();
  warm.firstRate = rates.front();
  warm.lastRate = rates.back();
  return warm;
}

// ---- Result output ---------------------------------------------------------

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::string contextJson(const Options& options, unsigned nproc) {
#ifdef DIP_AUDIT
  const bool audit = true;
#else
  const bool audit = false;
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu_model\": " << jsonString(cpuModel())
      << ", \"avx2\": " << (hash::avx2Enabled() ? "true" : "false")
      << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
      << ", \"flags\": " << jsonString(PERFBENCH_FLAGS)
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << ", \"dip_audit\": " << (audit ? "true" : "false")
      << ", \"commit\": " << jsonString(options.commit)
      << ", \"source_id\": " << jsonString(options.sourceId) << "}";
  return out.str();
}

// ---- The run -----------------------------------------------------------------

// One cold build of the named workload (prime and Montgomery caches emptied
// first); its time is appended to times.
Workload coldBuild(const std::string& name, std::vector<double>& times) {
  util::primeCacheResetForTests();
  util::montgomeryCacheResetForTests();
  const std::int64_t start = nowNs();
  Workload workload = makeWorkload(name);
  times.push_back(seconds(nowNs() - start));
  return workload;
}

std::vector<std::uint64_t> poolOrder(std::uint64_t seed) {
  std::vector<std::uint64_t> order(kPoolSize);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.nextBelow(i)]);
  }
  return order;
}

struct DipdResult {
  double spawnMs = 0;
  double trialsPerSecond = 0;
  double inprocTrialsPerSecond = 0;  // The same passes on the in-process engine.
  double p50Ms = 0;
  double p90Ms = 0;
  std::uint64_t reissues = 0;
  std::uint64_t duplicates = 0;
  double workerRssMb = 0;
};

// The dipd fleet: nproc workers x 1 thread, kept up across requests. Spawn is
// the first request (fork, handshake, first cell build); then whole passes
// for throughput and a closed loop of kRequests back-to-back requests.
DipdResult runDipd(const std::string& workloadName, std::uint64_t input, unsigned nproc,
                   double budgetSeconds, Checker& checker) {
  const DipdPlan plan = dipdPlan(workloadName);
  const Workload registry = makeWorkload(plan.workload);
  sim::DistributedConfig dist;
  dist.workers = nproc;
  dist.threadsPerWorker = 1;
  dist.grain = plan.grain;
  DipdResult result;
  sim::DistributedRunner runner(sim::TrialConfig{input, 1}, dist);

  auto request = [&](const std::string& cell, std::size_t trials, const std::string& key) {
    try {
      const sim::TrialStats stats = runner.runCell(cell, trials);
      result.reissues += runner.lastReissues();
      result.duplicates += runner.lastDuplicates();
      checker.check(plan.workload, input, {{key, Fold::of(stats)}});
      return stats.wallSeconds;
    } catch (const std::exception& error) {
      checker.fail("dipd " + cell + ": " + error.what());
      return 0.0;
    }
  };
  auto pass = [&] {
    double total = 0;
    for (const auto& cell : registry.cells) {
      total += request(cell->name(), cell->passTrials(), cell->name());
    }
    return total;
  };

  const std::string& first = registry.cells.front()->name();
  result.spawnMs = 1e3 * request(first, plan.requestTrials, "req:" + first);
  pass();  // Every worker builds its cells.
  // Alternates with in-process passes of the same cells at nproc threads,
  // so the dipd ratio compares equal work on equal cores.
  const std::int64_t start = nowNs();
  std::vector<double> rates, inproc;
  do {
    const PassResult local = runPass(registry, input, nproc, Mode::kUntraced, {}, checker);
    if (local.ok) inproc.push_back(local.rate());
    const double wall = pass();
    if (wall > 0) rates.push_back(static_cast<double>(registry.passTrials()) / wall);
  } while (rates.size() < 3 || seconds(nowNs() - start) < budgetSeconds);
  result.trialsPerSecond = median(rates);
  result.inprocTrialsPerSecond = median(inproc);

  std::vector<double> latencies;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::string& cell = registry.cells[i % registry.cells.size()]->name();
    latencies.push_back(1e3 * request(cell, plan.requestTrials, "req:" + cell));
  }
  result.p50Ms = percentile(latencies, 0.5);
  result.p90Ms = percentile(latencies, 0.9);
  runner.shutdown();
  result.workerRssMb = peakRssMb(RUSAGE_CHILDREN);
  std::printf("dipd: %u workers x 1 thread, grain %llu, fleet serves %s; %zu passes, "
              "%zu requests of %zu trials\n",
              nproc, static_cast<unsigned long long>(plan.grain), plan.workload.c_str(),
              rates.size(), latencies.size(), plan.requestTrials);
  return result;
}

int run(const Options& options, const Reference& reference) {
  const unsigned nproc = sim::resolveThreads(0);
  Checker checker(reference);
  const std::vector<std::uint64_t> order = poolOrder(options.seed);

  std::vector<double> setupTimes;
  Workload workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload = Workload{};
    workload = coldBuild(options.workload, setupTimes);
  }
  for (const auto& cell : workload.cells) cell->prepare();

  std::printf("dip_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace);
  std::printf("context: %s\n", contextJson(options, nproc).c_str());
  std::printf("%-14s %8s  %s\n", "cell", "trials", "field");
  for (const auto& cell : workload.cells) {
    std::printf("%-14s %8zu  %s\n", cell->name().c_str(), cell->passTrials(),
                cell->field().c_str());
  }
  std::printf("set-up: median of %d cold builds %.6f s\n", kSetupRepeats, median(setupTimes));

  const WarmUp warm = warmUp(workload, order, nproc, checker);
  std::printf("warm-up: %zu passes on %u threads, %.2f s, %.0f -> %.0f trials/s, %s\n",
              warm.passes, nproc, warm.seconds, warm.firstRate, warm.lastRate,
              warm.plateaued ? "rate plateaued" : "RATE STILL RISING");
  std::printf("process start to first timed trial (warm-up excluded): %.3f s\n",
              seconds(nowNs() - g_processStart) - warm.seconds);

  std::vector<Metric> metrics;
  std::size_t next = warm.passes;
  auto nextInput = [&] { return order[next++ % order.size()]; };
  const std::int64_t start = nowNs();
  auto elapsed = [&] { return seconds(nowNs() - start); };

  if (options.trace == 0) {
    const Cpus cpus;
    std::vector<double> wide, serial;
    std::vector<double> cellSeconds(workload.cells.size(), 0.0);
    std::size_t pairs = 0;
    do {
      for (int i = 0; i < kSetupsPerRound; ++i) coldBuild(options.workload, setupTimes);
      const std::uint64_t input = nextInput();
      const std::size_t slot = pairs++ % cpus.count();
      const PassResult many = runPass(workload, input, nproc, Mode::kUntraced, {}, checker);
      const PassResult one = cpus.onCpu(
          slot, [&] { return runPass(workload, input, 1, Mode::kUntraced, {}, checker); });
      if (many.ok) wide.push_back(many.rate());
      if (!one.ok) continue;
      serial.push_back(one.rate());
      for (std::size_t i = 0; i < cellSeconds.size(); ++i) cellSeconds[i] += one.cellSeconds[i];
    } while (pairs < std::max<std::size_t>(3, cpus.count()) || elapsed() < options.seconds);
    const double serialTotal = std::accumulate(cellSeconds.begin(), cellSeconds.end(), 0.0);
    std::printf("cell shares of a 1-thread pass:");
    for (std::size_t i = 0; i < cellSeconds.size(); ++i) {
      std::printf(" %s %.0f%%", workload.cells[i]->name().c_str(),
                  100 * cellSeconds[i] / serialTotal);
    }
    std::printf("\n");
    const double rate = median(wide);
    const double rate1 = percentile(serial, kSerialQuantile);
    std::printf("timed: %zu pass pairs in %.2f s, %zu trials per pass\n", wide.size(),
                elapsed(), workload.passTrials());
    std::printf("1-thread pass rate: median %.1f, %.0fth percentile %.1f\n", median(serial),
                100 * kSerialQuantile, rate1);
    std::printf("pass rates, %u threads:", nproc);
    for (const double r : wide) std::printf(" %.0f", r);
    std::printf("\npass rates, 1 thread:");
    for (const double r : serial) std::printf(" %.0f", r);
    std::printf("\n");
    std::printf("scaling: trials_per_s / trials_per_s_1t = %.3f (base: 1 thread, %u threads)\n",
                rate / rate1, nproc);
    std::printf("set-up: median of %zu cold builds over the run\n", setupTimes.size());
    metrics = {{"trials_per_s", rate, "1/s"},
               {"trials_per_s_1t", rate1, "1/s"},
               {"setup_s", median(setupTimes), "s"},
               {"peak_rss_mb", peakRssMb(RUSAGE_SELF), "MB"}};
  } else {
    Tracer tracer;
    std::map<std::string, std::int64_t> selfNs;
    const Cpus cpus;
    std::vector<double> untraced1, traced1, tracedShare, selfSum, dispatchUs, busyFrac;
    std::size_t tracedTrials = 0;
    std::size_t rejected = 0;
    std::size_t mutantTrials = 0;
    const bool mutating = options.workload == "sym_mutants";
    const double phaseSeconds = 0.45 * options.seconds;
    do {
      // The untraced and traced 1-thread passes of a round share one CPU.
      const std::uint64_t input = nextInput();
      const std::size_t slot = untraced1.size();
      const PassResult plain = cpus.onCpu(
          slot, [&] { return runPass(workload, input, 1, Mode::kUntraced, {}, checker); });
      const std::size_t from = tracer.spans().size();
      const PassResult traced = cpus.onCpu(slot, [&] {
        return runPass(workload, input, 1, Mode::kInstrumented, Hooks{&tracer, nullptr},
                       checker);
      });
      std::int64_t passSelf = 0;
      for (const auto& [name, ns] : tracer.selfTimesNs(from)) {
        selfNs[name] += ns;
        passSelf += ns;
      }
      // The spans of the first traced pass are written out; later passes
      // only add to the self times.
      if (from > 0) tracer.discardFrom(from);
      std::atomic<std::int64_t> bodyNs{0};
      const PassResult timed =
          runPass(workload, input, nproc, Mode::kInstrumented, Hooks{nullptr, &bodyNs}, checker);
      if (!(plain.ok && traced.ok && timed.ok)) continue;
      untraced1.push_back(plain.rate());
      traced1.push_back(traced.rate());
      tracedShare.push_back(traced.rate() / plain.rate());
      selfSum.push_back(seconds(passSelf) / plain.seconds);
      tracedTrials += traced.trials;
      if (mutating) {
        rejected += traced.decodeRejected;
        mutantTrials += traced.trials;
      }
      const double capacity = timed.seconds * nproc;
      dispatchUs.push_back(1e6 * (capacity - seconds(bodyNs.load())) /
                           static_cast<double>(timed.trials));
      busyFrac.push_back(seconds(bodyNs.load()) / capacity);
    } while (untraced1.size() < 2 || elapsed() < phaseSeconds);
    std::printf("traced: %zu rounds in %.2f s\n", untraced1.size(), elapsed());

    // The adv layer runs only under mutation: other workloads take one
    // traced sym_mutants pass for it.
    std::int64_t adapterNs = selfNs["adv.adapter"];
    if (!mutating) {
      const Workload mutants = makeWorkload("sym_mutants");
      Tracer advTracer;
      const PassResult pass = runPass(mutants, order.front(), 1, Mode::kInstrumented,
                                      Hooks{&advTracer, nullptr}, checker);
      adapterNs = advTracer.selfTimesNs()["adv.adapter"];
      rejected = pass.decodeRejected;
      mutantTrials = pass.trials;
    }
    mutantTrials = std::max<std::size_t>(mutantTrials, 1);

    const DipdResult dipd =
        runDipd(options.workload, order.front(), nproc, 0.15 * options.seconds, checker);
    const std::vector<Metric> probes = runLayerProbes(0.1 * options.seconds);

    const double trials = static_cast<double>(std::max<std::size_t>(tracedTrials, 1));
    auto perTrialUs = [&](const char* span) { return 1e-3 * selfNs[span] / trials; };
    const double overhead = 1.0 - median(tracedShare);
    std::printf("\nspan self time per trial (1 thread, %zu traced trials):\n", tracedTrials);
    std::int64_t totalSelf = 0;
    for (const auto& [name, ns] : selfNs) totalSelf += ns;
    for (const auto& [name, ns] : selfNs) {
      std::printf("  %-18s %10.3f us  %5.1f%%\n", name.c_str(), 1e-3 * ns / trials,
                  100.0 * static_cast<double>(ns) / static_cast<double>(totalSelf));
    }
    const double selfSumRatio = median(selfSum);
    std::printf("self times sum to %.3f of the untraced 1-thread pass: %s tolerance 1 +- %.2f\n",
                selfSumRatio,
                std::abs(selfSumRatio - 1) <= kSelfSumTolerance ? "within" : "OUTSIDE",
                kSelfSumTolerance);
    std::printf("tracing overhead: traced %.1f vs untraced %.1f trials/s at 1 thread (%.2f%%)\n",
                median(traced1), median(untraced1), 100 * overhead);
    const double dipdRatio = dipd.trialsPerSecond / dipd.inprocTrialsPerSecond;
    std::printf("dipd vs in-process at %u cores: %.1f / %.1f trials/s = %.3f (base: in-process "
                "TrialRunner, %u threads, same cells)\n",
                nproc, dipd.trialsPerSecond, dipd.inprocTrialsPerSecond, dipdRatio, nproc);
    std::printf("dipd requests: p50 %.3f ms, p90 %.3f ms over %zu samples\n", dipd.p50Ms,
                dipd.p90Ms, kRequests);

    metrics = {
        {"sim.dispatch_us", median(dispatchUs), "us"},
        {"sim.worker_busy_frac", median(busyFrac), "fraction"},
        {"sim.fold_ns_per_trial", 1e3 * perTrialUs("sim.fold"), "ns"},
        {"sim.dipd_spawn_ms", dipd.spawnMs, "ms"},
        {"sim.dipd_reissues", static_cast<double>(dipd.reissues), "count"},
        {"sim.dipd_duplicates", static_cast<double>(dipd.duplicates), "count"},
        {"sim.dipd_trials_per_s", dipd.trialsPerSecond, "1/s"},
        {"sim.dipd_request_p50_ms", dipd.p50Ms, "ms"},
        {"sim.dipd_request_p90_ms", dipd.p90Ms, "ms"},
        {"sim.dipd_vs_inproc", dipdRatio, "ratio"},
        {"sim.dipd_worker_rss_mb", dipd.workerRssMb, "MB"},
        {"core.prover_us", perTrialUs("core.prover"), "us"},
        {"core.verifier_us", perTrialUs("core.run"), "us"},
        {"adv.adapter_us", 1e-3 * adapterNs / static_cast<double>(mutantTrials), "us"},
        {"adv.decode_reject_frac",
         static_cast<double>(rejected) / static_cast<double>(mutantTrials), "fraction"},
        {"trace.overhead_frac", overhead, "fraction"},
    };
    metrics.insert(metrics.end(), probes.begin(), probes.end());
    std::filesystem::create_directories(options.outDir);
    const std::string spansPath = options.outDir + "/" + options.workload + "-seed" +
                                  std::to_string(options.seed) + "-spans.jsonl";
    if (!tracer.write(spansPath, kWrittenTrials)) std::printf("cannot write %s\n", spansPath.c_str());
  }

  const bool correct = checker.failed() == 0;
  std::printf("\noperations: %zu attempted, %zu failed (failed_frac %.6f)\n",
              checker.attempted(), checker.failed(),
              static_cast<double>(checker.failed()) / static_cast<double>(checker.attempted()));
  for (const Metric& metric : metrics) {
    std::printf("  %-26s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  std::filesystem::create_directories(options.outDir);
  const std::string recordPath = options.outDir + "/" + options.workload + "-seed" +
                                 std::to_string(options.seed) + "-trace" +
                                 std::to_string(options.trace) + ".json";
  if (std::FILE* out = std::fopen(recordPath.c_str(), "w")) {
    std::fprintf(out, "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"context\": %s,\n",
                 jsonString(options.workload).c_str(),
                 static_cast<unsigned long long>(options.seed), options.trace,
                 contextJson(options, nproc).c_str());
    std::fprintf(out, " \"cells\": [");
    for (std::size_t i = 0; i < workload.cells.size(); ++i) {
      std::fprintf(out, "%s{\"cell\": %s, \"trials\": %zu, \"field\": %s}", i ? ", " : "",
                   jsonString(workload.cells[i]->name()).c_str(),
                   workload.cells[i]->passTrials(),
                   jsonString(workload.cells[i]->field()).c_str());
    }
    std::fprintf(out, "],\n \"warm_up\": {\"passes\": %zu, \"seconds\": %.3f, \"plateaued\": %s},\n",
                 warm.passes, warm.seconds, warm.plateaued ? "true" : "false");
    std::fprintf(out, " \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                 checker.attempted(), checker.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::fprintf(out, "%s%s: {\"value\": %.17g, \"unit\": %s}", i ? ", " : "",
                   jsonString(metrics[i].name).c_str(), metrics[i].value,
                   jsonString(metrics[i].unit).c_str());
    }
    std::fprintf(out, "}}\n");
    std::fclose(out);
  }

  std::fflush(stdout);
  printResult(correct, checker.attempted(), checker.failed(), metrics);
  return correct ? 0 : 1;
}

// Prints the reference folds of every pool input: each workload's pass
// (at nproc threads; folds do not depend on the thread count) and, for the
// registry workloads, one dipd request per cell.
void pin(const std::string& only) {
  const unsigned nproc = sim::resolveThreads(0);
  std::printf("# workload input key accepts trials maxPerNodeBits digest\n");
  for (const std::string_view name : workloadNames()) {
    if (!only.empty() && name != only) continue;
    const Workload workload = makeWorkload(name);
    const DipdPlan plan = dipdPlan(name);
    for (std::uint64_t input = 0; input < kPoolSize; ++input) {
      for (const auto& cell : workload.cells) {
        std::printf("%s\n", referenceLine(workload.name, input, cell->name(),
                                          Fold::of(cell->run(input, nproc).stats))
                                .c_str());
      }
      if (plan.workload != name) continue;
      for (const auto& cell : workload.cells) {
        const auto registry = sim::workload::makeCell(cell->name());
        const sim::TrialStats stats = sim::foldOutcomes(
            registry->runRange(0, plan.requestTrials, sim::TrialConfig{input, nproc}));
        std::printf("%s\n",
                    referenceLine(workload.name, input, "req:" + cell->name(), Fold::of(stats))
                        .c_str());
      }
      std::fflush(stdout);
    }
  }
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = std::stoi(value());
    } else if (arg == "--pin") {
      options.pin = true;
    } else if (arg == "--reference") {
      options.reference = value();
    } else if (arg == "--out-dir") {
      options.outDir = value();
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--source-id") {
      options.sourceId = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (options.pin) return true;
  const auto names = workloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.trace != 0 && options.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  if (!(options.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  if (options.reference.empty()) throw std::invalid_argument("--reference is required");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    parse(argc, argv, options);
    if (options.pin) {
      pin(options.workload);
      return 0;
    }
    const Reference reference = loadReference(options.reference);
    return run(options, reference);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dip_perfbench: %s\n", error.what());
    return 2;
  }
}
