// The benchmark's workloads: each is a fixed mix of cells, built once in
// set-up and then run as whole passes.
//
// Every cell runs one way untraced — through the library entry point a
// user calls (the registry sim::workload::Cell, sim::estimateAcceptanceRange
// or the adv::stress* battery) — and one way instrumented: the same trials
// through the benchmark's own trial body on sim::TrialRunner::runRange, with
// prover decorators and span or body timers around the library calls. Both
// ways produce the same fold, and the fold is checked against the pinned
// reference either way.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trial.hpp"
#include "trace.hpp"

namespace dip::perfbench {

// Instrumentation for an instrumented pass. With a tracer (1 thread only),
// every library call is a span; with bodyNs, each trial body's duration is
// added to it (any thread count). Both null: the own body, untimed.
struct Hooks {
  Tracer* tracer = nullptr;
  std::atomic<std::int64_t>* bodyNs = nullptr;
};

struct CellResult {
  sim::TrialStats stats;           // Deterministic fold (wallSeconds unused).
  std::size_t decodeRejected = 0;  // Mutants that died at the wire decoder.
};

class BenchCell {
 public:
  virtual ~BenchCell() = default;
  BenchCell(const BenchCell&) = delete;
  BenchCell& operator=(const BenchCell&) = delete;

  const std::string& name() const { return name_; }
  // Trials one pass runs (for a battery cell: all mutators together).
  std::size_t passTrials() const { return passTrials_; }

  // Builds what runInstrumented and field() need beyond the untraced path
  // (the benchmark's own copy of a registry cell). Kept out of set-up time.
  virtual void prepare() {}
  // Prime width and hash backend, e.g. "28-bit u64"; valid after prepare().
  virtual std::string field() const = 0;

  virtual CellResult run(std::uint64_t input, unsigned threads) const = 0;
  virtual CellResult runInstrumented(std::uint64_t input, unsigned threads,
                                     const Hooks& hooks) const = 0;

 protected:
  BenchCell(std::string name, std::size_t passTrials)
      : name_(std::move(name)), passTrials_(passTrials) {}

 private:
  std::string name_;
  std::size_t passTrials_;
};

struct Workload {
  std::string name;
  std::vector<std::unique_ptr<BenchCell>> cells;

  std::size_t passTrials() const;
};

// The dipd fleet serves registry cells only. A workload without them probes
// the fleet on another workload's registry cells.
struct DipdPlan {
  std::string workload;       // Registry workload the fleet runs.
  std::size_t requestTrials;  // Trials of one closed-loop request.
  std::uint64_t grain;        // Seed-range width.
};

std::vector<std::string_view> workloadNames();
DipdPlan dipdPlan(std::string_view workload);

// Builds every cell of the named workload: prime searches, protocol
// parameters, instances. Throws std::invalid_argument for an unknown name.
Workload makeWorkload(std::string_view name);

}  // namespace dip::perfbench
