// The named trial-workload registry: the bridge between an engine substrate
// and the work it runs.
//
// A distributed run cannot ship a closure across a process boundary, so
// every shardable workload is a NAMED CELL: a protocol + instance + honest
// prover built deterministically from committed seeds, identified by a
// stable string. Both substrates resolve the same name to the same cell:
//
//   - TrialRunner (in-process): Cell::run(config) — the path
//     bench_throughput and the other benches use.
//   - DistributedRunner (multi-process): workers receive (cell name,
//     master seed, seed-range) in an ASSIGN frame, rebuild the cell locally
//     via makeCell, and execute Cell::runRange for the global indices.
//
// Because a trial outcome is a pure function of (cell, master seed, global
// trial index) and both paths fold through sim::foldOutcomes in index
// order, the two substrates are byte-identical by construction — the
// differential and fault-injection suites certify it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "sim/trial.hpp"
#include "sim/trial_runner.hpp"

namespace dip::sim::workload {

struct CellInfo {
  std::string_view name;     // Stable identifier, e.g. "sym_dmam_p1".
  std::size_t trials;        // Committed full-cell trial count.
  std::uint64_t seedOffset;  // Cell master seed = engine base seed + offset.
  bool gni;                  // Slow GNI group (vs the fast Sym-family group).
};

// The six committed cells, in table order (the bench_throughput order).
std::span<const CellInfo> cells();

// nullptr when no cell has that name.
const CellInfo* findCell(std::string_view name);

// A constructed cell: owns the protocol/instance/prover state built from
// the cell's committed seeds, exposes the trial body to either substrate.
// Construction is deterministic — two processes that makeCell the same name
// hold value-identical state.
class Cell {
 public:
  virtual ~Cell() = default;
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  const CellInfo& info() const { return info_; }

  // Outcomes for GLOBAL trial indices [lo, hi); requires hi <= info().trials
  // is NOT enforced — ranges address the infinite counter-derived stream,
  // the committed trial count only defines the full-cell table row.
  // config.masterSeed is the engine-level base seed; the cell's committed
  // offset is applied internally (matching bench table conventions).
  virtual std::vector<TrialOutcome> runRange(std::uint64_t lo, std::uint64_t hi,
                                             const TrialConfig& config) const = 0;

  // Full-cell run (or its first trialLimit trials when trialLimit > 0):
  // runRange(0, n) folded through sim::foldOutcomes, wall-clocked.
  TrialStats run(const TrialConfig& config, std::size_t trialLimit = 0,
                 std::vector<TrialOutcome>* outcomes = nullptr) const;

 protected:
  explicit Cell(const CellInfo& info) : info_(info) {}

 private:
  CellInfo info_;
};

// Builds the named cell; throws std::invalid_argument for unknown names.
std::unique_ptr<Cell> makeCell(std::string_view name);

}  // namespace dip::sim::workload
