#include "adv/stress.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <utility>

#include "adv/adapters_wire.hpp"
#include "adv/mutator.hpp"
#include "core/dsym_dam.hpp"
#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_input.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "hash/linear_hash.hpp"
#include "sim/acceptance.hpp"
#include "sim/trial_runner.hpp"
#include "util/primes.hpp"

namespace dip::adv {
namespace {

// Outcome sentinel for trials whose mutant died at the decoder. Rejection
// IS the verdict (accepted = false); the digest tags the trial so the cell
// can report how many mutants never even reached the verifiers.
constexpr sim::TrialOutcome kMutantRejectedOutcome{false, 0, 0x4D75'7452'656A'6374ULL};

// The adapter's private mutation stream within a trial (everything else in
// the trial draws from ctx.rng directly).
constexpr std::uint64_t kAdapterStream = 0x4D55;

sim::TrialOutcome outcomeOf(const core::RunResult& result) {
  return {result.accepted, result.transcript.maxPerNodeBits(), sim::runDigest(result)};
}

// Shared battery: every mutator's trials go to the engine as ONE dispatch
// (TrialRunner::runBatches), seeds derived as masterSeed -> protocolIndex
// -> mutatorIndex -> trialIndex. Trial (m, t) sees ctx.batch = m and
// ctx.index = t, and each mutator's outcomes fold in index order into its
// own cell, so a report is the same as one TrialRunner batch per mutator.
// The battery's wall time is shared among the cells by trial count.
template <typename RunTrial>
SoundnessStressReport runBattery(const char* protocolName, std::size_t numNodes,
                                 std::uint64_t protocolIndex,
                                 const StressOptions& options, RunTrial&& runTrial) {
  SoundnessStressReport report;
  report.protocol = protocolName;
  report.numNodes = numNodes;
  report.masterSeed = options.masterSeed;

  const std::vector<std::unique_ptr<MessageMutator>> mutators = standardMutators();
  const std::uint64_t protocolSeed =
      sim::digestCombine(options.masterSeed, protocolIndex);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(mutators.size());
  report.cells.resize(mutators.size());
  for (std::size_t m = 0; m < mutators.size(); ++m) {
    seeds.push_back(sim::digestCombine(protocolSeed, m));
    report.cells[m].mutator = mutators[m]->name();
  }
  sim::TrialConfig config;
  config.threads = options.threads;
  const auto started = std::chrono::steady_clock::now();
  sim::TrialRunner(config).runBatches(
      seeds, options.trialsPerMutator,
      [&](sim::TrialContext& ctx) -> sim::TrialOutcome {
        try {
          return runTrial(*mutators[ctx.batch], ctx);
        } catch (const MutantRejected&) {
          return kMutantRejectedOutcome;
        }
      },
      [&](std::size_t m, std::span<const sim::TrialOutcome> outcomes) {
        MutatorCell& cell = report.cells[m];
        cell.stats = sim::foldOutcomes(outcomes);
        cell.decodeRejected = static_cast<std::size_t>(
            std::count(outcomes.begin(), outcomes.end(), kMutantRejectedOutcome));
      });
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  for (MutatorCell& cell : report.cells) {
    cell.stats.wallSeconds = wallSeconds / static_cast<double>(report.cells.size());
  }
  return report;
}

// Instance derivation stream for a protocol entry (independent of the
// per-mutator trial streams).
util::Rng instanceRng(const StressOptions& options, std::uint64_t protocolIndex) {
  return util::Rng(sim::digestCombine(options.masterSeed, protocolIndex))
      .child(0x1257a9ce);
}

}  // namespace

std::size_t SoundnessStressReport::totalTrials() const {
  std::size_t total = 0;
  for (const MutatorCell& cell : cells) total += cell.stats.trials;
  return total;
}

std::size_t SoundnessStressReport::totalAccepts() const {
  std::size_t total = 0;
  for (const MutatorCell& cell : cells) total += cell.stats.accepts;
  return total;
}

std::size_t SoundnessStressReport::totalDecodeRejected() const {
  std::size_t total = 0;
  for (const MutatorCell& cell : cells) total += cell.decodeRejected;
  return total;
}

// Protocol 1 on a rigid graph: the base prover already commits to a fake
// rho (the strongest classic cheater), and the mutator tampers on top.
SoundnessStressReport stressSymDmam(const StressOptions& options) {
  const std::size_t n = 8;
  util::Rng rng = instanceRng(options, 0);
  core::SymDmamProtocol protocol(hash::makeProtocol1FamilyCached(n));
  graph::Graph rigid = graph::randomRigidConnected(n, rng);
  return runBattery("sym_dmam", n, 0, options,
                    [&](const MessageMutator& mutator, sim::TrialContext& ctx) {
                      auto base = std::make_unique<core::CheatingRhoProver>(
                          protocol.family(),
                          core::CheatingRhoProver::Strategy::kRandomPermutation,
                          ctx.index);
                      MutantSymDmamProver prover(std::move(base), mutator,
                                                 protocol.family(),
                                                 ctx.rng.child(kAdapterStream));
                      return outcomeOf(protocol.run(rigid, prover, ctx.rng));
                    });
}

// Protocol 2 on a rigid graph: the adaptive collision searcher plus wire
// tampering (the challenge-adaptive surface of the dAM model).
SoundnessStressReport stressSymDam(const StressOptions& options) {
  const std::size_t n = 8;
  util::Rng rng = instanceRng(options, 1);
  core::SymDamProtocol protocol(hash::makeProtocol2FamilyCached(n));
  graph::Graph rigid = graph::randomRigidConnected(n, rng);
  return runBattery("sym_dam", n, 1, options,
                    [&](const MessageMutator& mutator, sim::TrialContext& ctx) {
                      auto base = std::make_unique<core::AdaptiveCollisionProver>(
                          protocol.family(), 25, ctx.index);
                      MutantSymDamProver prover(std::move(base), mutator,
                                                protocol.family(),
                                                ctx.rng.child(kAdapterStream));
                      return outcomeOf(protocol.run(rigid, prover, ctx.rng));
                    });
}

// DSym on a mismatched-sides NO instance: honest play is the optimal
// cheating strategy here, so the mutators probe whether tampering can do
// better than the forced messages.
SoundnessStressReport stressDSym(const StressOptions& options) {
  const std::size_t side = 6;
  util::Rng rng = instanceRng(options, 2);
  graph::DSymLayout layout = graph::dsymLayout(side, 1);
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{layout.numVertices}, 3);
  core::DSymDamProtocol protocol(
      layout,
      hash::LinearHashFamily(
          util::cachedPrimeInRange(util::BigUInt{10} * n3, util::BigUInt{100} * n3),
          static_cast<std::uint64_t>(layout.numVertices) * layout.numVertices));
  graph::Graph f = graph::randomRigidConnected(side, rng);
  graph::Graph fOther = graph::randomRigidConnected(side, rng);
  while (fOther == f) fOther = graph::randomRigidConnected(side, rng);
  graph::Graph no = graph::dsymNoInstance(f, fOther, 1);
  return runBattery("dsym_dam", layout.numVertices, 2, options,
                    [&](const MessageMutator& mutator, sim::TrialContext& ctx) {
                      auto base = std::make_unique<core::CheatingDSymProver>(
                          layout, protocol.family());
                      MutantDSymProver prover(std::move(base), mutator,
                                              protocol.family(),
                                              ctx.rng.child(kAdapterStream));
                      return outcomeOf(protocol.run(no, prover, ctx.rng));
                    });
}

// Input-symmetry protocol on a rigid input: the fake-rho cheater must also
// fabricate neighbor claims, giving the mutators a claims surface the
// network-symmetry protocols lack.
SoundnessStressReport stressSymInput(const StressOptions& options) {
  const std::size_t n = 8;
  util::Rng rng = instanceRng(options, 3);
  core::SymInputProtocol protocol(hash::makeProtocol1FamilyCached(n));
  core::SymInputInstance instance{graph::randomConnected(n, n / 2, rng),
                                  graph::randomRigidConnected(n, rng)};
  return runBattery(
      "sym_input", n, 3, options,
      [&](const MessageMutator& mutator, sim::TrialContext& ctx) {
        auto base = std::make_unique<core::CheatingSymInputProver>(
            protocol.family(),
            core::CheatingSymInputProver::Strategy::kFakeRhoHonestClaims, ctx.index);
        MutantSymInputProver prover(std::move(base), mutator, protocol.family(),
                                    ctx.rng.child(kAdapterStream));
        return outcomeOf(protocol.run(instance, prover, ctx.rng));
      });
}

// GNI dAMAM on an isomorphic (NO) instance: the honest prover is the
// optimal cheater (its claim rate is the soundness error), mutators tamper
// with the two Merlin rounds around it.
SoundnessStressReport stressGniAmam(const StressOptions& options) {
  const std::size_t n = 6;
  util::Rng rng = instanceRng(options, 4);
  core::GniAmamProtocol protocol(core::GniParams::choose(n, rng));
  core::GniInstance instance = core::gniNoInstance(n, rng);
  return runBattery("gni_amam", n, 4, options,
                    [&](const MessageMutator& mutator, sim::TrialContext& ctx) {
                      auto base =
                          std::make_unique<core::HonestGniProver>(protocol.params());
                      MutantGniProver prover(std::move(base), mutator,
                                             protocol.params(),
                                             ctx.rng.child(kAdapterStream));
                      return outcomeOf(protocol.run(instance, prover, ctx.rng));
                    });
}

// General GNI on an isomorphic symmetric instance (n = 4: the automorphism
// enumeration makes larger NO instances orders of magnitude slower).
SoundnessStressReport stressGniGeneral(const StressOptions& options) {
  const std::size_t n = 4;
  util::Rng rng = instanceRng(options, 5);
  core::GniGeneralProtocol protocol(core::GniGeneralParams::choose(n, rng));
  core::GniInstance instance = core::gniGeneralNoInstance(n, rng);
  return runBattery(
      "gni_general", n, 5, options,
      [&](const MessageMutator& mutator, sim::TrialContext& ctx) {
        auto base = std::make_unique<core::HonestGniGeneralProver>(protocol.params());
        MutantGniGeneralProver prover(std::move(base), mutator, protocol.params(),
                                      ctx.rng.child(kAdapterStream));
        return outcomeOf(protocol.run(instance, prover, ctx.rng));
      });
}

const std::vector<StressProtocolEntry>& stressProtocols() {
  static const std::vector<StressProtocolEntry> entries = {
      {"sym_dmam", &stressSymDmam},   {"sym_dam", &stressSymDam},
      {"dsym_dam", &stressDSym},      {"sym_input", &stressSymInput},
      {"gni_amam", &stressGniAmam},   {"gni_general", &stressGniGeneral},
  };
  return entries;
}

}  // namespace dip::adv
