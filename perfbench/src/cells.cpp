#include "cells.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "adv/adapters_wire.hpp"
#include "adv/mutator.hpp"
#include "adv/stress.hpp"
#include "core/dsym_dam.hpp"
#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_input.hpp"
#include "graph/generators.hpp"
#include "hash/linear_hash.hpp"
#include "sim/acceptance.hpp"
#include "sim/trial_runner.hpp"
#include "sim/workload.hpp"
#include "util/montgomery.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

namespace dip::perfbench {

namespace {

using Body = std::function<sim::TrialOutcome(sim::TrialContext&, Tracer*)>;

// ---- Prover decorators: one span per call into a prover interface --------

template <typename Interface>
class TracedBase : public Interface {
 public:
  TracedBase(std::unique_ptr<Interface> inner, Tracer& tracer, const char* span)
      : inner_(std::move(inner)), tracer_(tracer), span_(span) {}

 protected:
  std::unique_ptr<Interface> inner_;
  Tracer& tracer_;
  const char* span_;
};

template <typename Interface>
class Traced;

template <>
class Traced<core::SymDmamProver> final : public TracedBase<core::SymDmamProver> {
 public:
  using TracedBase::TracedBase;
  core::SymDmamFirstMessage firstMessage(const graph::Graph& g) override {
    SpanScope span(&tracer_, span_);
    return inner_->firstMessage(g);
  }
  core::SymDmamSecondMessage secondMessage(
      const graph::Graph& g, const core::SymDmamFirstMessage& first,
      const std::vector<util::BigUInt>& challenges) override {
    SpanScope span(&tracer_, span_);
    return inner_->secondMessage(g, first, challenges);
  }
};

template <>
class Traced<core::SymDamProver> final : public TracedBase<core::SymDamProver> {
 public:
  using TracedBase::TracedBase;
  core::SymDamMessage respond(const graph::Graph& g,
                              const std::vector<util::BigUInt>& challenges) override {
    SpanScope span(&tracer_, span_);
    return inner_->respond(g, challenges);
  }
};

template <>
class Traced<core::DSymProver> final : public TracedBase<core::DSymProver> {
 public:
  using TracedBase::TracedBase;
  core::DSymMessage respond(const graph::Graph& g,
                            const std::vector<util::BigUInt>& challenges) override {
    SpanScope span(&tracer_, span_);
    return inner_->respond(g, challenges);
  }
};

template <>
class Traced<core::SymInputProver> final : public TracedBase<core::SymInputProver> {
 public:
  using TracedBase::TracedBase;
  core::SymInputFirstMessage firstMessage(const core::SymInputInstance& instance) override {
    SpanScope span(&tracer_, span_);
    return inner_->firstMessage(instance);
  }
  core::SymInputSecondMessage secondMessage(
      const core::SymInputInstance& instance, const core::SymInputFirstMessage& first,
      const std::vector<util::BigUInt>& challenges) override {
    SpanScope span(&tracer_, span_);
    return inner_->secondMessage(instance, first, challenges);
  }
};

template <>
class Traced<core::GniProver> final : public TracedBase<core::GniProver> {
 public:
  using TracedBase::TracedBase;
  core::GniFirstMessage firstMessage(
      const core::GniInstance& instance,
      const std::vector<std::vector<core::GniChallenge>>& challenges) override {
    SpanScope span(&tracer_, span_);
    return inner_->firstMessage(instance, challenges);
  }
  core::GniSecondMessage secondMessage(
      const core::GniInstance& instance,
      const std::vector<std::vector<core::GniChallenge>>& challenges,
      const core::GniFirstMessage& first,
      const std::vector<util::BigUInt>& checkChallenges) override {
    SpanScope span(&tracer_, span_);
    return inner_->secondMessage(instance, challenges, first, checkChallenges);
  }
};

template <>
class Traced<core::GniGeneralProver> final : public TracedBase<core::GniGeneralProver> {
 public:
  using TracedBase::TracedBase;
  core::GniGenFirstMessage firstMessage(
      const core::GniInstance& instance,
      const std::vector<std::vector<core::GniChallenge>>& challenges) override {
    SpanScope span(&tracer_, span_);
    return inner_->firstMessage(instance, challenges);
  }
  core::GniGenSecondMessage secondMessage(
      const core::GniInstance& instance,
      const std::vector<std::vector<core::GniChallenge>>& challenges,
      const core::GniGenFirstMessage& first,
      const std::vector<util::BigUInt>& checkChallenges) override {
    SpanScope span(&tracer_, span_);
    return inner_->secondMessage(instance, challenges, first, checkChallenges);
  }
};

template <typename Interface>
std::unique_ptr<Interface> traced(std::unique_ptr<Interface> inner, Tracer* tracer,
                                  const char* span) {
  if (tracer == nullptr) return inner;
  return std::make_unique<Traced<Interface>>(std::move(inner), *tracer, span);
}

// ---- The benchmark's own trial body ---------------------------------------

// protocol.run inside a core.run span; its self time is the verifier side.
template <typename Protocol, typename Instance, typename Prover>
sim::TrialOutcome runTrial(const Protocol& protocol, const Instance& instance,
                           Prover& prover, sim::TrialContext& ctx, Tracer* tracer) {
  const core::RunResult result = [&] {
    SpanScope span(tracer, "core.run");
    return protocol.run(instance, prover, ctx.rng);
  }();
  return {result.accepted, result.transcript.maxPerNodeBits(), sim::runDigest(result)};
}

std::vector<sim::TrialOutcome> runOwnRange(std::uint64_t masterSeed, unsigned threads,
                                           std::size_t trials, const Hooks& hooks,
                                           const Body& body) {
  const sim::TrialRunner runner(sim::TrialConfig{masterSeed, threads});
  Tracer* tracer = hooks.tracer;
  SpanScope span(tracer, "sim.runner");
  if (tracer != nullptr) {
    return runner.runRange(0, trials, [&](sim::TrialContext& ctx) {
      tracer->beginTrial();
      sim::TrialOutcome outcome;
      {
        SpanScope trial(tracer, "sim.trial");
        outcome = body(ctx, tracer);
      }
      tracer->endTrial();
      return outcome;
    });
  }
  if (hooks.bodyNs != nullptr) {
    return runner.runRange(0, trials, [&](sim::TrialContext& ctx) {
      const std::int64_t start = nowNs();
      sim::TrialOutcome outcome = body(ctx, nullptr);
      hooks.bodyNs->fetch_add(nowNs() - start, std::memory_order_relaxed);
      return outcome;
    });
  }
  return runner.runRange(0, trials,
                         [&](sim::TrialContext& ctx) { return body(ctx, nullptr); });
}

sim::TrialStats fold(const std::vector<sim::TrialOutcome>& outcomes, Tracer* tracer) {
  SpanScope span(tracer, "sim.fold");
  return sim::foldOutcomes(outcomes);
}

std::string describeField(const util::BigUInt& prime) {
  std::string text = std::to_string(prime.bitLength()) + "-bit ";
  if (prime.fitsU64()) return text + "u64";
  return text + "Montgomery k=" +
         std::to_string(util::cachedMontgomeryContext(prime)->numLimbs());
}

// ---- Registry cells ---------------------------------------------------------

// The benchmark's copy of one registry cell: built exactly as
// src/sim/workload.cpp builds it, so its folds equal the registry's.
struct OwnCell {
  Body body;
  std::string field;
};

OwnCell ownSymDmamP1() {
  const std::size_t n = 48;
  util::Rng rng(701);
  auto protocol = std::make_shared<core::SymDmamProtocol>(hash::makeProtocol1FamilyCached(n));
  auto g = std::make_shared<graph::Graph>(graph::randomSymmetricConnected(n, rng));
  return {[protocol, g](sim::TrialContext& ctx, Tracer* tracer) {
            auto prover = traced<core::SymDmamProver>(
                std::make_unique<core::HonestSymDmamProver>(protocol->family()), tracer,
                "core.prover");
            return runTrial(*protocol, *g, *prover, ctx, tracer);
          },
          describeField(protocol->family().prime())};
}

OwnCell ownSymDamP2() {
  const std::size_t n = 6;
  util::Rng rng(702);
  auto protocol = std::make_shared<core::SymDamProtocol>(hash::makeProtocol2FamilyCached(n));
  auto g = std::make_shared<graph::Graph>(graph::randomSymmetricConnected(n, rng));
  return {[protocol, g](sim::TrialContext& ctx, Tracer* tracer) {
            auto prover = traced<core::SymDamProver>(
                std::make_unique<core::HonestSymDamProver>(protocol->family()), tracer,
                "core.prover");
            return runTrial(*protocol, *g, *prover, ctx, tracer);
          },
          describeField(protocol->family().prime())};
}

OwnCell ownDsymDam() {
  const std::size_t side = 8;
  util::Rng rng(703);
  const graph::DSymLayout layout = graph::dsymLayout(side, 1);
  auto protocol = std::make_shared<core::DSymDamProtocol>(
      layout, hash::makeProtocol1FamilyCached(layout.numVertices));
  const graph::Graph f = graph::randomRigidConnected(side, rng);
  auto yes = std::make_shared<graph::Graph>(graph::dsymInstance(f, 1));
  return {[protocol, yes](sim::TrialContext& ctx, Tracer* tracer) {
            auto prover = traced<core::DSymProver>(
                std::make_unique<core::HonestDSymProver>(protocol->layout(),
                                                         protocol->family()),
                tracer, "core.prover");
            return runTrial(*protocol, *yes, *prover, ctx, tracer);
          },
          describeField(protocol->family().prime())};
}

OwnCell ownSymInput() {
  const std::size_t n = 8;
  util::Rng rng(704);
  auto protocol = std::make_shared<core::SymInputProtocol>(hash::makeProtocol1FamilyCached(n));
  auto instance = std::make_shared<core::SymInputInstance>(core::SymInputInstance{
      graph::randomConnected(n, n / 2, rng), graph::randomSymmetricConnected(n, rng)});
  return {[protocol, instance](sim::TrialContext& ctx, Tracer* tracer) {
            auto prover = traced<core::SymInputProver>(
                std::make_unique<core::HonestSymInputProver>(protocol->family()), tracer,
                "core.prover");
            return runTrial(*protocol, *instance, *prover, ctx, tracer);
          },
          describeField(protocol->family().prime())};
}

OwnCell ownGniAmam() {
  util::Rng setup(705);
  auto protocol = std::make_shared<core::GniAmamProtocol>(core::GniParams::choose(6, setup));
  util::Rng rng(70599);
  auto yes = std::make_shared<core::GniInstance>(core::gniYesInstance(6, rng));
  return {[protocol, yes](sim::TrialContext& ctx, Tracer* tracer) {
            auto prover = traced<core::GniProver>(
                std::make_unique<core::HonestGniProver>(protocol->params()), tracer,
                "core.prover");
            return runTrial(*protocol, *yes, *prover, ctx, tracer);
          },
          "GS " + describeField(protocol->params().gsHash.fieldPrime()) + ", check " +
              describeField(protocol->params().checkFamily.prime())};
}

OwnCell ownGniGeneral() {
  util::Rng setup(706);
  auto protocol = std::make_shared<core::GniGeneralProtocol>(
      core::GniGeneralParams::choose(6, setup));
  util::Rng rng(70699);
  auto yes = std::make_shared<core::GniInstance>(core::gniGeneralYesInstance(6, rng));
  return {[protocol, yes](sim::TrialContext& ctx, Tracer* tracer) {
            auto prover = traced<core::GniGeneralProver>(
                std::make_unique<core::HonestGniGeneralProver>(protocol->params()), tracer,
                "core.prover");
            return runTrial(*protocol, *yes, *prover, ctx, tracer);
          },
          "GS " + describeField(protocol->params().gsHash.fieldPrime()) + ", check " +
              describeField(protocol->params().checkFamily.prime())};
}

OwnCell makeOwnCell(std::string_view name) {
  if (name == "sym_dmam_p1") return ownSymDmamP1();
  if (name == "sym_dam_p2") return ownSymDamP2();
  if (name == "dsym_dam") return ownDsymDam();
  if (name == "sym_input") return ownSymInput();
  if (name == "gni_amam") return ownGniAmam();
  return ownGniGeneral();
}

class RegistryCell final : public BenchCell {
 public:
  RegistryCell(std::string_view name, std::size_t passTrials)
      : BenchCell(std::string(name), passTrials),
        registry_(sim::workload::makeCell(name)) {}

  void prepare() override {
    if (!own_.body) own_ = makeOwnCell(name());
  }
  std::string field() const override { return own_.field; }

  CellResult run(std::uint64_t input, unsigned threads) const override {
    return {sim::foldOutcomes(
                registry_->runRange(0, passTrials(), sim::TrialConfig{input, threads})),
            0};
  }

  CellResult runInstrumented(std::uint64_t input, unsigned threads,
                             const Hooks& hooks) const override {
    const std::uint64_t seed = input + registry_->info().seedOffset;
    return {fold(runOwnRange(seed, threads, passTrials(), hooks, own_.body), hooks.tracer),
            0};
  }

 private:
  std::unique_ptr<sim::workload::Cell> registry_;
  OwnCell own_;
};

// ---- sym_bigfield: Protocol 2 at n = 16 --------------------------------

// The E3 row whose prime (p in [10 n^18, 100 n^18], 78 bits) needs two
// Montgomery limbs: the one honest cell on the multi-limb path.
class BigFieldCell final : public BenchCell {
 public:
  static constexpr std::uint64_t kSeedOffset = 4216;

  explicit BigFieldCell(std::size_t passTrials)
      : BenchCell("sym_dam_n16", passTrials),
        protocol_(hash::makeProtocol2FamilyCached(kN)),
        graph_(makeGraph()) {}

  std::string field() const override { return describeField(protocol_.family().prime()); }

  CellResult run(std::uint64_t input, unsigned threads) const override {
    return {sim::foldOutcomes(sim::estimateAcceptanceRange(
                protocol_, graph_,
                [&](std::size_t) {
                  return std::make_unique<core::HonestSymDamProver>(protocol_.family());
                },
                0, passTrials(), sim::TrialConfig{input + kSeedOffset, threads})),
            0};
  }

  CellResult runInstrumented(std::uint64_t input, unsigned threads,
                             const Hooks& hooks) const override {
    const Body body = [this](sim::TrialContext& ctx, Tracer* tracer) {
      auto prover = traced<core::SymDamProver>(
          std::make_unique<core::HonestSymDamProver>(protocol_.family()), tracer,
          "core.prover");
      return runTrial(protocol_, graph_, *prover, ctx, tracer);
    };
    return {fold(runOwnRange(input + kSeedOffset, threads, passTrials(), hooks, body),
                 hooks.tracer),
            0};
  }

 private:
  static constexpr std::size_t kN = 16;
  static graph::Graph makeGraph() {
    util::Rng rng(4000 + kN);
    return graph::randomSymmetricConnected(kN, rng);
  }

  core::SymDamProtocol protocol_;
  graph::Graph graph_;
};

// ---- sym_mutants: the wire-mutation battery ----------------------------

// Per-protocol fold of a battery report: mutator cells in order, each
// contributing its stats and its decoder-rejection count.
void foldMutatorCell(CellResult& into, const sim::TrialStats& stats,
                     std::size_t decodeRejected) {
  into.stats.accepts += stats.accepts;
  into.stats.trials += stats.trials;
  into.stats.maxPerNodeBits = std::max(into.stats.maxPerNodeBits, stats.maxPerNodeBits);
  into.stats.digest = sim::digestCombine(into.stats.digest, stats.digest);
  into.stats.digest = sim::digestCombine(into.stats.digest, decodeRejected);
  into.decodeRejected += decodeRejected;
}

// The instrumented battery mirrors adv::stress.cpp's runBattery: the same
// per-mutator seed derivation, instance stream, adapter stream and
// decoder-rejection sentinel, so its folds equal adv::stress*'s.
constexpr sim::TrialOutcome kMutantRejectedOutcome{false, 0, 0x4D75'7452'656A'6374ULL};
constexpr std::uint64_t kAdapterStream = 0x4D55;
constexpr std::uint64_t kStressSeedBase = 0xE14;

util::Rng instanceRng(std::uint64_t masterSeed, std::uint64_t protocolIndex) {
  return util::Rng(sim::digestCombine(masterSeed, protocolIndex)).child(0x1257a9ce);
}

// A mutant trial: the base prover wrapped in core.prover spans, the Mutant*
// adapter around it in adv.adapter spans; adapter self time is adapter
// minus base prover time.
using MutantTrial = std::function<sim::TrialOutcome(const adv::MessageMutator&,
                                                    sim::TrialContext&, Tracer*)>;
struct Battery {
  MutantTrial trial;
  util::BigUInt prime;
};
using BatteryFactory = Battery (*)(std::uint64_t masterSeed);

Battery symDmamBattery(std::uint64_t masterSeed) {
  const std::size_t n = 8;
  util::Rng rng = instanceRng(masterSeed, 0);
  auto protocol = std::make_shared<core::SymDmamProtocol>(hash::makeProtocol1FamilyCached(n));
  auto rigid = std::make_shared<graph::Graph>(graph::randomRigidConnected(n, rng));
  return {[protocol, rigid](const adv::MessageMutator& mutator, sim::TrialContext& ctx,
                            Tracer* tracer) {
    auto base = traced<core::SymDmamProver>(
        std::make_unique<core::CheatingRhoProver>(
            protocol->family(), core::CheatingRhoProver::Strategy::kRandomPermutation,
            ctx.index),
        tracer, "core.prover");
    auto prover = traced<core::SymDmamProver>(
        std::make_unique<adv::MutantSymDmamProver>(std::move(base), mutator,
                                                   protocol->family(),
                                                   ctx.rng.child(kAdapterStream)),
        tracer, "adv.adapter");
    return runTrial(*protocol, *rigid, *prover, ctx, tracer);
  }, protocol->family().prime()};
}

Battery symDamBattery(std::uint64_t masterSeed) {
  const std::size_t n = 8;
  util::Rng rng = instanceRng(masterSeed, 1);
  auto protocol = std::make_shared<core::SymDamProtocol>(hash::makeProtocol2FamilyCached(n));
  auto rigid = std::make_shared<graph::Graph>(graph::randomRigidConnected(n, rng));
  return {[protocol, rigid](const adv::MessageMutator& mutator, sim::TrialContext& ctx,
                            Tracer* tracer) {
    auto base = traced<core::SymDamProver>(
        std::make_unique<core::AdaptiveCollisionProver>(protocol->family(), 25, ctx.index),
        tracer, "core.prover");
    auto prover = traced<core::SymDamProver>(
        std::make_unique<adv::MutantSymDamProver>(std::move(base), mutator,
                                                  protocol->family(),
                                                  ctx.rng.child(kAdapterStream)),
        tracer, "adv.adapter");
    return runTrial(*protocol, *rigid, *prover, ctx, tracer);
  }, protocol->family().prime()};
}

Battery dsymBattery(std::uint64_t masterSeed) {
  const std::size_t side = 6;
  util::Rng rng = instanceRng(masterSeed, 2);
  const graph::DSymLayout layout = graph::dsymLayout(side, 1);
  const util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{layout.numVertices}, 3);
  auto protocol = std::make_shared<core::DSymDamProtocol>(
      layout,
      hash::LinearHashFamily(
          util::cachedPrimeInRange(util::BigUInt{10} * n3, util::BigUInt{100} * n3),
          static_cast<std::uint64_t>(layout.numVertices) * layout.numVertices));
  const graph::Graph f = graph::randomRigidConnected(side, rng);
  graph::Graph fOther = graph::randomRigidConnected(side, rng);
  while (fOther == f) fOther = graph::randomRigidConnected(side, rng);
  auto no = std::make_shared<graph::Graph>(graph::dsymNoInstance(f, fOther, 1));
  return {[protocol, no](const adv::MessageMutator& mutator, sim::TrialContext& ctx,
                         Tracer* tracer) {
    auto base = traced<core::DSymProver>(
        std::make_unique<core::CheatingDSymProver>(protocol->layout(), protocol->family()),
        tracer, "core.prover");
    auto prover = traced<core::DSymProver>(
        std::make_unique<adv::MutantDSymProver>(std::move(base), mutator, protocol->family(),
                                                ctx.rng.child(kAdapterStream)),
        tracer, "adv.adapter");
    return runTrial(*protocol, *no, *prover, ctx, tracer);
  }, protocol->family().prime()};
}

Battery symInputBattery(std::uint64_t masterSeed) {
  const std::size_t n = 8;
  util::Rng rng = instanceRng(masterSeed, 3);
  auto protocol = std::make_shared<core::SymInputProtocol>(hash::makeProtocol1FamilyCached(n));
  auto instance = std::make_shared<core::SymInputInstance>(core::SymInputInstance{
      graph::randomConnected(n, n / 2, rng), graph::randomRigidConnected(n, rng)});
  return {[protocol, instance](const adv::MessageMutator& mutator, sim::TrialContext& ctx,
                               Tracer* tracer) {
    auto base = traced<core::SymInputProver>(
        std::make_unique<core::CheatingSymInputProver>(
            protocol->family(),
            core::CheatingSymInputProver::Strategy::kFakeRhoHonestClaims, ctx.index),
        tracer, "core.prover");
    auto prover = traced<core::SymInputProver>(
        std::make_unique<adv::MutantSymInputProver>(std::move(base), mutator,
                                                    protocol->family(),
                                                    ctx.rng.child(kAdapterStream)),
        tracer, "adv.adapter");
    return runTrial(*protocol, *instance, *prover, ctx, tracer);
  }, protocol->family().prime()};
}

class BatteryCell final : public BenchCell {
 public:
  BatteryCell(std::string name, std::uint64_t protocolIndex, adv::StressFn stress,
              BatteryFactory makeBattery, std::size_t trialsPerMutator)
      : BenchCell(std::move(name), trialsPerMutator * adv::standardMutators().size()),
        protocolIndex_(protocolIndex),
        stress_(stress),
        makeBattery_(makeBattery),
        trialsPerMutator_(trialsPerMutator),
        // Building one battery runs the protocol's prime search (every later
        // build hits the prime cache); every input shares the field.
        field_(describeField(makeBattery_(kStressSeedBase).prime)) {}

  std::string field() const override { return field_; }

  CellResult run(std::uint64_t input, unsigned threads) const override {
    adv::StressOptions options;
    options.trialsPerMutator = trialsPerMutator_;
    options.masterSeed = kStressSeedBase + input;
    options.threads = threads;
    const adv::SoundnessStressReport report = stress_(options);
    CellResult result;
    for (const adv::MutatorCell& cell : report.cells) {
      foldMutatorCell(result, cell.stats, cell.decodeRejected);
    }
    return result;
  }

  CellResult runInstrumented(std::uint64_t input, unsigned threads,
                             const Hooks& hooks) const override {
    const std::uint64_t masterSeed = kStressSeedBase + input;
    const MutantTrial trial = [&] {
      SpanScope span(hooks.tracer, "adv.battery_setup");
      return makeBattery_(masterSeed).trial;
    }();
    const std::vector<std::unique_ptr<adv::MessageMutator>> mutators = adv::standardMutators();
    const std::uint64_t protocolSeed = sim::digestCombine(masterSeed, protocolIndex_);
    CellResult result;
    for (std::size_t m = 0; m < mutators.size(); ++m) {
      const adv::MessageMutator& mutator = *mutators[m];
      const Body body = [&](sim::TrialContext& ctx, Tracer* tracer) {
        try {
          return trial(mutator, ctx, tracer);
        } catch (const adv::MutantRejected&) {
          return kMutantRejectedOutcome;
        }
      };
      const std::vector<sim::TrialOutcome> outcomes =
          runOwnRange(sim::digestCombine(protocolSeed, m), threads, trialsPerMutator_,
                      hooks, body);
      const sim::TrialStats stats = fold(outcomes, hooks.tracer);
      const auto rejected = static_cast<std::size_t>(
          std::count(outcomes.begin(), outcomes.end(), kMutantRejectedOutcome));
      foldMutatorCell(result, stats, rejected);
    }
    return result;
  }

 private:
  std::uint64_t protocolIndex_;
  adv::StressFn stress_;
  BatteryFactory makeBattery_;
  std::size_t trialsPerMutator_;
  std::string field_;
};

// ---- Workload table --------------------------------------------------------

// Trials per pass. The Sym mix is time-balanced: each cell takes about the
// same share of a pass.
struct CellSpec {
  std::string_view cell;
  std::size_t trials;
};
constexpr CellSpec kSymU64[] = {
    {"sym_dmam_p1", 1800}, {"sym_dam_p2", 15000}, {"dsym_dam", 5000}, {"sym_input", 4000}};
constexpr CellSpec kGniSearch[] = {{"gni_amam", 20}, {"gni_general", 8}};
constexpr std::size_t kBigFieldTrials = 15000;
// Each mutator is its own TrialRunner call (threads started and joined), so
// a mutator's trials are sized to keep that a small share of a pass.
constexpr std::size_t kTrialsPerMutator = 360;

}  // namespace

std::size_t Workload::passTrials() const {
  std::size_t total = 0;
  for (const auto& cell : cells) total += cell->passTrials();
  return total;
}

std::vector<std::string_view> workloadNames() {
  return {"sym_u64", "sym_bigfield", "gni_search", "sym_mutants"};
}

DipdPlan dipdPlan(std::string_view workload) {
  if (workload == "gni_search") return {"gni_search", 4, 1};
  return {"sym_u64", 256, 64};
}

Workload makeWorkload(std::string_view name) {
  Workload workload;
  workload.name = std::string(name);
  if (name == "sym_u64" || name == "gni_search") {
    for (const CellSpec& spec : name == "sym_u64" ? std::span<const CellSpec>(kSymU64)
                                                  : std::span<const CellSpec>(kGniSearch)) {
      workload.cells.push_back(std::make_unique<RegistryCell>(spec.cell, spec.trials));
    }
  } else if (name == "sym_bigfield") {
    workload.cells.push_back(std::make_unique<BigFieldCell>(kBigFieldTrials));
  } else if (name == "sym_mutants") {
    workload.cells.push_back(std::make_unique<BatteryCell>(
        "sym_dmam", 0, &adv::stressSymDmam, &symDmamBattery, kTrialsPerMutator));
    workload.cells.push_back(std::make_unique<BatteryCell>(
        "sym_dam", 1, &adv::stressSymDam, &symDamBattery, kTrialsPerMutator));
    workload.cells.push_back(std::make_unique<BatteryCell>(
        "dsym_dam", 2, &adv::stressDSym, &dsymBattery, kTrialsPerMutator));
    workload.cells.push_back(std::make_unique<BatteryCell>(
        "sym_input", 3, &adv::stressSymInput, &symInputBattery, kTrialsPerMutator));
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  return workload;
}

}  // namespace dip::perfbench
