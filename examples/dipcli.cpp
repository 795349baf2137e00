// dipcli — command-line driver for the library.
//
// Subcommands:
//   dipcli sym     --n 16 [--rigid] [--seed 7] [--trials 50]
//   dipcli dam     --n 8  [--rigid] [--seed 7]
//   dipcli dsym    --side 6 --radius 2 [--no]
//   dipcli gni     --n 6 [--iso] [--trials 100]     (2 <= n <= 15)
//   dipcli census  --n 6
//   dipcli packing --max 16384
//   dipcli cost    --n 64
//
// Every run prints the verdict and the exact per-node communication, so the
// tool doubles as a quick calculator for "what would this protocol cost on
// my network".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/dsym_dam.hpp"
#include "core/api.hpp"
#include "core/gni_amam.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "graph/builders.hpp"
#include "graph/generators.hpp"
#include "graph/graph6.hpp"
#include "graph/isomorphism.hpp"
#include "lb/census.hpp"
#include "lb/packing.hpp"
#include "pls/sym_lcp.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

using namespace dip;

namespace {

struct Args {
  std::string graph6;
  std::size_t n = 16;
  std::size_t side = 6;
  std::size_t radius = 2;
  std::size_t max = 16384;
  std::uint64_t seed = 7;
  std::size_t trials = 50;
  bool rigid = false;
  bool no = false;
  bool iso = false;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    auto value = [&](std::size_t fallback) -> std::size_t {
      return (i + 1 < argc) ? static_cast<std::size_t>(std::atoll(argv[++i])) : fallback;
    };
    if (!std::strcmp(argv[i], "--n")) args.n = value(args.n);
    else if (!std::strcmp(argv[i], "--g6")) args.graph6 = (i + 1 < argc) ? argv[++i] : "";
    else if (!std::strcmp(argv[i], "--side")) args.side = value(args.side);
    else if (!std::strcmp(argv[i], "--radius")) args.radius = value(args.radius);
    else if (!std::strcmp(argv[i], "--max")) args.max = value(args.max);
    else if (!std::strcmp(argv[i], "--seed")) args.seed = value(args.seed);
    else if (!std::strcmp(argv[i], "--trials")) args.trials = value(args.trials);
    else if (!std::strcmp(argv[i], "--rigid")) args.rigid = true;
    else if (!std::strcmp(argv[i], "--no")) args.no = true;
    else if (!std::strcmp(argv[i], "--iso")) args.iso = true;
  }
  return args;
}

void printTranscript(const net::Transcript& transcript) {
  std::printf("max bits per node: %zu (total %zu)\n", transcript.maxPerNodeBits(),
              transcript.totalBits());
  for (const auto& round : transcript.rounds()) {
    std::printf("  %-40s max %6zu bits/node\n", round.label.c_str(),
                round.maxBitsThisRound);
  }
}

int cmdSym(const Args& args) {
  util::Rng rng(args.seed);
  graph::Graph g = !args.graph6.empty() ? graph::fromGraph6(args.graph6)
                   : args.rigid         ? graph::randomRigidConnected(args.n, rng)
                                        : graph::randomSymmetricConnected(args.n, rng);
  if (!args.graph6.empty() && !g.isConnected()) {
    std::fprintf(stderr, "graph6 input must be connected (it is the network)\n");
    return 2;
  }
  bool rigid = args.graph6.empty() ? args.rigid : graph::isRigid(g);
  std::printf("instance: n = %zu, %zu edges, %s (graph6: %s)\n", g.numVertices(),
              g.numEdges(), rigid ? "rigid" : "symmetric", graph::toGraph6(g).c_str());
  core::SymDmamProtocol protocol(hash::makeProtocol1Family(g.numVertices(), rng));
  if (rigid) {
    int seed = 0;
    core::AcceptanceStats stats = core::estimateAcceptance(
        protocol, g,
        [&] {
          return std::make_unique<core::CheatingRhoProver>(
              protocol.family(), core::CheatingRhoProver::Strategy::kRandomPermutation,
              seed++);
        },
        args.trials, rng);
    std::printf("best cheating prover accepted %zu/%zu times (soundness error "
                "budget 1/(10n) = %.4f)\n", stats.accepts, stats.trials,
                1.0 / (10.0 * static_cast<double>(g.numVertices())));
    return 0;
  }
  core::HonestSymDmamProver prover(protocol.family());
  core::RunResult result = protocol.run(g, prover, rng);
  std::printf("verdict: %s\n", result.accepted ? "ACCEPT" : "reject");
  printTranscript(result.transcript);
  return result.accepted ? 0 : 1;
}

int cmdDam(const Args& args) {
  util::Rng rng(args.seed);
  graph::Graph g = args.rigid ? graph::randomRigidConnected(args.n, rng)
                              : graph::randomSymmetricConnected(args.n, rng);
  core::SymDamProtocol protocol(hash::makeProtocol2Family(args.n, rng));
  std::printf("instance: n = %zu (%s); hash field: %zu-bit prime\n", args.n,
              args.rigid ? "rigid" : "symmetric", protocol.family().seedBits());
  if (args.rigid) {
    core::AdaptiveCollisionProver cheater(protocol.family(), 5000, args.seed);
    core::RunResult result = protocol.run(g, cheater, rng);
    std::printf("adaptive cheater: %s (collision search %s)\n",
                result.accepted ? "ACCEPTED?!" : "rejected",
                cheater.lastSearchSucceeded() ? "succeeded" : "failed");
    return 0;
  }
  core::HonestSymDamProver prover(protocol.family());
  core::RunResult result = protocol.run(g, prover, rng);
  std::printf("verdict: %s\n", result.accepted ? "ACCEPT" : "reject");
  printTranscript(result.transcript);
  return result.accepted ? 0 : 1;
}

int cmdDSym(const Args& args) {
  util::Rng rng(args.seed);
  graph::DSymLayout layout = graph::dsymLayout(args.side, args.radius);
  graph::Graph f = args.no ? graph::randomRigidConnected(args.side, rng)
                           : graph::randomConnected(args.side, args.side / 2, rng);
  graph::Graph g = [&] {
    if (args.no) {
      graph::Graph fOther = graph::randomRigidConnected(args.side, rng);
      while (fOther == f) fOther = graph::randomRigidConnected(args.side, rng);
      return graph::dsymNoInstance(f, fOther, args.radius);
    }
    return graph::dsymInstance(f, args.radius);
  }();
  std::printf("instance: N = %zu (%s); ground truth: %s\n", layout.numVertices,
              args.no ? "NO instance" : "YES instance",
              graph::isDSymInstance(g, layout) ? "in DSym" : "not in DSym");
  util::BigUInt n3 = util::BigUInt::pow(util::BigUInt{layout.numVertices}, 3);
  core::DSymDamProtocol protocol(
      layout, hash::LinearHashFamily(
                  util::findPrimeInRange(util::BigUInt{10} * n3,
                                         util::BigUInt{100} * n3, rng),
                  static_cast<std::uint64_t>(layout.numVertices) * layout.numVertices));
  core::HonestDSymProver prover(layout, protocol.family());
  core::RunResult result = protocol.run(g, prover, rng);
  std::printf("verdict: %s\n", result.accepted ? "ACCEPT" : "reject");
  printTranscript(result.transcript);
  std::printf("(LCP baseline would need %zu bits/node)\n",
              pls::SymLcp::adviceBitsPerNode(layout.numVertices));
  return 0;
}

int cmdGni(const Args& args) {
  util::Rng rng(args.seed);
  util::Rng setup(args.seed + 1);
  core::GniParams params = core::GniParams::choose(args.n, setup);
  core::GniAmamProtocol protocol(params);
  core::GniInstance instance = args.iso ? core::gniNoInstance(args.n, rng)
                                        : core::gniYesInstance(args.n, rng);
  std::printf("instance: n = %zu, graphs %s; k = %zu repetitions, threshold %zu\n",
              args.n, args.iso ? "ISOMORPHIC" : "non-isomorphic", params.repetitions,
              params.threshold);
  core::AcceptanceStats hits = protocol.estimatePerRoundHit(instance, args.trials, rng);
  std::printf("per-repetition preimage hits: %zu/%zu (%.3f)\n", hits.accepts, hits.trials,
              hits.rate());
  core::HonestGniProver prover(params);
  core::RunResult result = protocol.run(instance, prover, rng);
  std::printf("amplified verdict: %s\n", result.accepted ? "ACCEPT" : "reject");
  printTranscript(result.transcript);
  return 0;
}

// High-level facade route: decides non-isomorphism on symmetric or rigid
// inputs, dispatching to the right protocol automatically.
int cmdIso(const Args& args) {
  util::Rng rng(args.seed);
  graph::Graph g0 = args.rigid ? graph::randomRigidConnected(args.n, rng)
                               : graph::randomSymmetricConnected(args.n, rng);
  graph::Graph g1 = args.iso ? graph::randomIsomorphicCopy(g0, rng)
                   : args.rigid ? graph::randomRigidConnected(args.n, rng)
                                : graph::randomRigidConnected(args.n, rng);
  std::printf("instance: n = %zu, g0 %s, pair %s\n", args.n,
              args.rigid ? "rigid" : "symmetric",
              graph::areIsomorphic(g0, g1) ? "isomorphic" : "non-isomorphic");
  core::DecideOptions options;
  options.seed = args.seed;
  core::Decision decision = core::decideNonIsomorphism(g0, g1, options);
  std::printf("decideNonIsomorphism: %s (%zu rounds, %zu bits/node)\n",
              decision.accepted ? "ACCEPT (graphs differ)" : "reject",
              decision.rounds, decision.maxBitsPerNode);
  return 0;
}

int cmdCensus(const Args& args) {
  lb::CensusResult census = lb::exhaustiveCensus(args.n);
  std::printf("n = %zu: %llu labeled graphs, %llu labeled rigid, |F| = %llu rigid "
              "classes, %llu isomorphism classes\n",
              census.n, static_cast<unsigned long long>(census.labeledGraphs),
              static_cast<unsigned long long>(census.labeledRigid),
              static_cast<unsigned long long>(census.rigidClasses),
              static_cast<unsigned long long>(census.isoClasses));
  return 0;
}

int cmdPacking(const Args& args) {
  std::printf("%10s  %16s  %18s\n", "n", "log2 |F(n)|", "lower bound (bits)");
  for (std::size_t n = 8; n <= args.max; n *= 4) {
    double logF = lb::log2FamilyLowerBound(n);
    std::printf("%10zu  %16.1f  %18.3f\n", n, logF, lb::lowerBoundBits(logF));
  }
  return 0;
}

int cmdCost(const Args& args) {
  std::printf("per-node communication for n = %zu:\n", args.n);
  std::printf("  Protocol 1 (dMAM, Sym):      %8zu bits\n",
              core::SymDmamProtocol::costModel(args.n).totalPerNode());
  std::printf("  Protocol 2 (dAM, Sym):       %8zu bits\n",
              core::SymDamProtocol::costModel(args.n).totalPerNode());
  graph::DSymLayout layout = graph::dsymLayout(args.n / 2, 2);
  std::printf("  DSym dAM (side n/2, r = 2):  %8zu bits\n",
              core::DSymDamProtocol::costModel(layout).totalPerNode());
  std::printf("  GNI dAMAM (k = 64):          %8zu bits\n",
              core::GniAmamProtocol::costModel(args.n, 64).totalPerNode());
  std::printf("  LCP baseline (Sym):          %8zu bits\n",
              pls::SymLcp::adviceBitsPerNode(args.n));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dipcli <sym|dam|dsym|gni|iso|census|packing|cost> [options]\n"
                 "       dipcli gni and iso take 2 <= n <= 15: the prover's\n"
                 "       preimage search refuses larger fields\n");
    return 2;
  }
  Args args = parseArgs(argc, argv);
  std::string command = argv[1];
  try {
    if (command == "sym") return cmdSym(args);
    if (command == "dam") return cmdDam(args);
    if (command == "dsym") return cmdDSym(args);
    if (command == "gni") return cmdGni(args);
    if (command == "iso") return cmdIso(args);
    if (command == "census") return cmdCensus(args);
    if (command == "packing") return cmdPacking(args);
    if (command == "cost") return cmdCost(args);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "dipcli %s: %s\n", command.c_str(), error.what());
    return 2;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
