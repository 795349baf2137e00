// Microbenchmarks (google-benchmark) for the performance-critical
// substrate: big-integer arithmetic, hash evaluation, tree aggregation, and
// the honest prover's searches. These gate how large the executable
// experiments can go.
#include <benchmark/benchmark.h>

#include "adv/mutator.hpp"
#include "adv/stress.hpp"
#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/gni_search.hpp"
#include "core/sym_dmam.hpp"
#include "graph/canonical.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/ir.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "hash/eps_api.hpp"
#include "hash/linear_hash.hpp"
#include "net/spanning.hpp"
#include "util/biguint.hpp"
#include "util/montgomery.hpp"
#include "util/primes.hpp"
#include "util/rng.hpp"

using namespace dip;

static void BM_BigUIntMulMod(benchmark::State& state) {
  // Free util::mulMod on a prime field: one 128-bit product and remainder up
  // to 64 bits, schoolbook multiply plus Knuth division above.
  util::Rng rng(1);
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  util::BigUInt m = util::findPrimeWithBits(bits, rng);
  util::BigUInt a = rng.nextBigBelow(m);
  util::BigUInt b = rng.nextBigBelow(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::mulMod(a, b, m));
  }
}
BENCHMARK(BM_BigUIntMulMod)->Arg(32)->Arg(64)->Arg(256)->Arg(1024);

static void BM_MontgomeryPowMod(benchmark::State& state) {
  util::Rng rng(12);
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  util::BigUInt m = util::findPrimeWithBits(bits, rng);
  util::MontgomeryContext ctx(m);
  util::BigUInt base = rng.nextBigBelow(m);
  util::BigUInt exp = rng.nextBigBelow(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.powMod(base, exp));
  }
}
BENCHMARK(BM_MontgomeryPowMod)->Arg(64)->Arg(256)->Arg(1024);

// An odd modulus of exactly `bits` bits (top bit forced). Montgomery needs
// oddness, not primality, and skipping the prime search keeps the 4096-bit
// setups instant.
static util::BigUInt randomOddModulus(util::Rng& rng, std::size_t bits) {
  util::BigUInt m = (util::BigUInt{1} << (bits - 1)) + rng.nextBigBits(bits - 1);
  if (!m.isOdd()) m += util::BigUInt{1};
  return m;
}

static void BM_BigMul(benchmark::State& state) {
  // Plain schoolbook product through the allocation-free mulInto entry
  // point (4096-bit operands are 64 limbs).
  util::Rng rng(20);
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  util::BigUInt a = rng.nextBigBits(bits);
  util::BigUInt b = rng.nextBigBits(bits);
  util::BigUInt out;
  for (auto _ : state) {
    util::BigUInt::mulInto(a, b, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BigMul)->Arg(256)->Arg(1024)->Arg(4096);

static void BM_MulMod(benchmark::State& state) {
  // In-domain Montgomery multiply: one CIOS pass, no conversions, no
  // allocations -- the per-term cost of the hash layer's Horner chains.
  // Compare against BM_BigUIntMulMod (multiply + Knuth division) above.
  util::Rng rng(21);
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  util::BigUInt m = randomOddModulus(rng, bits);
  util::MontgomeryContext ctx(m);
  util::MontgomeryContext::Scratch scratch;
  util::MontgomeryValue a = ctx.toValue(rng.nextBigBelow(m));
  util::MontgomeryValue b = ctx.toValue(rng.nextBigBelow(m));
  util::MontgomeryValue out;
  for (auto _ : state) {
    ctx.mulValue(a, b, out, scratch);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MulMod)->Arg(256)->Arg(1024)->Arg(4096);

static void BM_PowMod(benchmark::State& state) {
  // Fixed-window (w = 4) in-domain exponentiation with a full-width
  // exponent. Compare against BM_MontgomeryPowMod above, which is the same
  // ladder plus the per-call domain conversions that util::powMod pays for
  // odd moduli wider than 64 bits.
  util::Rng rng(22);
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  util::BigUInt m = randomOddModulus(rng, bits);
  util::MontgomeryContext ctx(m);
  util::MontgomeryContext::Scratch scratch;
  util::MontgomeryValue base = ctx.toValue(rng.nextBigBelow(m));
  util::BigUInt exponent = rng.nextBigBits(bits);
  util::MontgomeryValue out;
  for (auto _ : state) {
    ctx.powValue(base, exponent, out, scratch);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_PowMod)->Arg(256)->Arg(1024)->Arg(4096);

static void BM_MillerRabin(benchmark::State& state) {
  // 1024-bit setup stays cheap because findPrimeWithBits runs the packed
  // small-prime sieve before any Miller-Rabin round.
  util::Rng rng(3);
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  util::BigUInt prime = util::findPrimeWithBits(bits, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::isProbablePrime(prime, rng, 8));
  }
}
BENCHMARK(BM_MillerRabin)->Arg(64)->Arg(256)->Arg(1024);

static void BM_LinearHashRow(benchmark::State& state) {
  // One row through the batch engine's one-row form, the shape of a
  // per-call site: rebind per call (a no-op here, the index never changes)
  // and then one table-lookup row hash.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  hash::LinearHashFamily family = hash::makeProtocol1Family(n, rng);
  graph::Graph g = graph::randomConnected(n, n, rng);
  util::BigUInt a = family.randomIndex(rng);
  hash::BatchLinearHashEvaluator batch;
  graph::Vertex v = 0;
  for (auto _ : state) {
    batch.rebind(family, a);
    benchmark::DoNotOptimize(batch.hashMatrixRow(v, g.closedRow(v), n));
    v = static_cast<graph::Vertex>((v + 1) % n);
  }
}
BENCHMARK(BM_LinearHashRow)->Arg(16)->Arg(64)->Arg(256);

static void BM_BatchHashMatrix(benchmark::State& state) {
  // Full n x n closed-row matrix through the batch engine's span entry
  // point under a pinned index — the protocol trial shape. Each row is
  // residue adds (AVX2 lanes at n >= 16) plus one multiply; against n
  // BM_LinearHashRow calls, the argument checks and the backend dispatch
  // run once per matrix instead of once per row.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  hash::LinearHashFamily family = hash::makeProtocol1Family(n, rng);
  graph::Graph g = graph::randomConnected(n, n, rng);
  util::BigUInt a = family.randomIndex(rng);
  hash::BatchLinearHashEvaluator batch;
  batch.rebind(family, a);
  std::vector<std::uint64_t> rowIndices(n);
  std::vector<util::DynBitset> rows;
  for (graph::Vertex v = 0; v < n; ++v) {
    rowIndices[v] = v;
    rows.push_back(g.closedRow(v));
  }
  std::vector<util::BigUInt> out;
  for (auto _ : state) {
    batch.hashMatrixRows(rowIndices, rows, n, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BatchHashMatrix)->Arg(16)->Arg(64)->Arg(256);

static void BM_EpsApiHashMatrix(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  std::size_t ell = util::factorial(n).bitLength() + 2;
  hash::EpsApiHash h = hash::EpsApiHash::create(n, ell, rng);
  graph::Graph g = graph::randomConnected(n, n, rng);
  std::vector<util::DynBitset> rows;
  for (graph::Vertex v = 0; v < n; ++v) rows.push_back(g.closedRow(v));
  hash::EpsApiHash::Seed seed = h.randomSeed(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.hashRows(seed, rows));
  }
}
BENCHMARK(BM_EpsApiHashMatrix)->Arg(6)->Arg(8)->Arg(10);

// The honest GNI prover's call shape: one searchGsPreimages call over 64
// repetitions (the lane walk's lanes) at n = 6, with fresh seeds and
// uniform targets as A1 draws them. general:0 is gni_amam's rigid form,
// general:1 gni_general's form with both automorphism groups.
static void BM_GsPreimageWalk(benchmark::State& state) {
  constexpr std::size_t kN = 6;
  constexpr std::size_t kLanes = 64;
  const bool general = state.range(0) != 0;
  util::Rng rng(13);
  const hash::EpsApiHash gsHash = general ? core::GniGeneralParams::choose(kN, rng).gsHash
                                          : core::GniParams::choose(kN, rng).gsHash;
  const core::GniInstance instance =
      general ? core::gniGeneralYesInstance(kN, rng) : core::gniYesInstance(kN, rng);
  const std::vector<graph::Permutation> aut0 = graph::allAutomorphisms(instance.g0);
  const std::vector<graph::Permutation> aut1 = graph::allAutomorphisms(instance.g1);
  std::vector<core::GniChallenge> targets(kLanes);
  for (core::GniChallenge& target : targets) {
    target.seed = gsHash.randomSeed(rng);
    target.y = rng.nextBigBits(gsHash.outputBits());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        general ? core::searchGsPreimages(instance, gsHash, targets, aut0, aut1)
                : core::searchGsPreimages(instance, gsHash, targets));
  }
}
BENCHMARK(BM_GsPreimageWalk)->ArgName("general")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// One 1-thread or 4-thread wire-mutation battery on Protocol 2 (the
// adaptive collision cheater under all 11 mutators, 360 trials each, as
// in perfbench's sym_mutants): engine dispatch plus the cheater's
// sigma-mapped fingerprints.
static void BM_StressBattery(benchmark::State& state) {
  adv::StressOptions options;
  options.trialsPerMutator = 360;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(adv::stressSymDam(options));
  }
  state.SetItemsProcessed(state.iterations() * 360 *
                          static_cast<std::int64_t>(adv::standardMutators().size()));
}
BENCHMARK(BM_StressBattery)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_AutomorphismSearchSymmetric(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  graph::Graph g = graph::randomSymmetricConnected(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::findNontrivialAutomorphism(g));
  }
}
BENCHMARK(BM_AutomorphismSearchSymmetric)->Arg(16)->Arg(64)->Arg(128);

static void BM_RigidityProof(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  graph::Graph g = graph::randomRigidConnected(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::isRigid(g));
  }
}
BENCHMARK(BM_RigidityProof)->Arg(8)->Arg(16)->Arg(32);

static void BM_CanonicalForm(benchmark::State& state) {
  // Lex-min branch-and-bound: practical through n ~ 16 on sparse graphs
  // (docs/PERFORMANCE.md); larger sizes need the search engine, not a
  // canonical form.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(9);
  graph::Graph g = graph::randomConnected(n, n + n / 2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::canonicalForm(g));
  }
}
BENCHMARK(BM_CanonicalForm)->Arg(8)->Arg(12)->Arg(16);

static void BM_IsRigid(benchmark::State& state) {
  // Rigid and symmetric side by side: the rigid case exercises the
  // discrete-refinement fast path, the symmetric one the full search.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(10);
  graph::Graph rigid = graph::randomRigidConnected(n, rng);
  graph::Graph symmetric = graph::randomSymmetricConnected(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::isRigid(rigid));
    benchmark::DoNotOptimize(graph::isRigid(symmetric));
  }
}
BENCHMARK(BM_IsRigid)->Arg(16)->Arg(64)->Arg(128);

static void BM_FindIsomorphism(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  graph::Graph g = graph::randomConnected(n, 2 * n, rng);
  graph::Graph h = graph::randomIsomorphicCopy(g, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::findIsomorphism(g, h));
  }
}
BENCHMARK(BM_FindIsomorphism)->Arg(16)->Arg(64)->Arg(128);

static void BM_CensusSlice(benchmark::State& state) {
  // One 2^16-code chunk of the n = 7 census sweep — the exact unit of work
  // exhaustiveCensus hands to each parallelMap index.
  graph::IrSolver solver;
  for (auto _ : state) {
    std::uint64_t rigid = 0;
    for (std::uint64_t code = 0; code < (1ull << 16); ++code) {
      if (solver.isRigidCode(7, code)) ++rigid;
    }
    benchmark::DoNotOptimize(rigid);
  }
}
BENCHMARK(BM_CensusSlice);

static void BM_CsrBuild(benchmark::State& state) {
  // Edge list -> delta-compressed CSR: sort + dedup + per-block width scan
  // + bit packing. The setup cost every large-n dry-run table pays once per
  // family.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng setup(13);
  graph::CsrGraph g = graph::csrRandomBoundedDegree(n, 8, n / 4, setup);
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;
  edges.reserve(g.numEdges());
  g.forEachEdge([&](graph::Vertex u, graph::Vertex v) { edges.emplace_back(u, v); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::CsrGraph::fromEdges(n, edges));
  }
}
BENCHMARK(BM_CsrBuild)->Arg(1024)->Arg(16384)->Arg(262144);

static void BM_CsrNeighborSweep(benchmark::State& state) {
  // Full forEachNeighbor pass over every vertex: the streaming block
  // decoder's per-edge cost (header read + gap add), nothing materialized.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng setup(14);
  graph::CsrGraph g = graph::csrRandomBoundedDegree(n, 8, n / 4, setup);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      g.forEachNeighbor(v, [&](graph::Vertex u) { acc += u; });
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CsrNeighborSweep)->Arg(1024)->Arg(16384)->Arg(262144);

static void BM_SpanningTreeCsr(benchmark::State& state) {
  // buildBfsTree through the compressed representation — the structural
  // dry-run engine's dominant traversal.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng setup(15);
  graph::CsrGraph g = graph::csrRandomBoundedDegree(n, 8, n / 4, setup);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::buildBfsTree(g, 0).dist.back());
  }
}
BENCHMARK(BM_SpanningTreeCsr)->Arg(1024)->Arg(16384)->Arg(262144);

static void BM_Protocol1FullRun(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(8);
  core::SymDmamProtocol protocol(hash::makeProtocol1Family(n, rng));
  graph::Graph g = graph::randomSymmetricConnected(n, rng);
  core::HonestSymDmamProver prover(protocol.family());
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.run(g, prover, rng).accepted);
  }
}
BENCHMARK(BM_Protocol1FullRun)->Arg(16)->Arg(64)->Arg(128);

BENCHMARK_MAIN();
