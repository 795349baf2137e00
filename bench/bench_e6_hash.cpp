// E6 — Theorem 3.2 and the Section 4 hash: empirical hash-family statistics.
//
// Regenerates: the collision-probability table for the linear family
// (measured vs the m/p bound), and the eps-API marginal/pairwise statistics
// that the GNI analysis depends on.
#include <cstdio>

#include "bench/options.hpp"
#include "bench/table.hpp"
#include "graph/generators.hpp"
#include "hash/batch_eval.hpp"
#include "hash/eps_api.hpp"
#include "hash/linear_hash.hpp"
#include "sim/acceptance.hpp"
#include "util/rng.hpp"

using namespace dip;

int main(int argc, char** argv) {
  const sim::TrialConfig engine = bench::parseTrialOptions(argc, argv);
  bench::printHeader("E6", "Hash family statistics (Theorem 3.2, Section 4)");

  std::printf("\n(a) Linear family: fingerprint collision rate for non-automorphisms\n");
  std::printf("%6s  %12s  %14s  %14s\n", "n", "log2(p)", "measured", "bound m/p");
  bench::printRule();
  for (std::size_t n : {6u, 8u, 12u}) {
    util::Rng rng(6000 + n);
    hash::LinearHashFamily family = hash::makeProtocol1FamilyCached(n);
    graph::Graph g = graph::randomRigidConnected(n, rng);

    // A trial draws a permutation and a hash index; it "hits" when the
    // fingerprints of g and its rho-image collide. Identity draws count as
    // non-collisions (the family is only tested on non-automorphisms).
    sim::TrialStats stats = sim::estimateHitRate(
        [&](sim::TrialContext& ctx) {
          graph::Permutation rho = graph::randomPermutation(n, ctx.rng);
          if (graph::isIdentity(rho)) return false;
          // One evaluator per drawn index.
          hash::BatchLinearHashEvaluator batch;
          batch.rebind(family, family.randomIndex(ctx.rng));
          util::BigUInt lhs, rhs;
          for (graph::Vertex v = 0; v < n; ++v) {
            lhs = util::addMod(lhs, batch.hashMatrixRow(v, g.closedRow(v), n),
                               family.prime());
            rhs = util::addMod(
                rhs,
                batch.hashMatrixRow(rho[v], graph::Graph::imageOf(g.closedRow(v), rho), n),
                family.prime());
          }
          return lhs == rhs;
        },
        3000, bench::cellConfig(engine, 6000 + n));
    std::printf("%6zu  %12zu  %14.5f  %14.5f\n", n, family.seedBits(), stats.rate(),
                family.collisionBound());
  }

  std::printf("\n(b) eps-API hash: marginal uniformity (Pr[H(x) = y] * 2^ell)\n");
  std::printf("%6s  %6s  %10s  %12s  %12s\n", "n", "ell", "eps bound", "min bucket",
              "max bucket");
  bench::printRule();
  for (std::size_t n : {5u, 6u}) {
    util::Rng rng(6100 + n);
    const std::size_t ell = 4;
    hash::EpsApiHash h = hash::EpsApiHash::create(n, ell, rng);
    graph::Graph g = graph::randomConnected(n, n / 2, rng);
    std::vector<util::DynBitset> rows;
    for (graph::Vertex v = 0; v < n; ++v) rows.push_back(g.closedRow(v));

    // Each trial records its hash bucket in the outcome digest; the
    // histogram is folded from the index-ordered outcome vector.
    const std::size_t trials = 8000;
    std::vector<sim::TrialOutcome> outcomes;
    sim::TrialRunner runner(bench::cellConfig(engine, 6100 + n));
    runner.run(
        trials,
        [&](sim::TrialContext& ctx) {
          sim::TrialOutcome outcome;
          outcome.digest = h.hashRows(h.randomSeed(ctx.rng), rows).toU64();
          return outcome;
        },
        &outcomes);
    std::vector<std::size_t> histogram(1u << ell, 0);
    for (const sim::TrialOutcome& outcome : outcomes) histogram[outcome.digest] += 1;
    double expected = static_cast<double>(trials) / (1u << ell);
    std::size_t minBucket = trials, maxBucket = 0;
    for (std::size_t count : histogram) {
      minBucket = std::min(minBucket, count);
      maxBucket = std::max(maxBucket, count);
    }
    std::printf("%6zu  %6zu  %10.4f  %12.3f  %12.3f\n", n, ell, h.epsilonBound(),
                static_cast<double>(minBucket) / expected,
                static_cast<double>(maxBucket) / expected);
  }

  std::printf("\n(c) eps-API hash: pairwise collision rate vs 2^-ell\n");
  {
    util::Rng rng(6200);
    const std::size_t n = 5;
    const std::size_t ell = 4;
    hash::EpsApiHash h = hash::EpsApiHash::create(n, ell, rng);
    graph::Graph g1 = graph::completeGraph(n);
    graph::Graph g2 = graph::cycleGraph(n);
    std::vector<util::DynBitset> rows1, rows2;
    for (graph::Vertex v = 0; v < n; ++v) {
      rows1.push_back(g1.closedRow(v));
      rows2.push_back(g2.closedRow(v));
    }
    sim::TrialStats stats = sim::estimateHitRate(
        [&](sim::TrialContext& ctx) {
          hash::EpsApiHash::Seed seed = h.randomSeed(ctx.rng);
          return h.hashRows(seed, rows1) == h.hashRows(seed, rows2);
        },
        10000, bench::cellConfig(engine, 6200));
    std::printf("  measured: %.5f   ideal 2^-ell: %.5f   (1+eps) bound: %.5f\n",
                stats.rate(), 1.0 / (1u << ell), (1.0 + h.epsilonBound()) / (1u << ell));
  }
  std::printf(
      "\nShape check: measured collision rates sit below the analytic bounds;\n"
      "the eps-API construction behaves like a pairwise-independent hash up\n"
      "to the small eps the GNI analysis budgets for.\n");
  return 0;
}
