// E15 — Large-n structural dry-run engine: cost curves at n = 10^4..10^6
// and the bytes-per-node memory budget.
//
// Regenerates:
//   (a) representation cross-check: dense and CSR dry-runs of the same
//       small graphs must produce identical cost digests (the same fold the
//       differential tests pin against measured transcripts);
//   (b) cost curves: exact structural f(n) for Protocols 1-4 on the
//       committed sparse families at n = 10^4 / 10^5 / 10^6 — sizes where
//       the dense adjacency alone would need ~125 GB;
//   (c) memory report: compressed adjacency size per family (bits/edge,
//       bytes/node) vs the dense row storage. `--json FILE` emits (c) for
//       tools/check_bench.py, which gates CI on the committed ceilings in
//       BENCH_memory.json.
//
// Everything here is deterministic: no trials, no threads, byte-identical
// stdout on every run.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/dryrun_section.hpp"
#include "bench/table.hpp"

using namespace dip;

namespace {

sim::GniClaimProfile honestProfile(std::size_t repetitions) {
  sim::GniClaimProfile profile;
  profile.claimed.assign(repetitions, 1);
  profile.b.assign(repetitions, 1);
  return profile;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) jsonPath = argv[++i];
  }

  bench::printHeader("E15", "Structural dry-run at large n (CSR engine)");

  std::printf("\n(a) Dense vs CSR dry-run digests (n = 64, must agree)\n");
  std::printf("%10s  %18s  %18s  %6s\n", "family", "dense digest", "csr digest", "match");
  bench::printRule();
  {
    util::Rng treeRngDense(0xD1500 + 64);
    graph::Graph denseTree = graph::randomTree(64, treeRngDense);
    graph::Graph denseGrid = graph::gridGraph(8, 8);
    const sim::SymWidths widths = sim::symDmamModelWidths(64);
    struct Pair {
      const char* name;
      graph::Graph dense;
      graph::CsrGraph csr;
    } pairs[] = {
        {"tree", denseTree, bench::dryRunTree(64)},
        {"grid", denseGrid, graph::csrGridGraph(8, 8)},
    };
    for (const auto& pair : pairs) {
      const auto dense = sim::dryRunSymDmam(pair.dense, widths);
      const auto csr = sim::dryRunSymDmam(pair.csr, widths);
      std::printf("%10s  0x%016llx  0x%016llx  %6s\n", pair.name,
                  static_cast<unsigned long long>(dense.costDigest),
                  static_cast<unsigned long long>(csr.costDigest),
                  dense.costDigest == csr.costDigest && dense.maxPerNodeBits ==
                          csr.maxPerNodeBits
                      ? "yes"
                      : "NO");
    }
  }

  std::printf("\n(b) Cost curves, max bits per node (structural dry-run)\n");
  std::printf("%8s  %8s  %12s  %12s  %12s  %14s\n", "n", "family", "P1 (E1)",
              "P2 (E3)", "GNI k=1", "LCP baseline");
  bench::printRule();
  for (std::size_t n : bench::kDryRunSizes) {
    const sim::GniClaimProfile profile = honestProfile(1);
    bench::forEachDryRunFamily(n, [&](const char* family, const graph::CsrGraph& g) {
      const auto r1 = sim::dryRunSymDmam(g, sim::symDmamModelWidths(g.numVertices()));
      const auto r2 = sim::dryRunSymDam(g, sim::symDamModelWidths(g.numVertices()));
      const auto rg =
          sim::dryRunGniAmam(g, g, sim::gniModelWidths(g.numVertices(), 1), profile);
      std::printf("%8zu  %8s  %12zu  %12zu  %12zu  %14zu\n", g.numVertices(),
                  family, r1.maxPerNodeBits, r2.maxPerNodeBits,
                  rg.maxPerNodeBits, pls::SymLcp::adviceBitsPerNode(g.numVertices()));
    });
  }
  std::printf(
      "\nShape check (paper): P1 stays polylogarithmic, P2 pays the n log n\n"
      "rho broadcast, and the LCP baseline is quadratic - at n = 10^6 the\n"
      "interactive protocols beat it by ~10 orders of magnitude.\n");

  std::printf("\n(c) Memory report (CSR resident bytes per node; dense needs n/8 B/node per row = n^2/8 total)\n");
  std::printf("%8s  %8s  %10s  %10s  %10s  %12s\n", "n", "family", "edges",
              "bits/edge", "B/node", "dense B/node");
  bench::printRule();
  std::string json = "{\n  \"benchmark\": \"bench_e15_dryrun\",\n  \"rows\": [\n";
  bool firstRow = true;
  for (std::size_t n : bench::kDryRunSizes) {
    bench::forEachDryRunFamily(n, [&](const char* family, const graph::CsrGraph& g) {
      const double perNode = bench::bytesPerNode(g);
      std::printf("%8zu  %8s  %10zu  %10.2f  %10.1f  %12.1f\n", g.numVertices(),
                  family, g.numEdges(), g.bitsPerEdge(), perNode,
                  static_cast<double>(g.numVertices()) / 8.0);
      char row[256];
      std::snprintf(row, sizeof(row),
                    "%s    {\"family\": \"%s\", \"n\": %zu, \"edges\": %zu, "
                    "\"bitsPerEdge\": %.3f, \"bytesPerNode\": %.3f}",
                    firstRow ? "" : ",\n", family, g.numVertices(), g.numEdges(),
                    g.bitsPerEdge(), perNode);
      json += row;
      firstRow = false;
    });
  }
  json += "\n  ]\n}\n";
  if (!jsonPath.empty()) {
    if (std::FILE* out = std::fopen(jsonPath.c_str(), "w")) {
      std::fputs(json.c_str(), out);
      std::fclose(out);
    } else {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
  }
  return 0;
}
