#include "graph/isomorphism.hpp"

#include <algorithm>

#include "graph/ir.hpp"

namespace dip::graph {

namespace {

// One refinement round: new color = rank of (old color, sorted neighbor
// colors). Ranks are assigned by sorting index/signature pairs and walking
// adjacent-unique runs, so they are canonical (two graphs assign the same
// color to vertices with identical signatures) without the node-per-key
// overhead of an ordered map.
std::vector<std::uint32_t> refineOnce(const Graph& g,
                                      const std::vector<std::uint32_t>& colors,
                                      std::size_t& numClasses) {
  using Signature = std::pair<std::uint32_t, std::vector<std::uint32_t>>;
  const std::size_t n = g.numVertices();
  std::vector<Signature> signatures(n);
  for (Vertex v = 0; v < n; ++v) {
    std::vector<std::uint32_t> around;
    around.reserve(g.degree(v));
    g.row(v).forEachSet([&](std::size_t u) { around.push_back(colors[u]); });
    std::sort(around.begin(), around.end());
    signatures[v] = {colors[v], std::move(around)};
  }
  std::vector<Vertex> bySignature(n);
  for (Vertex v = 0; v < n; ++v) bySignature[v] = v;
  std::sort(bySignature.begin(), bySignature.end(), [&](Vertex a, Vertex b) {
    return signatures[a] < signatures[b];
  });
  std::vector<std::uint32_t> out(n);
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && signatures[bySignature[i]] != signatures[bySignature[i - 1]]) ++rank;
    out[bySignature[i]] = rank;
  }
  numClasses = (n == 0) ? 0 : rank + 1;
  return out;
}

}  // namespace

std::vector<std::uint32_t> refinementColors(const Graph& g) {
  const std::size_t n = g.numVertices();
  std::vector<std::uint32_t> colors(n);
  for (Vertex v = 0; v < n; ++v) colors[v] = static_cast<std::uint32_t>(g.degree(v));
  std::size_t classes = 0;
  for (std::size_t round = 0; round < n + 1; ++round) {
    std::size_t newClasses = 0;
    auto next = refineOnce(g, colors, newClasses);
    bool stable = (round > 0 && newClasses == classes);
    colors = std::move(next);
    classes = newClasses;
    if (stable || classes == n) break;
  }
  return colors;
}

namespace {

// One engine per thread: the workspace (partitions, traces, orbit state) is
// recycled across calls, so tight rejection-sampling loops do not churn the
// allocator.
IrSolver& engine() {
  thread_local IrSolver solver;
  return solver;
}

}  // namespace

std::optional<Permutation> findIsomorphism(const Graph& g0, const Graph& g1) {
  return engine().findIsomorphism(g0, g1);
}

std::optional<Permutation> findNontrivialAutomorphism(const Graph& g) {
  return engine().findNontrivialAutomorphism(g);
}

bool isRigid(const Graph& g) { return engine().isRigid(g); }

bool areIsomorphic(const Graph& g0, const Graph& g1) {
  return findIsomorphism(g0, g1).has_value();
}

std::uint64_t countAutomorphisms(const Graph& g, std::uint64_t cap) {
  return engine().countAutomorphisms(g, cap);
}

std::vector<Permutation> allAutomorphisms(const Graph& g, std::size_t cap) {
  return engine().allAutomorphisms(g, cap);
}

}  // namespace dip::graph
