#include "net/spanning.hpp"

#include <algorithm>

#include "util/bitio.hpp"

namespace dip::net {

void bottomUpOrderInto(SpanningTreeView advice, std::vector<graph::Vertex>& order) {
  // Counting sort by decreasing distance, stable within a distance class —
  // the exact order the stable_sort formulation produced, without its
  // temporary buffer (this runs once per trial in the chain aggregators).
  const std::size_t n = advice.dist.size();
  order.resize(n);
  std::uint32_t maxDist = 0;
  for (std::uint32_t d : advice.dist) maxDist = std::max(maxDist, d);
  thread_local std::vector<std::size_t> starts;
  starts.assign(static_cast<std::size_t>(maxDist) + 2, 0);
  for (std::uint32_t d : advice.dist) ++starts[maxDist - d + 1];
  for (std::size_t i = 1; i < starts.size(); ++i) starts[i] += starts[i - 1];
  for (std::size_t v = 0; v < n; ++v) {
    order[starts[maxDist - advice.dist[v]]++] = static_cast<graph::Vertex>(v);
  }
}

std::vector<graph::Vertex> bottomUpOrder(SpanningTreeView advice) {
  std::vector<graph::Vertex> order;
  bottomUpOrderInto(advice, order);
  return order;
}

std::uint32_t treeHeight(const SpanningTreeAdvice& advice) {
  std::uint32_t maxDist = 0;
  for (std::uint32_t d : advice.dist) maxDist = std::max(maxDist, d);
  return maxDist;
}

std::size_t treeAdviceBitsPerNode(std::size_t numVertices) {
  unsigned idBits = util::bitsFor(numVertices);
  // parent id (unicast) + distance in [n] (unicast) + root id (broadcast).
  return static_cast<std::size_t>(idBits) * 2 + idBits;
}

}  // namespace dip::net
