// The spanning-tree proof-labeling building block (Korman-Kutten-Peleg [23])
// that both Sym protocols and the GNI protocol "sum their hash values up the
// tree" with.
//
// The prover supplies, per node v: a claimed parent t_v, a claimed distance
// d_v from the root, and (broadcast) a claimed root r. Each node verifies
// LOCALLY (Protocol 1, line 1):
//     v != r:  t_v in N(v)  and  d_{t_v} = d_v - 1
//     v == r:  d_v = 0
// On a connected graph, all nodes passing implies the parent edges form a
// spanning tree rooted at r (distances strictly decrease toward the root,
// so parent chains terminate at r and cannot cycle).
//
// Everything here is templated over the graph representation: any type with
// `numVertices()`, `hasEdge(u, v)` and an ascending `forEachNeighbor(v, fn)`
// qualifies — the dense `graph::Graph` and the compressed `graph::CsrGraph`
// both do, and they produce identical advice for equal graphs (BFS visits
// neighbors in the same ascending order either way).
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace dip::net {

// A claimed tree as the verifiers read it: the root plus spans over the
// message's parent and distance columns, so a per-node check looks at the
// advice where it lies instead of copying it.
struct SpanningTreeView {
  graph::Vertex root = 0;
  std::span<const graph::Vertex> parent;
  std::span<const std::uint32_t> dist;
};

struct SpanningTreeAdvice {
  graph::Vertex root = 0;
  std::vector<graph::Vertex> parent;  // parent[root] == root by convention.
  std::vector<std::uint32_t> dist;

  operator SpanningTreeView() const { return {root, parent, dist}; }
};

// BFS tree from `root` (the honest prover's choice). Requires g connected.
template <typename G>
SpanningTreeAdvice buildBfsTree(const G& g, graph::Vertex root) {
  const std::size_t n = g.numVertices();
  if (root >= n) throw std::out_of_range("buildBfsTree: root out of range");
  SpanningTreeAdvice advice;
  advice.root = root;
  advice.parent.assign(n, root);
  advice.dist.assign(n, UINT32_MAX);
  // BFS frontier as a flat vector with a read cursor: every vertex enters
  // the queue at most once, and the thread-local buffer keeps its capacity
  // across the per-trial calls.
  thread_local std::vector<graph::Vertex> queue;
  queue.clear();
  queue.push_back(root);
  advice.dist[root] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    graph::Vertex v = queue[head];
    g.forEachNeighbor(v, [&](graph::Vertex u) {
      if (advice.dist[u] == UINT32_MAX) {
        advice.dist[u] = advice.dist[v] + 1;
        advice.parent[u] = v;
        queue.push_back(u);
      }
    });
  }
  for (std::uint32_t d : advice.dist) {
    if (d == UINT32_MAX) throw std::invalid_argument("buildBfsTree: graph not connected");
  }
  return advice;
}

// Node v's local tree check. v reads only its own advice and the advice of
// its closed neighborhood (d_{t_v} is visible because t_v must be a
// neighbor).
template <typename G>
bool verifyTreeLocally(const G& g, SpanningTreeView advice, graph::Vertex v) {
  if (advice.parent.size() != g.numVertices() || advice.dist.size() != g.numVertices()) {
    return false;
  }
  if (v == advice.root) return advice.dist[v] == 0;
  graph::Vertex parent = advice.parent[v];
  if (parent >= g.numVertices() || !g.hasEdge(v, parent)) return false;
  return advice.dist[v] >= 1 && advice.dist[parent] == advice.dist[v] - 1;
}

// Visits C(v) = { u in N(v) | t_u = v } — v's children under the claimed
// advice (Protocol 1, line 2) — in ascending order without materializing the
// vector; the per-node chain folds run once per node per trial, so the hot
// loops use this form. Computable from v's local view.
template <typename G, typename Visitor>
void forEachChild(const G& g, SpanningTreeView advice, graph::Vertex v,
                  Visitor&& visit) {
  g.forEachNeighbor(v, [&](graph::Vertex u) {
    if (advice.parent[u] == v && u != advice.root) visit(u);
  });
}

// C(v) as a sorted vector; convenience for tests and cold paths only.
template <typename G>
std::vector<graph::Vertex> childrenOf(const G& g, SpanningTreeView advice,
                                      graph::Vertex v) {
  std::vector<graph::Vertex> children;
  forEachChild(g, advice, v, [&](graph::Vertex u) { children.push_back(u); });
  return children;
}

// Vertices ordered by decreasing claimed distance (leaves first); the honest
// prover aggregates subtree hash values in this order.
std::vector<graph::Vertex> bottomUpOrder(SpanningTreeView advice);
// Same order written into a caller-reused buffer (counting sort, no
// temporaries) — the per-trial aggregators use this form.
void bottomUpOrderInto(SpanningTreeView advice, std::vector<graph::Vertex>& order);

// Height of the claimed tree: max distance over all nodes.
std::uint32_t treeHeight(const SpanningTreeAdvice& advice);

// Number of bits the advice costs per node: parent id + distance + root id.
std::size_t treeAdviceBitsPerNode(std::size_t numVertices);

}  // namespace dip::net
