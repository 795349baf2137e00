// Undirected simple graphs on a fixed vertex set {0, ..., n-1}.
//
// This is the network substrate of the paper: nodes are vertices, and the
// closed neighborhood N_G(v) (which, per the paper's convention in Section 2,
// includes v itself) is both a node's communication range and its row of the
// self-looped adjacency matrix used by the hashing protocols.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "util/bitset.hpp"

namespace dip::graph {

using Vertex = std::uint32_t;
using Permutation = std::vector<Vertex>;  // perm[v] = image of v.

class Graph {
 public:
  explicit Graph(std::size_t numVertices);

  static Graph fromEdges(std::size_t numVertices,
                         std::initializer_list<std::pair<Vertex, Vertex>> edges);

  std::size_t numVertices() const { return n_; }
  std::size_t numEdges() const { return numEdges_; }

  // Adds the undirected edge {u, v}; no-op on duplicates; rejects loops.
  void addEdge(Vertex u, Vertex v);
  bool hasEdge(Vertex u, Vertex v) const;

  std::size_t degree(Vertex v) const { return rows_[v].count(); }

  // Open neighborhood as a characteristic vector (v excluded).
  const util::DynBitset& row(Vertex v) const { return rows_[v]; }
  // Every open row, row v at position v.
  std::span<const util::DynBitset> rows() const { return rows_; }
  // Closed neighborhood N_G(v): v's row with the self-loop bit set (the
  // paper's N(v), "with self-loops for all vertices").
  util::DynBitset closedRow(Vertex v) const;
  // Open neighbors as a sorted list.
  std::vector<Vertex> neighbors(Vertex v) const;
  // Closed neighbors (v included), sorted.
  std::vector<Vertex> closedNeighbors(Vertex v) const;

  // Allocation-free neighborhood iteration, ascending. These mirror
  // CsrGraph's visitors so traversal code (spanning trees, lower-bound
  // baselines, dry-run accounting) can be templated over either
  // representation; hot loops must use these instead of neighbors() /
  // closedNeighbors(), which build a fresh vector per call.
  template <typename Fn>
  void forEachNeighbor(Vertex v, Fn&& fn) const {
    rows_[v].forEachSet([&](std::size_t u) { fn(static_cast<Vertex>(u)); });
  }

  // Closed neighborhood (v included), ascending.
  template <typename Fn>
  void forEachClosedNeighbor(Vertex v, Fn&& fn) const {
    bool emitted = false;
    rows_[v].forEachSet([&](std::size_t bit) {
      const Vertex u = static_cast<Vertex>(bit);
      if (!emitted && u > v) {
        emitted = true;
        fn(v);
      }
      fn(u);
    });
    if (!emitted) fn(v);
  }

  // Visits every edge once as (u, v) with u < v, ascending by (u, v).
  template <typename Fn>
  void forEachEdge(Fn&& fn) const {
    for (Vertex u = 0; u < n_; ++u) {
      rows_[u].forEachSet([&](std::size_t bit) {
        if (bit > u) fn(u, static_cast<Vertex>(bit));
      });
    }
  }

  bool isConnected() const;

  // The graph with vertex v renamed to perm[v] (sigma(G) in the paper).
  Graph relabeled(const Permutation& perm) const;

  // Image of a vertex subset under a function rho: V -> V, as a
  // characteristic vector: rho(S)_v = 1 iff exists u in S with rho(u) = v.
  static util::DynBitset imageOf(const util::DynBitset& subset,
                                 const Permutation& rho);

  bool operator==(const Graph& other) const;

  // Upper-triangle adjacency bits (row-major, u < v), the canonical n(n-1)/2
  // bit description of the graph; used for exhaustive enumeration.
  util::DynBitset upperTriangleBits() const;
  static Graph fromUpperTriangleBits(std::size_t numVertices,
                                     const util::DynBitset& bits);

  // Fast path for exhaustive sweeps: the upper-triangle description packed
  // into a machine word (bit i = the i-th (u, v) pair, row-major, u < v).
  // Requires n(n-1)/2 <= 64, i.e. n <= 11; builds the rows directly without
  // an intermediate DynBitset or edge-by-edge insertion.
  static Graph fromUpperTriangleCode(std::size_t numVertices, std::uint64_t code);

  std::size_t hashValue() const;

 private:
  std::size_t n_ = 0;
  std::size_t numEdges_ = 0;
  std::vector<util::DynBitset> rows_;
};

// True if perm is a bijection on {0, ..., n-1}.
bool isPermutation(const Permutation& perm, std::size_t n);
// True if perm is the identity on {0, ..., n-1}.
bool isIdentity(const Permutation& perm);
// perm composed after first: result[v] = perm[first[v]].
Permutation compose(const Permutation& perm, const Permutation& first);
Permutation inverse(const Permutation& perm);
Permutation identityPermutation(std::size_t n);

// True if rho is an automorphism of g (Definition in Section 2.3: for every
// u, v: {u, v} in E iff {rho(u), rho(v)} in E). Requires rho a permutation.
bool isAutomorphism(const Graph& g, const Permutation& rho);

}  // namespace dip::graph
