// A broadcast field of a protocol message: the one value that every node is
// meant to receive, stored once, plus sorted per-node overrides.
//
// The paper's broadcasts (the root, the index echo, Protocol 2's whole
// mapping rho) reach every node identically when the prover is honest, so
// an honest message holds each of them once and is O(n) in total instead of
// O(n) copies of an O(n) value. An adversarial prover may still try to send
// different values to different nodes: set(v, x) records such an override,
// and the verifiers' neighbour check agree(u, v) sees it exactly as it saw a
// differing entry of a per-node vector. Overrides never equal the common
// value (set() drops one that does), so a broadcast with no overrides is
// uniform and agree() is O(1).
//
// Transcript charges are untouched by this representation: a broadcast is
// charged once per node whatever its storage (Transcript's broadcast
// charges), and the wire encoders refuse a non-uniform broadcast.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace dip::core {

template <typename T>
class Broadcast {
  using Entry = std::pair<graph::Vertex, T>;

 public:
  Broadcast() = default;
  Broadcast(std::size_t n, T value) : n_(n), common_(std::move(value)) {}

  // The per-node form: node 0's value becomes the common one, every node
  // holding something else an override.
  static Broadcast fromPerNode(std::vector<T> perNode) {
    Broadcast out;
    out.n_ = perNode.size();
    if (perNode.empty()) return out;
    out.common_ = std::move(perNode[0]);
    for (std::size_t v = 1; v < perNode.size(); ++v) {
      if (!(perNode[v] == out.common_)) {
        out.overrides_.emplace_back(static_cast<graph::Vertex>(v), std::move(perNode[v]));
      }
    }
    return out;
  }

  // Every one of n nodes receives `value`; drops all overrides.
  void assign(std::size_t n, T value) {
    n_ = n;
    common_ = std::move(value);
    overrides_.clear();
  }

  std::size_t size() const { return n_; }

  // The value node v received. v must be below size().
  const T& operator[](graph::Vertex v) const {
    if (overrides_.empty()) return common_;
    auto it = lowerBound(overrides_, v);
    return (it != overrides_.end() && it->first == v) ? it->second : common_;
  }

  // Node v receives `value` instead of what it held.
  void set(graph::Vertex v, T value) {
    if (v >= n_) throw std::out_of_range("Broadcast::set: node out of range");
    auto it = lowerBound(overrides_, v);
    const bool present = it != overrides_.end() && it->first == v;
    if (value == common_) {
      if (present) overrides_.erase(it);
    } else if (present) {
      it->second = std::move(value);
    } else {
      overrides_.emplace(it, v, std::move(value));
    }
  }

  // Did nodes u and v receive the same value? O(1) with no overrides.
  bool agree(graph::Vertex u, graph::Vertex v) const {
    return overrides_.empty() || (*this)[u] == (*this)[v];
  }

  // Does every node hold node 0's value? Overrides differ from the common
  // value, so that needs no override at all, or one equal override on
  // every node.
  bool uniform() const {
    if (overrides_.empty()) return true;
    if (overrides_.size() != n_) return false;
    return std::all_of(overrides_.begin(), overrides_.end(),
                       [&](const Entry& entry) {
                         return entry.second == overrides_.front().second;
                       });
  }

  std::size_t overrideCount() const { return overrides_.size(); }

  bool operator==(const Broadcast& other) const {
    if (n_ != other.n_) return false;
    for (std::size_t v = 0; v < n_; ++v) {
      const auto node = static_cast<graph::Vertex>(v);
      if (!((*this)[node] == other[node])) return false;
    }
    return true;
  }

 private:
  template <typename Overrides>
  static auto lowerBound(Overrides& overrides, graph::Vertex v) {
    return std::lower_bound(overrides.begin(), overrides.end(), v,
                            [](const Entry& entry, graph::Vertex key) {
                              return entry.first < key;
                            });
  }

  std::size_t n_ = 0;
  T common_{};
  std::vector<Entry> overrides_;  // Sorted by vertex; values != common_.
};

}  // namespace dip::core
