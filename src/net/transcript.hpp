// Communication accounting for interactive distributed proofs.
//
// The paper's complexity measure is the total number of bits exchanged
// between any individual node and the prover (challenges included, for
// upper bounds). Every protocol execution charges its encoded messages to a
// Transcript; benchmarks and tests read the per-node maximum off the
// CostReport. Node-to-node exchange of received responses (each node seeing
// M_{N(v)}) is part of the model and is not charged, matching the paper.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace dip::net {

struct NodeCost {
  std::size_t bitsToProver = 0;
  std::size_t bitsFromProver = 0;
  std::size_t total() const { return bitsToProver + bitsFromProver; }
};

struct RoundSummary {
  std::string label;
  std::size_t maxBitsThisRound = 0;  // Max per-node bits charged in the round.
};

class Transcript {
 public:
  explicit Transcript(std::size_t numNodes);

  // Marks the start of a named protocol round (for per-round reporting).
  void beginRound(std::string label);

  void chargeToProver(graph::Vertex v, std::size_t bits);
  void chargeFromProver(graph::Vertex v, std::size_t bits);
  // A broadcast response: every node receives (and pays for) `bits` bits.
  void chargeBroadcastFromProver(std::size_t bits);

  std::size_t numNodes() const { return perNode_.size(); }
  const std::vector<NodeCost>& perNode() const { return perNode_; }
  const std::vector<RoundSummary>& rounds() const { return rounds_; }

  // Bits charged to node v since the last beginRound (since construction if
  // no round was begun). The DIP_AUDIT cross-checks compare these against
  // the bitCount() of the real wire encodings of the round's messages.
  std::size_t roundBitsToProver(graph::Vertex v) const;
  std::size_t roundBitsFromProver(graph::Vertex v) const;

  // Max over nodes of total bits exchanged with the prover (the paper's f(n)).
  std::size_t maxPerNodeBits() const;
  std::size_t totalBits() const;

 private:
  void noteRoundCharge(graph::Vertex v);
  void checkVertex(graph::Vertex v) const;

  std::vector<NodeCost> perNode_;
  std::vector<NodeCost> roundStart_;  // Per-node costs at round start.
  std::vector<RoundSummary> rounds_;
};

}  // namespace dip::net
