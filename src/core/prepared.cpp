#include "core/prepared.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "graph/isomorphism.hpp"

namespace dip::core {

namespace {

PreparedSym buildFor(const graph::Graph& g, std::optional<graph::Permutation> rho,
                     graph::Vertex root) {
  PreparedSym prepared;
  prepared.rho = std::move(rho);
  if (!prepared.rho || !g.isConnected()) return prepared;
  const std::size_t n = g.numVertices();
  const graph::Permutation& mapping = *prepared.rho;
  prepared.root = root;
  prepared.tree = net::buildBfsTree(g, root);
  net::bottomUpOrderInto(prepared.tree, prepared.order);
  prepared.closedIndices.reserve(n);
  prepared.closedRows.reserve(n);
  prepared.imageIndices.reserve(n);
  prepared.imageRows.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    prepared.closedIndices.push_back(v);
    prepared.closedRows.push_back(g.closedRow(v));
    prepared.imageIndices.push_back(mapping[v]);
    prepared.imageRows.push_back(graph::Graph::imageOf(prepared.closedRows.back(), mapping));
  }
  return prepared;
}

// The memo: the last kSlots prepared graphs of this thread, most recent
// first. Entries are keyed on the adjacency words and, for DSym, on sigma.
struct Slot {
  std::size_t n = 0;
  std::vector<std::uint64_t> adjacency;
  bool fixedMapping = false;
  PreparedSym prepared;
};
constexpr std::size_t kSlots = 4;

bool sameAdjacency(const Slot& slot, const graph::Graph& g) {
  if (slot.n != g.numVertices()) return false;
  const std::uint64_t* stored = slot.adjacency.data();
  for (graph::Vertex v = 0; v < slot.n; ++v) {
    const util::DynBitset& row = g.row(v);
    if (!std::equal(row.words(), row.words() + row.wordCount(), stored)) return false;
    stored += row.wordCount();
  }
  return true;
}

// sigma is null for the Sym instance (rho searched), DSym's mapping otherwise.
const PreparedSym& memoized(const graph::Graph& g, const graph::Permutation* sigma) {
  thread_local std::vector<std::unique_ptr<Slot>> slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = *slots[i];
    const bool sameMapping = sigma == nullptr
                                 ? !slot.fixedMapping
                                 : slot.fixedMapping && *slot.prepared.rho == *sigma;
    if (sameMapping && sameAdjacency(slot, g)) {
      std::rotate(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(i),
                  slots.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      return slots.front()->prepared;
    }
  }
  auto slot = std::make_unique<Slot>();
  slot->n = g.numVertices();
  for (graph::Vertex v = 0; v < slot->n; ++v) {
    const util::DynBitset& row = g.row(v);
    slot->adjacency.insert(slot->adjacency.end(), row.words(), row.words() + row.wordCount());
  }
  slot->fixedMapping = sigma != nullptr;
  slot->prepared = sigma == nullptr ? buildPreparedSym(g) : buildPreparedSym(g, *sigma);
  if (slots.size() == kSlots) slots.pop_back();
  slots.insert(slots.begin(), std::move(slot));
  return slots.front()->prepared;
}

}  // namespace

PreparedSym buildPreparedSym(const graph::Graph& g) {
  std::optional<graph::Permutation> rho = graph::findNontrivialAutomorphism(g);
  graph::Vertex root = 0;
  if (rho) {
    while ((*rho)[root] == root) ++root;
  }
  return buildFor(g, std::move(rho), root);
}

PreparedSym buildPreparedSym(const graph::Graph& g, const graph::Permutation& sigma) {
  return buildFor(g, sigma, 0);
}

const PreparedSym& preparedSym(const graph::Graph& g) { return memoized(g, nullptr); }

const PreparedSym& preparedSym(const graph::Graph& g, const graph::Permutation& sigma) {
  return memoized(g, &sigma);
}

const PreparedSym& requireTree(const PreparedSym& prepared, const char* prover) {
  if (!prepared.rho) {
    throw std::invalid_argument(std::string(prover) + ": graph is not symmetric");
  }
  if (prepared.order.empty()) {
    throw std::invalid_argument(std::string(prover) + ": graph is not connected");
  }
  return prepared;
}

}  // namespace dip::core
