// Fixture: a nodeDecision that reads the honest prover's prepared instance
// (here, one cached on the message) instead of the advice it was sent.
#include "core/prepared.hpp"

bool nodeDecision(const Graph& g, Vertex v, const Msg& msg) {
  const PreparedSym& prepared = *msg.cachedPrepared;  // locality fires
  return g.hasEdge(v, prepared.tree.parent[v]);
}
