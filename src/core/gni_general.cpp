#include "core/gni_general.hpp"

#include "core/gni_frame_impl.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"

namespace dip::core {

void GeneralGsShape::chainPieces(const GsPieceContext& ctx, graph::Vertex v,
                                 std::span<const graph::Vertex, 2> own,
                                 std::span<const util::DynBitset, 2> rows,
                                 std::span<util::BigUInt, 6> out) {
  const std::size_t n = ctx.n;
  const std::size_t width = 2 * n;
  const graph::Vertex sv = own[0];
  const graph::Vertex av = own[1];
  // H's row sigma(v), padded to the hash's 2n-bit row width; alpha's row
  // n + sigma(v) has the one set bit alpha(sigma(v)).
  util::DynBitset padded(width);
  rows[0].forEachSet([&](std::size_t i) { padded.set(i); });
  out[0] = ctx.gsHash.combine(ctx.gs.hashMatrixRow(sv, padded, width),
                              ctx.gs.hashMatrixEntry(n + sv, av, 1, width));
  out[1] = ctx.check.hashMatrixEntry(v, v, 1, n);
  out[2] = ctx.check.hashMatrixEntry(sv, sv, 1, n);
  out[3] = ctx.check.hashMatrixEntry(av, av, 1, n);
  out[4] = ctx.check.hashMatrixRow(sv, rows[0], n);
  out[5] = ctx.check.hashMatrixRow(av, rows[1], n);
}

GsSearchResult GeneralGsShape::search(const GniInstance& instance,
                                      const hash::EpsApiHash& gsHash,
                                      std::span<const GniChallenge> targets) {
  return searchGsPreimages(instance, gsHash, targets, graph::allAutomorphisms(instance.g0),
                           graph::allAutomorphisms(instance.g1));
}

// The frame's rounds, checks and honest prover for this shape.
template struct GsParams<GeneralGsShape>;
template class GsProtocol<GeneralGsShape>;
template class HonestGsProver<GeneralGsShape>;

// ---- Instance generators ----

GniInstance gniGeneralYesInstance(std::size_t n, util::Rng& rng) {
  // A symmetric g0 (the case the basic protocol cannot count) against a
  // rigid, non-isomorphic g1.
  graph::Graph g0 = graph::randomSymmetricConnected(n, rng);
  graph::Graph g1 = graph::randomRigidConnected(n, rng);
  // Different automorphism counts already guarantee non-isomorphism.
  return GniInstance{std::move(g0), std::move(g1)};
}

GniInstance gniGeneralNoInstance(std::size_t n, util::Rng& rng) {
  graph::Graph g0 = graph::randomSymmetricConnected(n, rng);
  graph::Graph g1 = graph::randomIsomorphicCopy(g0, rng);
  return GniInstance{std::move(g0), std::move(g1)};
}

}  // namespace dip::core
