#include "core/gni_amam.hpp"

#include "core/gni_frame_impl.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"

namespace dip::core {

GniInstance gniYesInstance(std::size_t n, util::Rng& rng) {
  GniInstance instance{graph::randomRigidConnected(n, rng),
                       graph::randomRigidConnected(n, rng)};
  while (graph::areIsomorphic(instance.g0, instance.g1)) {
    instance.g1 = graph::randomRigidConnected(n, rng);
  }
  return instance;
}

GniInstance gniNoInstance(std::size_t n, util::Rng& rng) {
  graph::Graph g0 = graph::randomRigidConnected(n, rng);
  graph::Graph g1 = graph::randomIsomorphicCopy(g0, rng);
  return GniInstance{std::move(g0), std::move(g1)};
}

void RigidGsShape::chainPieces(const GsPieceContext& ctx, graph::Vertex v,
                               std::span<const graph::Vertex, 1> own,
                               std::span<const util::DynBitset, 1> rows,
                               std::span<util::BigUInt, 3> out) {
  const graph::Vertex sv = own[0];
  out[0] = ctx.gs.hashMatrixRow(sv, rows[0], ctx.n);
  out[1] = ctx.check.hashMatrixEntry(v, v, 1, ctx.n);
  out[2] = ctx.check.hashMatrixEntry(sv, sv, 1, ctx.n);
}

GsSearchResult RigidGsShape::search(const GniInstance& instance,
                                    const hash::EpsApiHash& gsHash,
                                    std::span<const GniChallenge> targets) {
  return searchGsPreimages(instance, gsHash, targets);
}

// The frame's rounds, checks and honest prover for this shape.
template struct GsParams<RigidGsShape>;
template class GsProtocol<RigidGsShape>;
template class HonestGsProver<RigidGsShape>;

// ---- Non-permutation adversary ----

NonPermutationGniProver::NonPermutationGniProver(const GniParams& params,
                                                 std::uint64_t seed)
    : HonestGniProver(params), rng_(seed) {}

GniFirstMessage NonPermutationGniProver::firstMessage(
    const GniInstance& instance,
    const std::vector<std::vector<GniChallenge>>& challenges) {
  const std::size_t n = instance.g0.numVertices();
  found_.assign(params_.repetitions, std::nullopt);
  for (std::optional<GsPreimage>& found : found_) {
    found.emplace();
    graph::Permutation& sigma = found->sigma;
    sigma.resize(n);
    for (auto& value : sigma) value = static_cast<graph::Vertex>(rng_.nextBelow(n));
    sigma[0] = sigma[n - 1];  // Force a collision: definitely not injective.
  }
  return commit(instance, challenges[0]);
}

}  // namespace dip::core
