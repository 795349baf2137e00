#include "gni_search_ref.hpp"

#include <algorithm>
#include <utility>

#include "linear_hash_ref.hpp"

namespace dip::core {

namespace {

// The first hit for one target; aut == nullptr in the rigid form.
std::optional<GsPreimage> searchOne(const GniInstance& instance,
                                    const hash::EpsApiHash& gsHash,
                                    const GniChallenge& target,
                                    const std::vector<graph::Permutation>* const* aut) {
  const std::size_t n = instance.g0.numVertices();
  const std::size_t width = gsHash.n();
  const util::BigUInt& bigP = gsHash.fieldPrime();
  // powers[j] = a^(j+1): entry (r, w) of the width x width matrix hashes to
  // powers[r * width + w].
  std::vector<util::BigUInt> powers;
  hash::LinearHashEvaluator(gsHash.inner(), target.seed.a).powerTable(width * width, powers);
  for (std::uint8_t b = 0; b < 2; ++b) {
    const graph::Graph& gb = b == 0 ? instance.g0 : instance.g1;
    graph::Permutation sigma = graph::identityPermutation(n);
    do {
      // Row sigma(v) of H = sigma(G_b) is {sigma(u) : u in N[v]}.
      util::BigUInt hPart;
      for (graph::Vertex v = 0; v < n; ++v) {
        gb.closedRow(v).forEachSet([&](std::size_t u) {
          hPart = util::addMod(hPart, powers[sigma[v] * width + sigma[u]], bigP);
        });
      }
      if (aut == nullptr) {
        if (gsHash.outer(target.seed, hPart) == target.y) return GsPreimage{sigma, {}, b};
        continue;
      }
      for (const graph::Permutation& beta : *aut[b]) {
        // alpha = sigma . beta . sigma^-1 is an automorphism of H.
        graph::Permutation alpha =
            graph::compose(sigma, graph::compose(beta, graph::inverse(sigma)));
        util::BigUInt full = hPart;
        for (graph::Vertex u = 0; u < n; ++u) {
          full = util::addMod(full, powers[(n + u) * width + alpha[u]], bigP);
        }
        if (gsHash.outer(target.seed, full) == target.y) {
          return GsPreimage{sigma, std::move(alpha), b};
        }
      }
    } while (std::next_permutation(sigma.begin(), sigma.end()));
  }
  return std::nullopt;
}

GsSearchResult searchAll(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                         std::span<const GniChallenge> targets,
                         const std::vector<graph::Permutation>* const* aut) {
  GsSearchResult out;
  for (const GniChallenge& target : targets) {
    out.push_back(searchOne(instance, gsHash, target, aut));
  }
  return out;
}

}  // namespace

GsSearchResult searchGsPreimagesPerRepetition(const GniInstance& instance,
                                              const hash::EpsApiHash& gsHash,
                                              std::span<const GniChallenge> targets) {
  return searchAll(instance, gsHash, targets, nullptr);
}

GsSearchResult searchGsPreimagesPerRepetition(const GniInstance& instance,
                                              const hash::EpsApiHash& gsHash,
                                              std::span<const GniChallenge> targets,
                                              const std::vector<graph::Permutation>& aut0,
                                              const std::vector<graph::Permutation>& aut1) {
  const std::vector<graph::Permutation>* aut[2] = {&aut0, &aut1};
  return searchAll(instance, gsHash, targets, aut);
}

}  // namespace dip::core
