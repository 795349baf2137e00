#include "iso_ref.hpp"

#include <algorithm>

namespace dip::graph {

namespace {

// Backtracking mapper: 1-WL colors prune the candidates, and the
// most-constrained unmapped vertex is branched on first.
class IsoSearcher {
 public:
  IsoSearcher(const Graph& g0, const Graph& g1) : g0_(g0), g1_(g1) {
    n_ = g0.numVertices();
    colors0_ = refinementColors(g0);
    colors1_ = (&g0 == &g1) ? colors0_ : refinementColors(g1);
    mapping_.assign(n_, kUnmapped);
    used_.assign(n_, false);
    mappedMask0_ = util::DynBitset(n_);
    usedMask1_ = util::DynBitset(n_);
  }

  // Color class histograms must agree for an isomorphism to exist.
  bool colorHistogramsMatch() const {
    std::vector<std::uint32_t> h0 = colors0_;
    std::vector<std::uint32_t> h1 = colors1_;
    std::sort(h0.begin(), h0.end());
    std::sort(h1.begin(), h1.end());
    return h0 == h1;
  }

  // Runs the search; visit(mapping) is called on every complete isomorphism
  // found and returns true to stop the search.
  template <typename Visit>
  bool search(Visit&& visit) {
    return recurse(0, visit);
  }

 private:
  static constexpr Vertex kUnmapped = static_cast<Vertex>(-1);

  // Picks the unmapped vertex with the fewest viable targets
  // (most-constrained-variable heuristic); fills `targets` for it. Scratch
  // lives on the searcher so the recursion does not reallocate per call.
  Vertex selectNext(std::vector<Vertex>& targets) {
    Vertex best = kUnmapped;
    std::size_t bestCount = static_cast<std::size_t>(-1);
    bestTargets_.clear();
    for (Vertex v = 0; v < n_; ++v) {
      if (mapping_[v] != kUnmapped) continue;
      scratchTargets_.clear();
      for (Vertex u = 0; u < n_; ++u) {
        if (!used_[u] && viable(v, u)) scratchTargets_.push_back(u);
      }
      if (scratchTargets_.size() < bestCount) {
        bestCount = scratchTargets_.size();
        best = v;
        std::swap(bestTargets_, scratchTargets_);
        if (bestCount <= 1) break;
      }
    }
    targets = bestTargets_;
    return best;
  }

  bool viable(Vertex v, Vertex u) const {
    if (colors0_[v] != colors1_[u]) return false;
    if (g0_.degree(v) != g1_.degree(u)) return false;
    // Adjacency with every already-mapped vertex must be preserved both
    // ways: the image of N(v) ∩ mapped must equal N(u) ∩ used. A word-wise
    // intersection walk replaces the old all-vertices scalar scan.
    const std::uint64_t* rowV = g0_.row(v).words();
    const std::uint64_t* mapped = mappedMask0_.words();
    const util::DynBitset& rowU = g1_.row(u);
    std::size_t forwardHits = 0;
    const std::size_t wordCount = g0_.row(v).wordCount();
    for (std::size_t i = 0; i < wordCount; ++i) {
      std::uint64_t word = rowV[i] & mapped[i];
      while (word) {
        const auto w = static_cast<Vertex>(
            i * 64 + static_cast<unsigned>(__builtin_ctzll(word)));
        word &= word - 1;
        if (!rowU.test(mapping_[w])) return false;
        ++forwardHits;
      }
    }
    const std::uint64_t* rowUWords = rowU.words();
    const std::uint64_t* usedWords = usedMask1_.words();
    std::size_t backHits = 0;
    for (std::size_t i = 0; i < wordCount; ++i) {
      backHits += static_cast<std::size_t>(__builtin_popcountll(rowUWords[i] & usedWords[i]));
    }
    return forwardHits == backHits;
  }

  template <typename Visit>
  bool recurse(std::size_t depth, Visit& visit) {
    if (depth == n_) {
      return visit(Permutation(mapping_.begin(), mapping_.end()));
    }
    std::vector<Vertex> targets;
    Vertex v = selectNext(targets);
    if (targets.empty()) return false;
    for (Vertex u : targets) {
      mapping_[v] = u;
      used_[u] = true;
      mappedMask0_.set(v);
      usedMask1_.set(u);
      if (recurse(depth + 1, visit)) return true;
      mapping_[v] = kUnmapped;
      used_[u] = false;
      mappedMask0_.reset(v);
      usedMask1_.reset(u);
    }
    return false;
  }

  const Graph& g0_;
  const Graph& g1_;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> colors0_;
  std::vector<std::uint32_t> colors1_;
  std::vector<Vertex> mapping_;
  std::vector<bool> used_;
  util::DynBitset mappedMask0_;
  util::DynBitset usedMask1_;
  std::vector<Vertex> scratchTargets_;
  std::vector<Vertex> bestTargets_;
};

}  // namespace

std::optional<Permutation> findIsomorphismBacktracking(const Graph& g0, const Graph& g1) {
  if (g0.numVertices() != g1.numVertices()) return std::nullopt;
  if (g0.numEdges() != g1.numEdges()) return std::nullopt;
  IsoSearcher searcher(g0, g1);
  if (!searcher.colorHistogramsMatch()) return std::nullopt;
  std::optional<Permutation> found;
  searcher.search([&](const Permutation& perm) {
    found = perm;
    return true;
  });
  return found;
}

std::uint64_t countAutomorphismsBacktracking(const Graph& g, std::uint64_t cap) {
  if (g.numVertices() == 0) return 1;
  IsoSearcher searcher(g, g);
  std::uint64_t count = 0;
  searcher.search([&](const Permutation&) {
    ++count;
    return count >= cap;
  });
  return count;
}

}  // namespace dip::graph
