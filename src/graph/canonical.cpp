#include "graph/canonical.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "graph/ir.hpp"
#include "util/bitset.hpp"

namespace dip::graph {

namespace {

// Colex slot of the position pair (j, k), j < k: column k holds slots
// k(k-1)/2 .. k(k+1)/2 - 1, so placing position k reveals a contiguous run.
inline std::size_t colexSlot(std::size_t j, std::size_t k) {
  return k * (k - 1) / 2 + j;
}

// Branch-and-bound lex-min search over vertex placements. Position k
// contributes a k-bit adjacency pattern against the placed prefix; numeric
// comparison of patterns equals lexicographic comparison of the revealed
// encoding bits. Two prunes: (a) a candidate whose pattern exceeds the
// incumbent's pattern at this depth cannot start a smaller completion, and
// (b) candidates in one orbit of the prefix-point-stabilizer (under the
// known automorphisms) yield identical subtree encodings, so one
// representative suffices. Equal-encoding leaves yield NEW automorphisms,
// which sharpen (b) as the search proceeds.
class CanonicalSearcher {
 public:
  CanonicalSearcher(const Graph& g, std::vector<Permutation> gens)
      : g_(g), n_(g.numVertices()), gens_(std::move(gens)) {
    const std::size_t slots = n_ * (n_ - 1) / 2;
    cur_.assign((slots + 7) / 8, 0);
    placed_.assign(n_, 0);
    used_.assign(n_, false);
    candsAt_.resize(n_ + 1);
    ufAt_.resize(n_ + 1);
    seenAt_.resize(n_ + 1);
  }

  std::vector<std::uint8_t> run() {
    if (n_ == 0) return {};
    dfs(0, /*equal=*/false);
    return best_;
  }

 private:
  std::uint64_t patternOf(Vertex c, std::size_t k) const {
    std::uint64_t pattern = 0;
    const util::DynBitset& row = g_.row(c);
    for (std::size_t j = 0; j < k; ++j) {
      pattern |= static_cast<std::uint64_t>(row.test(placed_[j])) << (k - 1 - j);
    }
    return pattern;
  }

  std::uint64_t bestPatternAt(std::size_t k) const {
    std::uint64_t pattern = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t index = colexSlot(j, k);
      pattern = (pattern << 1) |
                ((best_[index / 8] >> (7 - index % 8)) & 1u);
    }
    return pattern;
  }

  void writeCur(std::size_t k, std::uint64_t pattern) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t index = colexSlot(j, k);
      const auto mask = static_cast<std::uint8_t>(1u << (7 - index % 8));
      if ((pattern >> (k - 1 - j)) & 1u) {
        cur_[index / 8] |= mask;
      } else {
        cur_[index / 8] &= static_cast<std::uint8_t>(~mask);
      }
    }
  }

  // Union-find over vertices under the generators that fix the placed
  // prefix pointwise; rebuilt per node (gens_ grows during the search).
  void buildOrbits(std::size_t k) {
    std::vector<Vertex>& uf = ufAt_[k];
    uf.resize(n_);
    for (Vertex v = 0; v < n_; ++v) uf[v] = v;
    auto find = [&](Vertex v) {
      while (uf[v] != v) {
        uf[v] = uf[uf[v]];
        v = uf[v];
      }
      return v;
    };
    for (const Permutation& gamma : gens_) {
      bool fixesPrefix = true;
      for (std::size_t j = 0; j < k; ++j) {
        if (gamma[placed_[j]] != placed_[j]) {
          fixesPrefix = false;
          break;
        }
      }
      if (!fixesPrefix) continue;
      for (Vertex v = 0; v < n_; ++v) {
        const Vertex a = find(v);
        const Vertex b = find(gamma[v]);
        if (a != b) uf[a] = b;
      }
    }
  }

  Vertex orbitOf(std::size_t k, Vertex v) {
    std::vector<Vertex>& uf = ufAt_[k];
    while (uf[v] != v) {
      uf[v] = uf[uf[v]];
      v = uf[v];
    }
    return v;
  }

  // Returns true if best_ was replaced somewhere in this subtree.
  bool dfs(std::size_t k, bool equal) {
    if (k == n_) {
      if (!haveBest_ || cur_ < best_) {
        best_ = cur_;
        bestPerm_.assign(placed_.begin(), placed_.end());
        haveBest_ = true;
        return true;
      }
      if (cur_ == best_) {
        // Two placements with identical encodings: the relabeling taking one
        // to the other is an automorphism (encoding equality is the proof).
        Permutation gamma(n_);
        for (std::size_t i = 0; i < n_; ++i) gamma[bestPerm_[i]] = placed_[i];
        if (!isIdentity(gamma)) gens_.push_back(std::move(gamma));
      }
      return false;
    }

    auto& cands = candsAt_[k];
    cands.clear();
    for (Vertex c = 0; c < n_; ++c) {
      if (!used_[c]) cands.emplace_back(patternOf(c, k), c);
    }
    std::sort(cands.begin(), cands.end());
    buildOrbits(k);
    auto& seenOrbits = seenAt_[k];
    seenOrbits.clear();

    bool replaced = false;
    for (const auto& [pattern, c] : cands) {
      const Vertex rep = orbitOf(k, c);
      bool duplicate = false;
      for (const auto& [seenPattern, seenRep] : seenOrbits) {
        if (seenRep == rep) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      seenOrbits.emplace_back(pattern, rep);

      bool childEqual = false;
      if (haveBest_ && equal) {
        const std::uint64_t incumbent = bestPatternAt(k);
        if (pattern > incumbent) break;  // Sorted: everything after is larger too.
        childEqual = pattern == incumbent;
      }
      placed_[k] = c;
      used_[c] = true;
      writeCur(k, pattern);
      if (dfs(k + 1, childEqual)) {
        replaced = true;
        equal = true;  // The new incumbent extends the current prefix.
      }
      used_[c] = false;
    }
    return replaced;
  }

  const Graph& g_;
  std::size_t n_;
  std::vector<Permutation> gens_;
  std::vector<std::uint8_t> cur_;
  std::vector<std::uint8_t> best_;
  std::vector<Vertex> placed_;
  std::vector<Vertex> bestPerm_;
  std::vector<bool> used_;
  bool haveBest_ = false;
  std::vector<std::vector<std::pair<std::uint64_t, Vertex>>> candsAt_;
  std::vector<std::vector<Vertex>> ufAt_;
  std::vector<std::vector<std::pair<std::uint64_t, Vertex>>> seenAt_;
};

struct CanonicalCacheEntry {
  std::mutex lock;
  std::condition_variable ready;
  bool done = false;
  std::vector<std::uint8_t> value;
};

struct CanonicalCacheState {
  std::mutex tableLock;
  std::map<std::string, std::shared_ptr<CanonicalCacheEntry>> table;
  std::atomic<std::size_t> searches{0};
};

CanonicalCacheState& canonicalCacheState() {
  static CanonicalCacheState state;
  return state;
}

std::string cacheKey(const Graph& g) {
  const util::DynBitset bits = g.upperTriangleBits();
  std::string key;
  key.reserve(1 + bits.wordCount() * 8);
  key.push_back(static_cast<char>(g.numVertices()));
  const std::uint64_t* words = bits.words();
  for (std::size_t i = 0; i < bits.wordCount(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      key.push_back(static_cast<char>((words[i] >> (8 * b)) & 0xFF));
    }
  }
  return key;
}

}  // namespace

std::vector<std::uint8_t> canonicalForm(const Graph& g) {
  if (g.numVertices() > 64) {
    throw std::invalid_argument("canonicalForm: limited to n <= 64");
  }
  IrSolver solver;
  CanonicalSearcher searcher(g, solver.automorphismGenerators(g));
  return searcher.run();
}

std::vector<std::uint8_t> cachedCanonicalForm(const Graph& g) {
  CanonicalCacheState& state = canonicalCacheState();

  std::shared_ptr<CanonicalCacheEntry> entry;
  bool firstUser = false;
  {
    std::lock_guard<std::mutex> guard(state.tableLock);
    auto [it, inserted] = state.table.try_emplace(cacheKey(g), nullptr);
    if (inserted) {
      it->second = std::make_shared<CanonicalCacheEntry>();
      firstUser = true;
    }
    entry = it->second;
  }

  if (firstUser) {
    // Single flight: this thread performs the one search for the graph.
    std::vector<std::uint8_t> form = canonicalForm(g);
    state.searches.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> guard(entry->lock);
    entry->value = std::move(form);
    entry->done = true;
    entry->ready.notify_all();
    return entry->value;
  }

  std::unique_lock<std::mutex> guard(entry->lock);
  entry->ready.wait(guard, [&] { return entry->done; });
  return entry->value;
}

std::size_t canonicalFormCacheSearches() {
  return canonicalCacheState().searches.load(std::memory_order_relaxed);
}

void canonicalFormCacheResetForTests() {
  CanonicalCacheState& state = canonicalCacheState();
  std::lock_guard<std::mutex> guard(state.tableLock);
  state.table.clear();
}

bool isomorphicByCanonicalForm(const Graph& g0, const Graph& g1) {
  if (g0.numVertices() != g1.numVertices()) return false;
  if (g0.numEdges() != g1.numEdges()) return false;
  return cachedCanonicalForm(g0) == cachedCanonicalForm(g1);
}

std::uint64_t countIsoClassesByCanonicalForm(std::size_t n) {
  if (n < 1 || n > 7) {
    throw std::invalid_argument("countIsoClassesByCanonicalForm: 1 <= n <= 7");
  }
  const std::size_t slots = n * (n - 1) / 2;
  std::unordered_set<std::string> forms;
  for (std::uint64_t code = 0; code < (1ull << slots); ++code) {
    std::vector<std::uint8_t> form = canonicalForm(Graph::fromUpperTriangleCode(n, code));
    forms.emplace(form.begin(), form.end());
  }
  return forms.size();
}

}  // namespace dip::graph
