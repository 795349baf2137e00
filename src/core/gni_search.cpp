#include "core/gni_search.hpp"

#include <algorithm>
#include <stdexcept>

#include "hash/batch_eval.hpp"
#include "util/mathutil.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DIP_HAVE_AVX2_KERNEL 1
#include <immintrin.h>
#endif

namespace dip::core {

namespace {

__extension__ using U128 = unsigned __int128;

constexpr std::size_t kMaxWalkVertices = 32;
constexpr std::uint64_t kMaxWalkPrime = std::uint64_t{1} << 63;
// A lane's target once it has its hit (or can never have one): outer
// values are masked to ell < 64 bits, so they never reach 2^64 - 1.
constexpr std::uint64_t kResolved = ~std::uint64_t{0};
// Lanes per AVX2 vector; lane rows are padded to a multiple of it.
constexpr std::size_t kLaneBlock = 4;

// The candidate set S (see the header): aut[b] == nullptr in the rigid form.
struct Space {
  const graph::Graph* g[2];
  const std::vector<graph::Permutation>* aut[2];
  bool general() const { return aut[0] != nullptr; }
};

// x y mod p for an odd p < 2^63, with y in Montgomery form (y 2^64 mod p):
// the table build's one multiply per power, without a 128-bit division.
class MontgomeryU64 {
 public:
  explicit MontgomeryU64(std::uint64_t p) : p_(p) {
    std::uint64_t inverse = p;  // p^-1 mod 2^64 by Newton: 3, 6, ..., 96 bits.
    for (int i = 0; i < 5; ++i) inverse *= 2 - p * inverse;
    negInverse_ = 0 - inverse;
  }
  std::uint64_t toMontgomery(std::uint64_t y) const {
    return static_cast<std::uint64_t>((static_cast<U128>(y) << 64) % p_);
  }
  std::uint64_t mul(std::uint64_t x, std::uint64_t yR) const {
    const U128 t = static_cast<U128>(x) * yR;
    const std::uint64_t m = static_cast<std::uint64_t>(t) * negInverse_;
    const auto r = static_cast<std::uint64_t>((t + static_cast<U128>(m) * p_) >> 64);
    return r >= p_ ? r - p_ : r;
  }

 private:
  std::uint64_t p_;
  std::uint64_t negInverse_;
};

// ---- Lane kernels -------------------------------------------------------
//
// Lane values are canonical residues mod p < 2^63, so a + b < 2^64 never
// carries and one conditional subtraction reduces it.

inline std::uint64_t addMod(std::uint64_t a, std::uint64_t b, std::uint64_t p) {
  const std::uint64_t sum = a + b;
  return sum >= p ? sum - p : sum;
}

// dst[i] = src[i] + sum over r of rows[r][i] (mod p), for i < lanes.
void addRowsPortable(std::uint64_t* dst, const std::uint64_t* src,
                     const std::uint64_t* const* rows, std::size_t rowCount,
                     std::size_t lanes, std::uint64_t p) {
  for (std::size_t i = 0; i < lanes; ++i) {
    std::uint64_t acc = src[i];
    for (std::size_t r = 0; r < rowCount; ++r) acc = addMod(acc, rows[r][i], p);
    dst[i] = acc;
  }
}

// Whether (src[i] + sum over r of rows[r][i]) mod p, masked to ell bits,
// equals y[i] for some i < lanes.
bool anyHitRowsPortable(const std::uint64_t* src, const std::uint64_t* const* rows,
                        std::size_t rowCount, const std::uint64_t* y, std::size_t lanes,
                        std::uint64_t mask, std::uint64_t p) {
  bool hit = false;
  for (std::size_t i = 0; i < lanes; ++i) {
    std::uint64_t acc = src[i];
    for (std::size_t r = 0; r < rowCount; ++r) acc = addMod(acc, rows[r][i], p);
    hit |= (acc & mask) == y[i];
  }
  return hit;
}

#if DIP_HAVE_AVX2_KERNEL

// Four-lane addMod: with d = a + b - p, a sum below p wraps d past 2^63,
// so d's sign bit picks between the sum and d.
__attribute__((target("avx2"))) inline __m256i addModLanes(__m256i a, __m256i b,
                                                           __m256i pV) {
  const __m256i sum = _mm256_add_epi64(a, b);
  const __m256i reduced = _mm256_sub_epi64(sum, pV);
  const __m256i below = _mm256_cmpgt_epi64(_mm256_setzero_si256(), reduced);
  return _mm256_blendv_epi8(reduced, sum, below);
}

// `lanes` is a multiple of kLaneBlock (rows are padded).
__attribute__((target("avx2"))) void addRowsAvx2(std::uint64_t* dst,
                                                 const std::uint64_t* src,
                                                 const std::uint64_t* const* rows,
                                                 std::size_t rowCount, std::size_t lanes,
                                                 std::uint64_t p) {
  const __m256i pV = _mm256_set1_epi64x(static_cast<long long>(p));
  for (std::size_t i = 0; i < lanes; i += kLaneBlock) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    for (std::size_t r = 0; r < rowCount; ++r) {
      acc = addModLanes(
          acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + i)), pV);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
  }
}

__attribute__((target("avx2"))) bool anyHitRowsAvx2(const std::uint64_t* src,
                                                    const std::uint64_t* const* rows,
                                                    std::size_t rowCount,
                                                    const std::uint64_t* y, std::size_t lanes,
                                                    std::uint64_t mask, std::uint64_t p) {
  const __m256i pV = _mm256_set1_epi64x(static_cast<long long>(p));
  const __m256i maskV = _mm256_set1_epi64x(static_cast<long long>(mask));
  __m256i hits = _mm256_setzero_si256();
  for (std::size_t i = 0; i < lanes; i += kLaneBlock) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    for (std::size_t r = 0; r < rowCount; ++r) {
      acc = addModLanes(
          acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + i)), pV);
    }
    hits = _mm256_or_si256(
        hits, _mm256_cmpeq_epi64(_mm256_and_si256(acc, maskV),
                                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i))));
  }
  return _mm256_testz_si256(hits, hits) == 0;
}

#endif  // DIP_HAVE_AVX2_KERNEL

// ---- The lane walk ------------------------------------------------------
//
// Lane j of a depth-d accumulator holds, for the prefix sigma[0..d-1], the
// sum of alpha_j * a_j^(e+1) over the inner-hash entries e the prefix has
// fixed, plus beta_j for the H part. Table rows are transposed —
// qt[index * stride + lane] — so one DFS node's adds are contiguous lane
// loops. Compact table indices: H entry (r, c) is r n + c; in the general
// form, alpha-part entry (n + u, c) of the 2n x 2n matrix is n^2 + u n + c.

class LaneWalk {
 public:
  LaneWalk(const Space& space, const hash::EpsApiHash& gsHash,
           std::span<const GniChallenge> targets)
      : space_(space),
        n_(space.g[0]->numVertices()),
        lanes_(targets.size()),
        stride_((targets.size() + kLaneBlock - 1) / kLaneBlock * kLaneBlock) {
    if (!laneWalkSupports(gsHash, n_)) {
      throw std::logic_error("gni lane walk: needs P < 2^63, ell < 64 and n <= 32");
    }
    p_ = gsHash.fieldPrime().toU64();
    mask_ = (std::uint64_t{1} << gsHash.outputBits()) - 1;
#if DIP_HAVE_AVX2_KERNEL
    if (hash::avx2Enabled()) {
      addRows_ = addRowsAvx2;
      anyHitRows_ = anyHitRowsAvx2;
      kernelLanes_ = stride_;
    }
#endif
    buildTables(gsHash, targets);
  }

  GsSearchResult run() {
    for (std::uint8_t b = 0; b < 2 && remaining_ > 0; ++b) {
      prepareSide(b);
      visit(0, 0);
    }
    return results();
  }

 private:
  const std::uint64_t* row(std::size_t index) const { return &qt_[index * stride_]; }
  std::uint64_t* acc(std::vector<std::uint64_t>& buffer, std::size_t slot) {
    return &buffer[slot * stride_];
  }

  void buildTables(const hash::EpsApiHash& gsHash, std::span<const GniChallenge> targets) {
    const std::size_t n = n_;
    const std::size_t width = gsHash.n();
    const std::size_t indices = space_.general() ? 2 * n * n : n * n;
    // compact[e]: table index of full power position e, or `indices` if unused.
    const std::size_t positions = space_.general() ? (2 * n - 1) * width + n : n * n;
    std::vector<std::size_t> compact(positions, indices);
    for (std::size_t r = 0; r < (space_.general() ? 2 * n : n); ++r) {
      for (std::size_t c = 0; c < n; ++c) compact[r * width + c] = r * n + c;
    }

    qt_.assign(indices * stride_, 0);
    y_.assign(stride_, kResolved);
    h_.assign((n + 1) * stride_, 0);
    zeros_.assign(stride_, 0);
    const MontgomeryU64 montgomery(p_);
    for (std::size_t j = 0; j < lanes_; ++j) {
      const GniChallenge& target = targets[j];
      const std::uint64_t aR = montgomery.toMontgomery(target.seed.a.modU64(p_));
      std::uint64_t power = target.seed.alpha.modU64(p_);  // alpha * a^0.
      for (std::size_t e = 0; e < positions; ++e) {
        power = montgomery.mul(power, aR);
        if (compact[e] != indices) qt_[compact[e] * stride_ + j] = power;
      }
      h_[j] = target.seed.beta.modU64(p_);
      if (target.y.fitsU64() && target.y.toU64() <= mask_) {
        y_[j] = target.y.toU64();
        ++remaining_;
      }
    }
    sigma_.assign(n, 0);
    hitSigma_.assign(lanes_ * n, 0);
    hitBeta_.assign(lanes_, 0);
    hitB_.assign(lanes_, 0);
    found_.assign(lanes_, 0);
  }

  // Per-side term lists: back_[backStart_[d] ..] are the G_b neighbours
  // u < d of vertex d; autTerm_ lists, per (beta, d), the w with
  // max(w, beta(w)) == d — at most two, since beta is a bijection.
  void prepareSide(std::uint8_t b) {
    const std::size_t n = n_;
    const graph::Graph& g = *space_.g[b];
    side_ = b;
    back_.clear();
    backStart_.assign(n + 1, 0);
    for (graph::Vertex d = 0; d < n; ++d) {
      backStart_[d] = back_.size();
      for (graph::Vertex u = 0; u < d; ++u) {
        if (g.hasEdge(d, u)) back_.push_back(u);
      }
    }
    backStart_[n] = back_.size();

    betas_ = space_.general() ? space_.aut[b]->size() : 0;
    autTerm_.assign(betas_ * n * 2, 0);
    autTermCount_.assign(betas_ * n, 0);
    for (std::size_t t = 0; t < betas_; ++t) {
      const graph::Permutation& beta = (*space_.aut[b])[t];
      for (graph::Vertex w = 0; w < n; ++w) {
        const std::size_t slot = t * n + std::max<std::size_t>(w, beta[w]);
        autTerm_[slot * 2 + autTermCount_[slot]++] = w;
      }
    }
    autAcc_.assign(betas_ * n * stride_, 0);
    autTop_.assign(betas_ * n, zeros_.data());
  }

  void visit(std::size_t d, std::uint32_t used) {
    const std::size_t n = n_;
    const std::uint64_t* rows[2 * kMaxWalkVertices];
    for (graph::Vertex v = 0; v < n; ++v) {
      if ((used >> v) & 1u) continue;
      sigma_[d] = v;
      // Self term (v, v), then both directions of each edge (d, u), u < d.
      std::size_t count = 0;
      rows[count++] = row(v * n + v);
      for (std::size_t i = backStart_[d]; i < backStart_[d + 1]; ++i) {
        const graph::Vertex su = sigma_[back_[i]];
        rows[count++] = row(v * n + su);
        rows[count++] = row(su * n + v);
      }
      if (d + 1 == n) {
        leaf(rows, count);
        return;  // The last vertex has exactly one choice.
      }
      addRows_(acc(h_, d + 1), acc(h_, d), rows, count, kernelLanes_, p_);
      for (std::size_t t = 0; t < betas_; ++t) {
        const std::size_t slot = t * n + d;
        const std::uint64_t* below = autTop_[t * n + d];
        if (autTermCount_[slot] == 0) {
          autTop_[t * n + d + 1] = below;
          continue;
        }
        std::size_t autCount = 0;
        autRows(t, d, rows, autCount);
        std::uint64_t* out = acc(autAcc_, slot);
        addRows_(out, below, rows, autCount, kernelLanes_, p_);
        autTop_[t * n + d + 1] = out;
      }
      visit(d + 1, used | (1u << v));
      if (remaining_ == 0) return;
    }
  }

  // Appends the alpha-part rows beta_t adds at depth d.
  void autRows(std::size_t t, std::size_t d, const std::uint64_t** rows,
               std::size_t& count) const {
    const std::size_t n = n_;
    const std::size_t slot = t * n + d;
    const graph::Permutation& beta = (*space_.aut[side_])[t];
    for (std::size_t i = 0; i < autTermCount_[slot]; ++i) {
      const graph::Vertex w = autTerm_[slot * 2 + i];
      rows[count++] = row(n * n + sigma_[w] * n + sigma_[beta[w]]);
    }
  }

  // sigma is complete; `rows` are the H terms of the last vertex. Tests
  // each candidate in order (the one sigma(G_b), or each beta in turn).
  void leaf(const std::uint64_t** rows, std::size_t count) {
    const std::size_t d = n_ - 1;
    if (!space_.general()) {
      test(acc(h_, d), rows, count, 0);
      return;
    }
    std::uint64_t* h = acc(h_, n_);
    addRows_(h, acc(h_, d), rows, count, kernelLanes_, p_);
    for (std::size_t t = 0; t < betas_ && remaining_ > 0; ++t) {
      std::size_t autCount = 0;
      rows[autCount++] = h;
      autRows(t, d, rows, autCount);
      test(autTop_[t * n_ + d], rows, autCount, t);
    }
  }

  void test(const std::uint64_t* src, const std::uint64_t* const* rows, std::size_t count,
            std::size_t t) {
    if (!anyHitRows_(src, rows, count, y_.data(), kernelLanes_, mask_, p_)) return;
    const std::size_t n = n_;
    for (std::size_t j = 0; j < lanes_; ++j) {
      std::uint64_t value = src[j];
      for (std::size_t r = 0; r < count; ++r) value = addMod(value, rows[r][j], p_);
      if ((value & mask_) != y_[j]) continue;
      std::copy(sigma_.begin(), sigma_.end(),
                hitSigma_.begin() + static_cast<std::ptrdiff_t>(j * n));
      hitBeta_[j] = static_cast<std::uint32_t>(t);
      hitB_[j] = side_;
      found_[j] = 1;
      y_[j] = kResolved;
      --remaining_;
    }
  }

  GsSearchResult results() const {
    const std::size_t n = n_;
    GsSearchResult out(lanes_);
    for (std::size_t j = 0; j < lanes_; ++j) {
      if (!found_[j]) continue;
      GsPreimage hit;
      hit.b = hitB_[j];
      const auto first = hitSigma_.begin() + static_cast<std::ptrdiff_t>(j * n);
      hit.sigma.assign(first, first + static_cast<std::ptrdiff_t>(n));
      if (space_.general()) {
        // alpha = sigma . beta . sigma^-1.
        const graph::Permutation& beta = (*space_.aut[hit.b])[hitBeta_[j]];
        hit.alpha.assign(n, 0);
        for (graph::Vertex w = 0; w < n; ++w) hit.alpha[hit.sigma[w]] = hit.sigma[beta[w]];
      }
      out[j] = std::move(hit);
    }
    return out;
  }

  const Space& space_;
  const std::size_t n_;
  const std::size_t lanes_;
  const std::size_t stride_;
  std::uint64_t p_ = 0;
  std::uint64_t mask_ = 0;
  void (*addRows_)(std::uint64_t*, const std::uint64_t*, const std::uint64_t* const*,
                   std::size_t, std::size_t, std::uint64_t) = addRowsPortable;
  bool (*anyHitRows_)(const std::uint64_t*, const std::uint64_t* const*, std::size_t,
                      const std::uint64_t*, std::size_t, std::uint64_t,
                      std::uint64_t) = anyHitRowsPortable;
  std::size_t kernelLanes_ = lanes_;

  std::vector<std::uint64_t> qt_;     // [index][lane], alpha-folded powers.
  std::vector<std::uint64_t> y_;      // [lane], kResolved once resolved.
  std::vector<std::uint64_t> h_;      // [depth][lane], H part (starts at beta).
  std::vector<std::uint64_t> zeros_;  // [lane], the empty sum.
  std::size_t remaining_ = 0;         // Lanes that can still hit.

  std::uint8_t side_ = 0;
  std::vector<graph::Vertex> back_;
  std::vector<std::size_t> backStart_;
  std::size_t betas_ = 0;
  std::vector<graph::Vertex> autTerm_;
  std::vector<std::uint8_t> autTermCount_;
  std::vector<std::uint64_t> autAcc_;           // [beta][depth][lane].
  std::vector<const std::uint64_t*> autTop_;    // [beta][depth] -> sum below depth.

  graph::Permutation sigma_;                    // The DFS prefix.
  std::vector<graph::Vertex> hitSigma_;         // [lane][vertex].
  std::vector<std::uint32_t> hitBeta_;
  std::vector<std::uint8_t> hitB_;
  std::vector<std::uint8_t> found_;
};

// ---- The BigUInt per-repetition loop ------------------------------------

std::optional<GsPreimage> searchOneBig(const Space& space, const hash::EpsApiHash& gsHash,
                                       const GniChallenge& target) {
  const std::size_t n = space.g[0]->numVertices();
  const std::size_t width = gsHash.n();
  const util::BigUInt& bigP = gsHash.fieldPrime();
  const hash::EpsApiHash::PowerTable table = gsHash.preparePowers(target.seed);
  std::vector<util::DynBitset> rows(n);
  for (std::uint8_t b = 0; b < 2; ++b) {
    const graph::Graph& gb = *space.g[b];
    graph::Permutation sigma = graph::identityPermutation(n);
    do {
      // Row sigma(v) of H = sigma(G_b) is {sigma(u) : u in N[v]}, padded to
      // the hash's row width.
      for (graph::Vertex v = 0; v < n; ++v) {
        rows[sigma[v]] = util::DynBitset(width);
        gb.closedRow(v).forEachSet([&](std::size_t u) { rows[sigma[v]].set(sigma[u]); });
      }
      if (!space.general()) {
        if (gsHash.hashRowsPrepared(target.seed, table, rows) == target.y) {
          return GsPreimage{sigma, {}, b};
        }
        continue;
      }
      util::BigUInt hPart;
      for (graph::Vertex r = 0; r < n; ++r) {
        hPart = util::addMod(hPart, gsHash.innerRowPrepared(table, r, rows[r]), bigP);
      }
      for (const graph::Permutation& beta : *space.aut[b]) {
        // alpha = sigma . beta . sigma^-1 is an automorphism of H.
        graph::Permutation alpha =
            graph::compose(sigma, graph::compose(beta, graph::inverse(sigma)));
        util::BigUInt full = hPart;
        for (graph::Vertex u = 0; u < n; ++u) {
          full = util::addMod(full, table.powers[(n + u) * width + alpha[u]], bigP);
        }
        if (gsHash.outer(target.seed, full) == target.y) {
          return GsPreimage{sigma, std::move(alpha), b};
        }
      }
    } while (std::next_permutation(sigma.begin(), sigma.end()));
  }
  return std::nullopt;
}

GsSearchResult search(const Space& space, const hash::EpsApiHash& gsHash,
                      std::span<const GniChallenge> targets) {
  const std::size_t n = space.g[0]->numVertices();
  if (space.g[1]->numVertices() != n || gsHash.n() != (space.general() ? 2 * n : n)) {
    throw std::invalid_argument("searchGsPreimages: graph and hash sizes disagree");
  }
  for (std::uint8_t b = 0; b < 2 && space.general(); ++b) {
    for (const graph::Permutation& beta : *space.aut[b]) {
      if (!graph::isPermutation(beta, n)) {
        throw std::invalid_argument("searchGsPreimages: automorphism is not a permutation");
      }
    }
  }
  if (targets.empty()) return {};
  if (hash::batchEnabled() && laneWalkSupports(gsHash, n)) {
    return LaneWalk(space, gsHash, targets).run();
  }
  GsSearchResult out;
  out.reserve(targets.size());
  for (const GniChallenge& target : targets) out.push_back(searchOneBig(space, gsHash, target));
  return out;
}

}  // namespace

bool laneWalkSupports(const hash::EpsApiHash& gsHash, std::size_t n) {
  const util::BigUInt& p = gsHash.fieldPrime();
  return p.fitsU64() && p.toU64() < kMaxWalkPrime && gsHash.outputBits() < 64 &&
         n <= kMaxWalkVertices;
}

GsSearchResult searchGsPreimages(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                                 std::span<const GniChallenge> targets) {
  return search(Space{{&instance.g0, &instance.g1}, {nullptr, nullptr}}, gsHash, targets);
}

GsSearchResult searchGsPreimages(const GniInstance& instance, const hash::EpsApiHash& gsHash,
                                 std::span<const GniChallenge> targets,
                                 const std::vector<graph::Permutation>& aut0,
                                 const std::vector<graph::Permutation>& aut1) {
  return search(Space{{&instance.g0, &instance.g1}, {&aut0, &aut1}}, gsHash, targets);
}

}  // namespace dip::core
