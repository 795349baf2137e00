#include "core/gni_search.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
// Below this prime (and with ell < 32) lanes are 32 bits wide.
constexpr std::uint64_t kMaxNarrowPrime = std::uint64_t{1} << 31;
// Lanes per AVX2 vector; lane rows are padded to a multiple of it.
template <typename Lane>
constexpr std::size_t kLaneBlock = 32 / sizeof(Lane);

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
// Lane values are canonical residues mod p, with p < 2^31 in a uint32_t
// lane and p < 2^63 in a uint64_t one, so a + b never carries and one
// conditional subtraction reduces it.

template <typename Lane>
inline Lane addMod(Lane a, Lane b, Lane p) {
  const Lane sum = a + b;
  return sum >= p ? sum - p : sum;
}

// dst[i] = src[i] + sum over r of rows[r][i] (mod p), for i < lanes.
template <typename Lane>
void addRowsPortable(Lane* dst, const Lane* src, const Lane* const* rows,
                     std::size_t rowCount, std::size_t lanes, Lane p) {
  for (std::size_t i = 0; i < lanes; ++i) {
    Lane acc = src[i];
    for (std::size_t r = 0; r < rowCount; ++r) acc = addMod(acc, rows[r][i], p);
    dst[i] = acc;
  }
}

// Whether (src[i] + sum over r of rows[r][i]) mod p, masked to ell bits,
// equals y[i] for some i < lanes.
template <typename Lane>
bool anyHitRowsPortable(const Lane* src, const Lane* const* rows, std::size_t rowCount,
                        const Lane* y, std::size_t lanes, Lane mask, Lane p) {
  bool hit = false;
  for (std::size_t i = 0; i < lanes; ++i) {
    Lane acc = src[i];
    for (std::size_t r = 0; r < rowCount; ++r) acc = addMod(acc, rows[r][i], p);
    hit |= (acc & mask) == y[i];
  }
  return hit;
}

#if DIP_HAVE_AVX2_KERNEL

// One AVX2 vector of lanes: splat, addMod and equality per lane width.
template <typename Lane>
struct Avx2Lanes;

template <>
struct Avx2Lanes<std::uint64_t> {
  __attribute__((target("avx2"))) static __m256i splat(std::uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  // With d = a + b - p, a sum below p wraps d past 2^63, so d's sign bit
  // picks between the sum and d.
  __attribute__((target("avx2"))) static __m256i addMod(__m256i a, __m256i b, __m256i pV) {
    const __m256i sum = _mm256_add_epi64(a, b);
    const __m256i reduced = _mm256_sub_epi64(sum, pV);
    const __m256i below = _mm256_cmpgt_epi64(_mm256_setzero_si256(), reduced);
    return _mm256_blendv_epi8(reduced, sum, below);
  }
  __attribute__((target("avx2"))) static __m256i equal(__m256i a, __m256i b) {
    return _mm256_cmpeq_epi64(a, b);
  }
};

template <>
struct Avx2Lanes<std::uint32_t> {
  __attribute__((target("avx2"))) static __m256i splat(std::uint32_t x) {
    return _mm256_set1_epi32(static_cast<int>(x));
  }
  // sum = a + b < 2p < 2^32 does not carry. If sum >= p, sum - p is the
  // smaller; if sum < p, sum - p wraps to 2^32 + sum - p > sum. So the
  // unsigned minimum is the reduced sum.
  __attribute__((target("avx2"))) static __m256i addMod(__m256i a, __m256i b, __m256i pV) {
    const __m256i sum = _mm256_add_epi32(a, b);
    return _mm256_min_epu32(sum, _mm256_sub_epi32(sum, pV));
  }
  __attribute__((target("avx2"))) static __m256i equal(__m256i a, __m256i b) {
    return _mm256_cmpeq_epi32(a, b);
  }
};

// `lanes` is a multiple of kLaneBlock<Lane> (rows are padded).
template <typename Lane>
__attribute__((target("avx2"))) void addRowsAvx2(Lane* dst, const Lane* src,
                                                 const Lane* const* rows, std::size_t rowCount,
                                                 std::size_t lanes, Lane p) {
  using Ops = Avx2Lanes<Lane>;
  const __m256i pV = Ops::splat(p);
  for (std::size_t i = 0; i < lanes; i += kLaneBlock<Lane>) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    for (std::size_t r = 0; r < rowCount; ++r) {
      acc = Ops::addMod(
          acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + i)), pV);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
  }
}

template <typename Lane>
__attribute__((target("avx2"))) bool anyHitRowsAvx2(const Lane* src, const Lane* const* rows,
                                                    std::size_t rowCount, const Lane* y,
                                                    std::size_t lanes, Lane mask, Lane p) {
  using Ops = Avx2Lanes<Lane>;
  const __m256i pV = Ops::splat(p);
  const __m256i maskV = Ops::splat(mask);
  __m256i hits = _mm256_setzero_si256();
  for (std::size_t i = 0; i < lanes; i += kLaneBlock<Lane>) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    for (std::size_t r = 0; r < rowCount; ++r) {
      acc = Ops::addMod(
          acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + i)), pV);
    }
    hits = _mm256_or_si256(
        hits, Ops::equal(_mm256_and_si256(acc, maskV),
                         _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i))));
  }
  return _mm256_testz_si256(hits, hits) == 0;
}

#endif  // DIP_HAVE_AVX2_KERNEL

// ---- The lane walk ------------------------------------------------------
//
// Lane j of a depth-d accumulator holds, for the prefix sigma[0..d-1], the
// sum of alpha_j * a_j^(e+1) over the inner-hash entries e the prefix has
// fixed, on top of the lane's start value. The start value is beta_j plus
// every term that is the same for all sigma: sigma(G_b) has an all-ones
// diagonal (rows are closed neighbourhoods), and in the general form
// sum_u q'[u][u] over the alpha block's diagonal. What is left per node:
//   * H block: sigma(G_b) is symmetric, so one pair row
//     q[r][c] + q[c][r] per unordered pair {r, c} covers both entries of an
//     edge; a node adds one row per earlier neighbour of vertex d;
//   * alpha block: row (u, c) holds q'[u][c] - q'[u][u], so a point w that
//     beta fixes adds nothing and the identity beta adds no rows at all.
// Table rows are transposed — qt[index * stride + lane] — so one DFS node's
// adds are contiguous lane loops. Compact table indices: pair {r, c} is
// pairIndex_[r n + c] < n(n-1)/2; alpha-block row (u, c) follows at
// n(n-1)/2 + u n + c.
//
// Lanes are physical: lane_[i] is the repetition physical lane i holds. At
// each depth-0 boundary the unresolved lanes move to the front and the
// kernels run only over them (rounded up to the kernel's block).
//
// A lane is a uint32_t when p < 2^31 and ell < 32, else a uint64_t: the
// table build runs a u64 Montgomery chain either way and stores canonical
// residues, so both widths give the same sums and the same first hits.

template <typename Lane>
class LaneWalk {
 public:
  LaneWalk(const Space& space, const hash::EpsApiHash& gsHash,
           std::span<const GniChallenge> targets)
      : space_(space),
        n_(space.g[0]->numVertices()),
        lanes_(targets.size()),
        stride_(roundUp(targets.size(), kLaneBlock<Lane>)),
        pairs_(n_ * (n_ - 1) / 2),
        indices_(pairs_ + (space.general() ? n_ * n_ : 0)) {
    const std::size_t laneBits = laneWalkLaneBits(gsHash, n_);
    if (laneBits == 0 || laneBits > 8 * sizeof(Lane)) {
      throw std::logic_error("gni lane walk: the field or n is too wide for the lane");
    }
    p_ = static_cast<Lane>(gsHash.fieldPrime().toU64());
    mask_ = static_cast<Lane>((std::uint64_t{1} << gsHash.outputBits()) - 1);
#if DIP_HAVE_AVX2_KERNEL
    if (hash::avx2Enabled()) {
      addRows_ = addRowsAvx2<Lane>;
      anyHitRows_ = anyHitRowsAvx2<Lane>;
      block_ = kLaneBlock<Lane>;
    }
#endif
    kernelLanes_ = roundUp(active_, block_);
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
  static std::size_t roundUp(std::size_t count, std::size_t block) {
    return (count + block - 1) / block * block;
  }
  // A lane's target once it has its hit (or can never have one): outer
  // values are masked to ell < 8 sizeof(Lane) bits, so they never reach it.
  static constexpr Lane kResolved = ~Lane{0};

  const Lane* row(std::size_t index) const { return &qt_[index * stride_]; }
  Lane* acc(std::vector<Lane>& buffer, std::size_t slot) {
    return &buffer[slot * stride_];
  }

  void buildTables(const hash::EpsApiHash& gsHash, std::span<const GniChallenge> targets) {
    const std::size_t n = n_;
    const std::size_t width = gsHash.n();
    const std::size_t blockRows = space_.general() ? 2 * n : n;

    qt_.assign(indices_ * stride_, 0);
    y_.assign(stride_, kResolved);
    h_.assign((n + 1) * stride_, 0);  // Slot 0 holds the start values.
    zeros_.assign(stride_, 0);
    lane_.resize(lanes_);
    for (std::size_t r = 0, next = 0; r < n; ++r) {
      for (std::size_t c = r + 1; c < n; ++c, ++next) {
        pairIndex_[r * n + c] = pairIndex_[c * n + r] = static_cast<std::uint16_t>(next);
      }
    }
    const std::uint64_t p = p_;
    const MontgomeryU64 montgomery(p);
    for (std::size_t j = 0; j < lanes_; ++j) {
      const GniChallenge& target = targets[j];
      const std::uint64_t aR = montgomery.toMontgomery(target.seed.a.modU64(p));
      // a^(width - n) steps over a row's columns c >= n, which no
      // candidate sets (general form only).
      std::uint64_t gapR = 0;
      if (width > n) {
        std::uint64_t gap = 1;
        for (std::size_t c = n; c < width; ++c) gap = montgomery.mul(gap, aR);
        gapR = montgomery.toMontgomery(gap);
      }
      std::uint64_t power = target.seed.alpha.modU64(p);  // alpha * a^0.
      auto start = static_cast<Lane>(target.seed.beta.modU64(p));
      for (std::size_t r = 0; r < blockRows; ++r) {
        if (r > 0 && width > n) power = montgomery.mul(power, gapR);
        const std::size_t self = r < n ? r : r - n;  // The block's diagonal column.
        Lane diagonal = 0;
        for (std::size_t c = 0; c < n; ++c) {
          power = montgomery.mul(power, aR);  // Entry (r, c): alpha a^(r width + c + 1).
          const auto entry = static_cast<Lane>(power);
          if (c == self) {
            diagonal = entry;
          } else if (r < n) {
            Lane& pair = qt_[pairIndex_[r * n + c] * stride_ + j];
            pair = addMod(pair, entry, p_);
          } else {
            qt_[(pairs_ + self * n + c) * stride_ + j] = entry;
          }
        }
        start = addMod(start, diagonal, p_);
        if (r < n) continue;
        for (std::size_t c = 0; c < n; ++c) {
          if (c == self) continue;
          Lane& entry = qt_[(pairs_ + self * n + c) * stride_ + j];
          entry = entry >= diagonal ? entry - diagonal : entry + (p_ - diagonal);
        }
      }
      h_[j] = start;
      lane_[j] = static_cast<std::uint32_t>(j);
      if (target.y.fitsU64() && target.y.toU64() <= mask_) {
        y_[j] = static_cast<Lane>(target.y.toU64());
        ++remaining_;
      }
    }
    hTop_[0] = h_.data();
    sigma_.assign(n, 0);
    hitSigma_.assign(lanes_ * n, 0);
    hits_.assign(lanes_, Hit{});
  }

  // Per-side term lists: back_[backStart_[d] ..] are the G_b neighbours
  // u < d of vertex d; autTerm_ lists, per (beta, d), the w that beta
  // moves with max(w, beta(w)) == d — at most two, since beta is a
  // bijection.
  void prepareSide(std::uint8_t b) {
    const std::size_t n = n_;
    const graph::Graph& g = *space_.g[b];
    side_ = b;
    back_.clear();
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
        if (beta[w] == w) continue;
        const std::size_t slot = t * n + std::max<std::size_t>(w, beta[w]);
        autTerm_[slot * 2 + autTermCount_[slot]++] = w;
      }
    }
    autAcc_.assign(betas_ * n * stride_, 0);
    autTop_.assign(betas_ * n, zeros_.data());
  }

  void visit(std::size_t d, std::uint32_t used) {
    const std::size_t n = n_;
    const Lane* rows[2 * kMaxWalkVertices];
    if (d + 1 == n) {  // The last vertex has exactly one choice.
      sigma_[d] = static_cast<graph::Vertex>(std::countr_zero(~used));
      leaf(rows, pairRows(d, rows));
      return;
    }
    for (graph::Vertex v = 0; v < n; ++v) {
      if ((used >> v) & 1u) continue;
      if (d == 0) retire();
      sigma_[d] = v;
      hTop_[d + 1] = sum(acc(h_, d + 1), hTop_[d], rows, pairRows(d, rows));
      for (std::size_t t = 0; t < betas_; ++t) {
        std::size_t autCount = 0;
        autRows(t, d, rows, autCount);
        const std::size_t slot = t * n + d;
        autTop_[slot + 1] = sum(acc(autAcc_, slot), autTop_[slot], rows, autCount);
      }
      visit(d + 1, used | (1u << v));
      if (remaining_ == 0) return;
    }
  }

  // Writes the pair rows of the edges (d, u), u < d, of sigma; returns
  // their count.
  std::size_t pairRows(std::size_t d, const Lane** rows) const {
    std::size_t count = 0;
    for (std::size_t i = backStart_[d]; i < backStart_[d + 1]; ++i) {
      rows[count++] = row(pairIndex_[sigma_[d] * n_ + sigma_[back_[i]]]);
    }
    return count;
  }

  // The accumulator below plus `rows`, written to `out`; or `below` itself
  // when there is nothing to add.
  const Lane* sum(Lane* out, const Lane* below, const Lane* const* rows, std::size_t count) {
    if (count == 0) return below;
    addRows_(out, below, rows, count, kernelLanes_, p_);
    return out;
  }

  // Appends the alpha-part rows beta_t adds at depth d.
  void autRows(std::size_t t, std::size_t d, const Lane** rows, std::size_t& count) const {
    const std::size_t n = n_;
    const std::size_t slot = t * n + d;
    const graph::Permutation& beta = (*space_.aut[side_])[t];
    for (std::size_t i = 0; i < autTermCount_[slot]; ++i) {
      const graph::Vertex w = autTerm_[slot * 2 + i];
      rows[count++] = row(pairs_ + sigma_[w] * n + sigma_[beta[w]]);
    }
  }

  // sigma is complete; `rows` are the H terms of the last vertex. Tests
  // each candidate in order (the one sigma(G_b), or each beta in turn).
  void leaf(const Lane** rows, std::size_t count) {
    const std::size_t d = n_ - 1;
    if (!space_.general()) {
      test(hTop_[d], rows, count, 0);
      return;
    }
    const Lane* h = sum(acc(h_, n_), hTop_[d], rows, count);
    for (std::size_t t = 0; t < betas_ && remaining_ > 0; ++t) {
      std::size_t autCount = 0;
      const Lane* below = autTop_[t * n_ + d];
      if (below != zeros_.data()) rows[autCount++] = below;
      autRows(t, d, rows, autCount);
      test(h, rows, autCount, t);
    }
  }

  void test(const Lane* src, const Lane* const* rows, std::size_t count, std::size_t t) {
    if (!anyHitRows_(src, rows, count, y_.data(), kernelLanes_, mask_, p_)) return;
    const std::size_t n = n_;
    for (std::size_t i = 0; i < active_; ++i) {
      Lane value = src[i];
      for (std::size_t r = 0; r < count; ++r) value = addMod(value, rows[r][i], p_);
      if ((value & mask_) != y_[i]) continue;
      const std::size_t j = lane_[i];
      std::copy(sigma_.begin(), sigma_.end(),
                hitSigma_.begin() + static_cast<std::ptrdiff_t>(j * n));
      hits_[j] = Hit{static_cast<std::uint32_t>(t), side_, true};
      y_[i] = kResolved;
      --remaining_;
    }
  }

  // Moves the unresolved lanes to the front, in order, and shrinks the
  // kernels to them. Called where no accumulator above the start values
  // is live: every deeper sum is rebuilt from them.
  void retire() {
    if (remaining_ == active_) return;
    const auto compact = [this](auto* values) {
      std::size_t to = 0;
      for (std::size_t i = 0; i < active_; ++i) {
        if (y_[i] != kResolved) values[to++] = values[i];
      }
    };
    for (std::size_t index = 0; index < indices_; ++index) compact(&qt_[index * stride_]);
    compact(h_.data());
    compact(lane_.data());
    compact(y_.data());  // Last: y_ is the mask the others read.
    std::fill(y_.begin() + static_cast<std::ptrdiff_t>(remaining_),
              y_.begin() + static_cast<std::ptrdiff_t>(kernelLanes_), kResolved);
    active_ = remaining_;
    kernelLanes_ = roundUp(active_, block_);
  }

  GsSearchResult results() const {
    const std::size_t n = n_;
    GsSearchResult out(lanes_);
    for (std::size_t j = 0; j < lanes_; ++j) {
      if (!hits_[j].found) continue;
      GsPreimage hit;
      hit.b = hits_[j].b;
      const auto first = hitSigma_.begin() + static_cast<std::ptrdiff_t>(j * n);
      hit.sigma.assign(first, first + static_cast<std::ptrdiff_t>(n));
      if (space_.general()) {
        // alpha = sigma . beta . sigma^-1.
        const graph::Permutation& beta = (*space_.aut[hit.b])[hits_[j].beta];
        hit.alpha.assign(n, 0);
        for (graph::Vertex w = 0; w < n; ++w) hit.alpha[hit.sigma[w]] = hit.sigma[beta[w]];
      }
      out[j] = std::move(hit);
    }
    return out;
  }

  // A repetition's first hit: the index of beta and the side b.
  struct Hit {
    std::uint32_t beta = 0;
    std::uint8_t b = 0;
    bool found = false;
  };

  const Space& space_;
  const std::size_t n_;
  const std::size_t lanes_;
  const std::size_t stride_;
  const std::size_t pairs_;    // H-block pair rows, n(n-1)/2.
  const std::size_t indices_;  // Table rows: pairs, then the alpha block.
  Lane p_ = 0;
  Lane mask_ = 0;
  void (*addRows_)(Lane*, const Lane*, const Lane* const*, std::size_t, std::size_t,
                   Lane) = addRowsPortable<Lane>;
  bool (*anyHitRows_)(const Lane*, const Lane* const*, std::size_t, const Lane*, std::size_t,
                      Lane, Lane) = anyHitRowsPortable<Lane>;
  std::size_t block_ = 1;            // The kernel's lane granularity.
  std::size_t active_ = lanes_;      // Physical lanes in use, unresolved first.
  std::size_t kernelLanes_ = 0;      // active_ rounded up to block_.

  std::vector<Lane> qt_;              // [index][lane], alpha-folded powers.
  std::vector<Lane> y_;               // [lane], kResolved once resolved.
  std::vector<Lane> h_;               // [depth][lane], H part; slot 0: start values.
  std::vector<Lane> zeros_;           // [lane], the empty sum.
  std::vector<std::uint32_t> lane_;   // [lane] -> repetition.
  std::size_t remaining_ = 0;         // Lanes that can still hit.
  std::array<std::uint16_t, kMaxWalkVertices * kMaxWalkVertices> pairIndex_{};  // [r n + c].
  std::array<const Lane*, kMaxWalkVertices + 1> hTop_{};  // [depth] -> H sum.

  std::uint8_t side_ = 0;
  std::vector<graph::Vertex> back_;
  std::array<std::size_t, kMaxWalkVertices + 1> backStart_{};
  std::size_t betas_ = 0;
  std::vector<graph::Vertex> autTerm_;
  std::vector<std::uint8_t> autTermCount_;
  std::vector<Lane> autAcc_;                    // [beta][depth][lane].
  std::vector<const Lane*> autTop_;             // [beta][depth] -> sum below depth.

  graph::Permutation sigma_;                    // The DFS prefix.
  std::vector<graph::Vertex> hitSigma_;         // [repetition][vertex].
  std::vector<Hit> hits_;                       // [repetition].
};

// The lane walk on the lanes laneWalkLaneBits() names.
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
  if (!laneWalkSupports(gsHash, n)) {
    throw std::invalid_argument(
        "searchGsPreimages: the lane walk cannot hold this hash (P >= 2^63, ell >= 64 or "
        "n > 32)");
  }
  if (targets.empty()) return {};
  if (laneWalkLaneBits(gsHash, n) == 32) {
    return LaneWalk<std::uint32_t>(space, gsHash, targets).run();
  }
  return LaneWalk<std::uint64_t>(space, gsHash, targets).run();
}

}  // namespace

bool laneWalkSupports(const hash::EpsApiHash& gsHash, std::size_t n) {
  const util::BigUInt& p = gsHash.fieldPrime();
  return p.fitsU64() && p.toU64() < kMaxWalkPrime && gsHash.outputBits() < 64 &&
         n <= kMaxWalkVertices;
}

std::size_t laneWalkLaneBits(const hash::EpsApiHash& gsHash, std::size_t n) {
  if (!laneWalkSupports(gsHash, n)) return 0;
  return gsHash.fieldPrime().toU64() < kMaxNarrowPrime && gsHash.outputBits() < 32 ? 32 : 64;
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
