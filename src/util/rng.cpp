#include "util/rng.hpp"

#include <span>
#include <stdexcept>

namespace dip::util {

namespace {

std::uint64_t splitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitMix64(sm);
}

std::uint64_t Rng::nextU64() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::nextBelow(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::nextBelow: zero bound");
  // Rejection sampling to avoid modulo bias.
  std::uint64_t threshold = -bound % bound;  // == 2^64 mod bound
  for (;;) {
    std::uint64_t value = nextU64();
    if (value >= threshold) return value % bound;
  }
}

std::uint64_t Rng::nextBits(unsigned k) {
  if (k == 0) return 0;
  if (k >= 64) return nextU64();
  return nextU64() >> (64 - k);
}

bool Rng::nextChance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  constexpr double kInv = 1.0 / 18446744073709551616.0;  // 2^-64
  return static_cast<double>(nextU64()) * kInv < probability;
}

BigUInt Rng::nextBigBits(std::size_t bits) {
  // One draw per 32-bit half limb, low half first, keeping the draw's low 32
  // bits: the historical 32-bit limb stream, packed straight into the value.
  const std::size_t halves = (bits + 31) / 32;
  return BigUInt::fromWords((halves + 1) / 2, [&](std::span<BigUInt::Limb> words) {
    for (std::size_t i = 0; i < halves; ++i) {
      words[i / 2] |= (nextU64() & 0xFFFFFFFFull) << (32 * (i & 1));
    }
    if (bits % 64 != 0) words.back() &= (std::uint64_t{1} << (bits % 64)) - 1;
  });
}

BigUInt Rng::nextBigBelow(const BigUInt& bound) {
  if (bound.isZero()) throw std::invalid_argument("Rng::nextBigBelow: zero bound");
  std::size_t bits = bound.bitLength();
  for (;;) {
    BigUInt candidate = nextBigBits(bits);
    if (candidate < bound) return candidate;
  }
}

Rng Rng::split(std::uint64_t streamId) {
  // Mix the stream id with fresh output so sibling streams are independent.
  std::uint64_t mixed = nextU64() ^ (streamId * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  return Rng{mixed};
}

Rng Rng::child(std::uint64_t index) const {
  // Fold the full 256-bit state and the counter through splitMix64 so
  // children of distinct parents (or distinct indices) are independent,
  // without touching the parent's state.
  std::uint64_t acc = 0x243F6A8885A308D3ull;  // pi, as an arbitrary salt.
  for (std::uint64_t word : state_) {
    acc ^= word;
    acc = splitMix64(acc);
  }
  acc ^= index;
  return Rng{splitMix64(acc)};
}

}  // namespace dip::util
