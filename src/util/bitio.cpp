#include "util/bitio.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dip::util {

namespace {

constexpr std::size_t kFirstBlock = 16;

std::size_t bytesFor(std::size_t bits) { return (bits + 7) / 8; }

// The low `width` (< 64) bits set.
std::uint64_t lowMask(unsigned width) { return (std::uint64_t{1} << width) - 1; }

}  // namespace

BitWriter::BitWriter(const BitWriter& other) { copyFrom(other); }

BitWriter& BitWriter::operator=(const BitWriter& other) {
  if (this != &other) copyFrom(other);
  return *this;
}

BitWriter::BitWriter(BitWriter&& other) noexcept
    : heapBytes_(std::exchange(other.heapBytes_, {})),
      arena_(std::exchange(other.arena_, nullptr)),
      arenaData_(std::exchange(other.arenaData_, nullptr)),
      arenaCapacity_(std::exchange(other.arenaCapacity_, 0)),
      bitCount_(std::exchange(other.bitCount_, 0)) {}

BitWriter& BitWriter::operator=(BitWriter&& other) noexcept {
  if (this != &other) {
    heapBytes_ = std::exchange(other.heapBytes_, {});
    arena_ = std::exchange(other.arena_, nullptr);
    arenaData_ = std::exchange(other.arenaData_, nullptr);
    arenaCapacity_ = std::exchange(other.arenaCapacity_, 0);
    bitCount_ = std::exchange(other.bitCount_, 0);
  }
  return *this;
}

void BitWriter::copyFrom(const BitWriter& other) {
  const std::span<const std::uint8_t> source = other.bytes();
  heapBytes_.assign(source.begin(), source.end());
  arena_ = nullptr;
  arenaData_ = nullptr;
  arenaCapacity_ = 0;
  bitCount_ = other.bitCount_;
}

void BitWriter::reserveBits(std::size_t bits) {
  const std::size_t used = bytesFor(bitCount_);
  const std::size_t needed = bytesFor(bits);
  if (needed <= used) return;
  // Both backends grow geometrically from a 16-byte first block, so a
  // payload of a few fields allocates once.
  if (arena_ == nullptr) {
    const std::size_t capacity = heapBytes_.capacity();
    if (needed > capacity) heapBytes_.reserve(std::max({capacity * 2, needed, kFirstBlock}));
    heapBytes_.resize(needed, 0);
    return;
  }
  if (needed > arenaCapacity_) {
    const std::size_t grown = std::max({arenaCapacity_ * 2, needed, kFirstBlock});
    auto* fresh = arena_->allocateArray<std::uint8_t>(grown);
    std::copy(arenaData_, arenaData_ + used, fresh);
    arenaData_ = fresh;
    arenaCapacity_ = grown;
  }
  // Capacity past the used range may hold bytes a truncate dropped.
  std::fill(arenaData_ + used, arenaData_ + needed, std::uint8_t{0});
}

void BitWriter::appendBits(std::uint64_t value, unsigned width) {
  if (width == 0) return;
  reserveBits(bitCount_ + width);
  std::uint8_t* out = data() + bitCount_ / 8;
  const unsigned offset = bitCount_ % 8;
  bitCount_ += width;
  if (offset != 0) {
    // Fill the partial byte with the top bits of the field.
    const unsigned room = 8 - offset;
    if (width <= room) {
      *out |= static_cast<std::uint8_t>(value << (room - width));
      return;
    }
    width -= room;
    *out++ |= static_cast<std::uint8_t>(value >> width);
    value &= lowMask(width);
  }
  while (width >= 8) {
    width -= 8;
    *out++ = static_cast<std::uint8_t>(value >> width);
  }
  if (width != 0) *out = static_cast<std::uint8_t>(value << (8 - width));
}

void BitWriter::writeBit(bool bit) { appendBits(bit ? 1u : 0u, 1); }

void BitWriter::writeUInt(std::uint64_t value, unsigned width) {
  if (width > 64) throw std::invalid_argument("BitWriter::writeUInt: width > 64");
  if (width < 64 && (value >> width) != 0) {
    throw std::invalid_argument("BitWriter::writeUInt: value does not fit width");
  }
  appendBits(value, width);
}

void BitWriter::writeBig(const BigUInt& value, std::size_t width) {
  if (value.bitLength() > width) {
    throw std::invalid_argument("BitWriter::writeBig: value does not fit width");
  }
  const std::span<const BigUInt::Limb> words = value.words();
  constexpr std::size_t kLimbBits = BigUInt::kLimbBits;
  // Leading zeros above the top limb cost no stores: new bytes are zero.
  const std::size_t limbSpan = words.size() * kLimbBits;
  if (width > limbSpan) {
    reserveBits(bitCount_ + (width - limbSpan));
    bitCount_ += width - limbSpan;
    width = limbSpan;
  }
  // Limbs at or above ceil(width / kLimbBits) are zero (value < 2^width).
  for (std::size_t i = (width + kLimbBits - 1) / kLimbBits; i-- > 0;) {
    const auto limbWidth = static_cast<unsigned>(width - i * kLimbBits);
    appendBits(words[i], limbWidth);
    width -= limbWidth;
  }
}

void BitWriter::writeVarUInt(std::uint64_t value) {
  do {
    const std::uint64_t chunk = value & 0x7F;
    value >>= 7;
    appendBits((value != 0 ? 0x80u : 0u) | chunk, 8);
  } while (value != 0);
}

void BitWriter::flipBit(std::size_t position) {
  if (position >= bitCount_) throw std::out_of_range("BitWriter::flipBit: past end");
  data()[position / 8] ^= static_cast<std::uint8_t>(0x80u >> (position % 8));
}

void BitWriter::truncate(std::size_t keepBits) {
  if (keepBits > bitCount_) throw std::out_of_range("BitWriter::truncate: past end");
  if (keepBits % 8 != 0) {
    data()[keepBits / 8] &= static_cast<std::uint8_t>(0xFF00u >> (keepBits % 8));
  }
  bitCount_ = keepBits;
  if (arena_ == nullptr) heapBytes_.resize(bytesFor(keepBits));
}

BitReader::BitReader(std::span<const std::uint8_t> bytes, std::size_t bitCount)
    : bytes_(bytes), bitCount_(bitCount) {
  if (bitCount > bytes.size() * 8) {
    throw std::invalid_argument("BitReader: bit count exceeds buffer");
  }
}

void BitReader::require(std::size_t width) const {
  if (width > bitCount_ - position_) throw std::out_of_range("BitReader: read past end");
}

std::uint64_t BitReader::takeBits(unsigned width) {
  if (width == 0) return 0;
  const std::uint8_t* in = bytes_.data() + position_ / 8;
  const unsigned offset = position_ % 8;
  position_ += width;
  std::uint64_t value = 0;
  if (offset != 0) {
    // Drain the partial byte first.
    const unsigned room = 8 - offset;
    const std::uint64_t head = *in & lowMask(room);
    if (width <= room) return head >> (room - width);
    value = head;
    width -= room;
    ++in;
  }
  while (width >= 8) {
    value = (value << 8) | *in++;
    width -= 8;
  }
  if (width != 0) value = (value << width) | (*in >> (8 - width));
  return value;
}

bool BitReader::readBit() {
  require(1);
  return takeBits(1) != 0;
}

std::uint64_t BitReader::readUInt(unsigned width) {
  if (width > 64) throw std::invalid_argument("BitReader::readUInt: width > 64");
  require(width);
  return takeBits(width);
}

BigUInt BitReader::readBig(std::size_t width) {
  require(width);
  constexpr std::size_t kLimbBits = BigUInt::kLimbBits;
  // The top limb carries width % kLimbBits bits (or a full limb), then whole
  // limbs follow down to limb 0.
  const std::size_t count = (width + kLimbBits - 1) / kLimbBits;
  return BigUInt::fromWords(count, [&](std::span<BigUInt::Limb> words) {
    for (std::size_t i = count; i-- > 0;) {
      const auto limbWidth = static_cast<unsigned>(width - i * kLimbBits);
      words[i] = takeBits(limbWidth);
      width -= limbWidth;
    }
  });
}

std::uint64_t BitReader::readVarUInt() {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (;;) {
    // One group: a continuation bit, then 7 data bits.
    const std::uint64_t group = readUInt(8);
    value |= (group & 0x7F) << shift;
    if ((group & 0x80) == 0) return value;
    shift += 7;
    if (shift >= 64) throw std::runtime_error("BitReader::readVarUInt: overlong");
  }
}

unsigned bitsFor(std::uint64_t count) {
  if (count <= 2) return 1;
  unsigned bits = 0;
  std::uint64_t maxValue = count - 1;
  while (maxValue) {
    ++bits;
    maxValue >>= 1;
  }
  return bits;
}

}  // namespace dip::util
