// Exact-bit message serialization.
//
// The complexity measure of the paper is the number of BITS each node
// exchanges with the prover. Every protocol message in this library is
// encoded through BitWriter/BitReader so transcripts report the true
// encoded size: node identifiers cost ceil(log2 n) bits, a hash value in
// [p] costs ceil(log2 p) bits, etc.
//
// Bits are packed most-significant first into bytes; the unused tail bits
// of the last byte are always zero (payload digests hash whole bytes).
// Multi-bit writes and reads move whole chunks: the current partial byte is
// filled first, then whole bytes follow, so the cost of a field is per
// byte, not per bit. BigUInt fields go limb by limb over BigUInt::words().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/arena.hpp"
#include "util/biguint.hpp"

namespace dip::util {

// Writers come in two storage flavors sharing one write path: the default
// heap-vector backend, and an arena backend (construct with an Arena) whose
// byte buffer bump-allocates from the caller's arena — the per-round audit
// encoders use this so a trial's wire encodings cost no heap traffic and
// vanish with the worker's per-trial reset(). An arena-backed writer must
// not be written to after the arena resets.
//
// A copy always owns its bytes: copying any writer yields a heap-backed
// writer, so in-place edits of one never show through another. Moves keep
// the source's backend and leave the source empty.
class BitWriter {
 public:
  BitWriter() = default;
  explicit BitWriter(Arena& arena) : arena_(&arena) {}

  BitWriter(const BitWriter& other);
  BitWriter& operator=(const BitWriter& other);
  BitWriter(BitWriter&& other) noexcept;
  BitWriter& operator=(BitWriter&& other) noexcept;

  void writeBit(bool bit);
  // Writes the low `width` bits of value, most-significant bit first.
  // Requires width <= 64 and value < 2^width.
  void writeUInt(std::uint64_t value, unsigned width);
  // Writes exactly `width` bits of a BigUInt (must satisfy value < 2^width).
  void writeBig(const BigUInt& value, std::size_t width);
  // Variable-length unsigned (LEB128-style, 7 data bits + continuation bit).
  void writeVarUInt(std::uint64_t value);

  // In-place edits (the wire-mutation battery). flipBit inverts the bit at
  // `position` (< bitCount(), else std::out_of_range). truncate keeps the
  // first keepBits bits (<= bitCount(), else std::out_of_range) and zeroes
  // the dropped tail bits of the new last byte.
  void flipBit(std::size_t position);
  void truncate(std::size_t keepBits);

  std::size_t bitCount() const { return bitCount_; }
  std::span<const std::uint8_t> bytes() const {
    return {data(), (bitCount_ + 7) / 8};
  }

 private:
  const std::uint8_t* data() const {
    return arena_ ? arenaData_ : heapBytes_.data();
  }
  std::uint8_t* data() { return arena_ ? arenaData_ : heapBytes_.data(); }
  // Grows the used byte range to cover `bits` bits; new bytes are zero.
  void reserveBits(std::size_t bits);
  // Appends the low `width` (<= 64) bits of value; no range checks.
  void appendBits(std::uint64_t value, unsigned width);
  void copyFrom(const BitWriter& other);

  std::vector<std::uint8_t> heapBytes_;  // Heap backend (arena_ == nullptr).
  Arena* arena_ = nullptr;               // Arena backend otherwise.
  std::uint8_t* arenaData_ = nullptr;
  std::size_t arenaCapacity_ = 0;
  std::size_t bitCount_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes, std::size_t bitCount);
  explicit BitReader(const BitWriter& writer)
      : BitReader(writer.bytes(), writer.bitCount()) {}

  bool readBit();
  std::uint64_t readUInt(unsigned width);
  BigUInt readBig(std::size_t width);
  std::uint64_t readVarUInt();

  std::size_t bitsRemaining() const { return bitCount_ - position_; }

 private:
  // Throws std::out_of_range unless `width` more bits remain.
  void require(std::size_t width) const;
  // Reads `width` (<= 64) bits already known to be in range.
  std::uint64_t takeBits(unsigned width);

  std::span<const std::uint8_t> bytes_;
  std::size_t bitCount_;
  std::size_t position_ = 0;
};

// Bits needed to encode any value in [0, count), at least 1.
unsigned bitsFor(std::uint64_t count);

}  // namespace dip::util
