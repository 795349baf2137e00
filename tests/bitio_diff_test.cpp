// Differential test of the chunked bit codec against the bit-at-a-time
// codec it replaced. RefWriter/RefReader below are that codec, kept here as
// the oracle: one writeBit/readBit per bit, BigUInt fields through bit(i)
// on the way out and 32-bit limbs on the way back. Random mixes of writes,
// started at every bit offset 0-7 on both BitWriter backends, must produce
// the same bytes and bit count, read back the same values, and throw
// std::out_of_range on every read past the end. The in-place edits
// (flipBit, truncate) must match the old rebuild-through-vector<bool>
// mutation, including the zeroed tail bits that payload digests hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "fuzz_seed.hpp"
#include "limbs32.hpp"
#include "util/arena.hpp"
#include "util/bitio.hpp"
#include "util/rng.hpp"

namespace dip::util {
namespace {

using testutil::fuzzStream;
using testutil::seedLine;

class RefWriter {
 public:
  void writeBit(bool bit) {
    if (bitCount_ % 8 == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<std::uint8_t>(1u << (7 - bitCount_ % 8));
    ++bitCount_;
  }
  void writeUInt(std::uint64_t value, unsigned width) {
    for (unsigned i = width; i-- > 0;) writeBit((value >> i) & 1u);
  }
  void writeBig(const BigUInt& value, std::size_t width) {
    for (std::size_t i = width; i-- > 0;) writeBit(value.bit(i));
  }
  void writeVarUInt(std::uint64_t value) {
    do {
      std::uint64_t chunk = value & 0x7F;
      value >>= 7;
      writeBit(value != 0);
      writeUInt(chunk, 7);
    } while (value != 0);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t bitCount() const { return bitCount_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bitCount_ = 0;
};

class RefReader {
 public:
  RefReader(std::span<const std::uint8_t> bytes, std::size_t bitCount)
      : bytes_(bytes), bitCount_(bitCount) {}

  bool readBit() {
    if (position_ >= bitCount_) throw std::out_of_range("RefReader: read past end");
    bool bit = (bytes_[position_ / 8] >> (7 - position_ % 8)) & 1u;
    ++position_;
    return bit;
  }
  std::uint64_t readUInt(unsigned width) {
    std::uint64_t value = 0;
    for (unsigned i = 0; i < width; ++i) value = (value << 1) | (readBit() ? 1u : 0u);
    return value;
  }
  BigUInt readBig(std::size_t width) {
    std::size_t fullLimbs = width / 32;
    std::size_t headBits = width % 32;
    std::vector<std::uint32_t> limbs(fullLimbs + (headBits ? 1 : 0), 0);
    if (headBits) {
      limbs[fullLimbs] = static_cast<std::uint32_t>(readUInt(static_cast<unsigned>(headBits)));
    }
    for (std::size_t i = fullLimbs; i-- > 0;) {
      limbs[i] = static_cast<std::uint32_t>(readUInt(32));
    }
    return testutil::fromLimbs32(limbs);
  }
  std::uint64_t readVarUInt() {
    std::uint64_t value = 0;
    unsigned shift = 0;
    for (;;) {
      bool more = readBit();
      value |= readUInt(7) << shift;
      if (!more) return value;
      shift += 7;
      if (shift >= 64) throw std::runtime_error("RefReader: overlong");
    }
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t bitCount_;
  std::size_t position_ = 0;
};

// The mutation path before in-place edits: unpack to vector<bool>, edit,
// rebuild bit by bit.
std::vector<bool> unpack(std::span<const std::uint8_t> bytes, std::size_t bitCount) {
  RefReader reader(bytes, bitCount);
  std::vector<bool> bits(bitCount);
  for (std::size_t i = 0; i < bitCount; ++i) bits[i] = reader.readBit();
  return bits;
}

RefWriter repack(const std::vector<bool>& bits) {
  RefWriter writer;
  for (bool bit : bits) writer.writeBit(bit);
  return writer;
}

void expectSameBytes(const BitWriter& actual, const RefWriter& expected) {
  ASSERT_EQ(actual.bitCount(), expected.bitCount());
  const std::span<const std::uint8_t> bytes = actual.bytes();
  ASSERT_EQ(bytes.size(), expected.bytes().size());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expected.bytes().begin()));
}

enum class OpKind { kBit, kUInt, kBig, kVar };

struct Op {
  OpKind kind;
  std::uint64_t value = 0;
  BigUInt big;
  std::size_t width = 0;
};

// A value of `width` bits, drawn to hit the edges often: 0, all ones, or
// uniformly random.
std::uint64_t edgyUInt(Rng& rng, unsigned width) {
  switch (rng.nextBelow(4)) {
    case 0:
      return 0;
    case 1:
      return width == 64 ? std::numeric_limits<std::uint64_t>::max()
                         : (std::uint64_t{1} << width) - 1;
    default:
      return rng.nextBits(width);
  }
}

BigUInt edgyBig(Rng& rng, std::size_t width) {
  switch (rng.nextBelow(4)) {
    case 0:
      return BigUInt{};
    case 1:
      return (BigUInt{1} << width) - BigUInt{1};
    default:
      return rng.nextBigBits(width);
  }
}

Op randomOp(Rng& rng) {
  Op op;
  switch (rng.nextBelow(4)) {
    case 0:
      op.kind = OpKind::kBit;
      op.value = rng.nextBits(1);
      op.width = 1;
      break;
    case 1:
      op.kind = OpKind::kUInt;
      op.width = rng.nextBelow(65);
      op.value = edgyUInt(rng, static_cast<unsigned>(op.width));
      break;
    case 2:
      op.kind = OpKind::kBig;
      op.width = 1 + rng.nextBelow(300);
      op.big = edgyBig(rng, op.width);
      break;
    default:
      op.kind = OpKind::kVar;
      op.value = edgyUInt(rng, 1 + static_cast<unsigned>(rng.nextBelow(64)));
      break;
  }
  return op;
}

template <typename Writer>
void apply(Writer& writer, const Op& op) {
  switch (op.kind) {
    case OpKind::kBit:
      writer.writeBit(op.value != 0);
      break;
    case OpKind::kUInt:
      writer.writeUInt(op.value, static_cast<unsigned>(op.width));
      break;
    case OpKind::kBig:
      writer.writeBig(op.big, op.width);
      break;
    case OpKind::kVar:
      writer.writeVarUInt(op.value);
      break;
  }
}

// Every read shape must refuse to run past the end.
void expectEveryReadPastEndThrows(const BitWriter& writer, std::size_t position) {
  auto positioned = [&] {
    BitReader reader(writer);
    for (std::size_t skip = position; skip > 0;) {
      const auto chunk = static_cast<unsigned>(std::min<std::size_t>(skip, 64));
      reader.readUInt(chunk);
      skip -= chunk;
    }
    return reader;
  };
  const std::size_t remaining = writer.bitCount() - position;
  if (remaining < 64) {
    BitReader reader = positioned();
    EXPECT_THROW(reader.readUInt(static_cast<unsigned>(remaining + 1)), std::out_of_range);
  }
  BitReader big = positioned();
  EXPECT_THROW(big.readBig(remaining + 1), std::out_of_range);
  if (remaining == 0) {
    BitReader reader = positioned();
    EXPECT_THROW(reader.readBit(), std::out_of_range);
    BitReader var = positioned();
    EXPECT_THROW(var.readVarUInt(), std::out_of_range);
  }
}

// Runs one random sequence on the chosen backend, starting at bit `offset`.
void checkSequence(std::uint64_t seed, std::uint64_t trial, unsigned offset, bool useArena) {
  SCOPED_TRACE(seedLine(seed, trial));
  SCOPED_TRACE(testing::Message() << "offset " << offset << (useArena ? " arena" : " heap"));
  Rng rng = fuzzStream(seed, trial);
  Arena arena;
  BitWriter writer = useArena ? BitWriter(arena) : BitWriter();
  RefWriter ref;
  std::vector<Op> ops;
  for (unsigned i = 0; i < offset; ++i) {
    Op op;
    op.kind = OpKind::kBit;
    op.value = rng.nextBits(1);
    ops.push_back(op);
  }
  const std::size_t opCount = 1 + rng.nextBelow(30);
  for (std::size_t i = 0; i < opCount; ++i) ops.push_back(randomOp(rng));
  for (const Op& op : ops) {
    apply(writer, op);
    apply(ref, op);
    ASSERT_EQ(writer.bitCount(), ref.bitCount());
  }
  expectSameBytes(writer, ref);

  BitReader reader(writer);
  RefReader refReader(writer.bytes(), writer.bitCount());
  std::size_t position = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kBit:
        EXPECT_EQ(reader.readBit(), refReader.readBit());
        ++position;
        break;
      case OpKind::kUInt: {
        const auto width = static_cast<unsigned>(op.width);
        const std::uint64_t value = reader.readUInt(width);
        EXPECT_EQ(value, op.value);
        EXPECT_EQ(value, refReader.readUInt(width));
        position += width;
        break;
      }
      case OpKind::kBig: {
        const BigUInt value = reader.readBig(op.width);
        EXPECT_EQ(value, op.big);
        EXPECT_EQ(value, refReader.readBig(op.width));
        position += op.width;
        break;
      }
      case OpKind::kVar: {
        const std::size_t before = reader.bitsRemaining();
        const std::uint64_t value = reader.readVarUInt();
        EXPECT_EQ(value, op.value);
        EXPECT_EQ(value, refReader.readVarUInt());
        position += before - reader.bitsRemaining();
        break;
      }
    }
    // Spot-check the out-of-range contract from a mid-stream position.
    if (rng.nextBelow(8) == 0) expectEveryReadPastEndThrows(writer, position);
  }
  EXPECT_EQ(reader.bitsRemaining(), 0u);
  expectEveryReadPastEndThrows(writer, writer.bitCount());
}

TEST(BitIoDiff, WritesAndReadsMatchBitAtATimeCodec) {
  constexpr std::uint64_t kSeed = 0xB17D;
  std::uint64_t trial = 0;
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (bool useArena : {false, true}) {
      for (int repeat = 0; repeat < 12; ++repeat) {
        checkSequence(kSeed, trial++, offset, useArena);
      }
    }
  }
}

TEST(BitIoDiff, BigFieldsAcrossLimbBoundaries) {
  // Widths straddling the 32- and 64-bit limb edges, at every start offset.
  const std::size_t widths[] = {1,  31, 32, 33,  63,  64,  65,  95, 96,
                                97, 127, 128, 129, 191, 192, 193, 255, 256, 257, 300};
  Rng rng = fuzzStream(0xB17E, 0);
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (std::size_t width : widths) {
      for (const BigUInt& value : {BigUInt{}, (BigUInt{1} << width) - BigUInt{1},
                                   rng.nextBigBits(width), BigUInt{1} << (width - 1)}) {
        SCOPED_TRACE(testing::Message() << "offset " << offset << " width " << width);
        BitWriter writer;
        RefWriter ref;
        for (unsigned i = 0; i < offset; ++i) {
          writer.writeBit(true);
          ref.writeBit(true);
        }
        writer.writeBig(value, width);
        ref.writeBig(value, width);
        writer.writeUInt(5, 3);
        ref.writeUInt(5, 3);
        expectSameBytes(writer, ref);
        BitReader reader(writer);
        reader.readUInt(offset);
        EXPECT_EQ(reader.readBig(width), value);
        EXPECT_EQ(reader.readUInt(3), 5u);
      }
    }
  }
}

TEST(BitIoDiff, InPlaceEditsMatchVectorBoolRebuild) {
  constexpr std::uint64_t kSeed = 0xB17F;
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    SCOPED_TRACE(seedLine(kSeed, trial));
    Rng rng = fuzzStream(kSeed, trial);
    const bool useArena = (trial & 1) != 0;
    Arena arena;
    BitWriter writer = useArena ? BitWriter(arena) : BitWriter();
    RefWriter ref;
    const std::size_t opCount = 1 + rng.nextBelow(12);
    for (std::size_t i = 0; i < opCount; ++i) {
      const Op op = randomOp(rng);
      apply(writer, op);
      apply(ref, op);
    }
    for (int edit = 0; edit < 6 && ref.bitCount() > 0; ++edit) {
      std::vector<bool> bits = unpack(ref.bytes(), ref.bitCount());
      if (rng.nextBool()) {
        const std::size_t position = rng.nextBelow(bits.size());
        bits[position] = !bits[position];
        writer.flipBit(position);
      } else {
        const std::size_t keep = rng.nextBelow(bits.size());
        bits.resize(keep);
        writer.truncate(keep);
      }
      ref = repack(bits);
      expectSameBytes(writer, ref);
      // Writes after an edit land on the zeroed tail, not on stale bits.
      const Op op = randomOp(rng);
      apply(writer, op);
      apply(ref, op);
      expectSameBytes(writer, ref);
    }
    EXPECT_THROW(writer.flipBit(writer.bitCount()), std::out_of_range);
    EXPECT_THROW(writer.truncate(writer.bitCount() + 1), std::out_of_range);
  }
}

TEST(BitIoDiff, CopyOfArenaWriterOwnsItsBytes) {
  Arena arena;
  BitWriter original(arena);
  original.writeUInt(0xDEADBEEFCAFEF00DULL, 64);
  original.writeUInt(0x5, 3);
  const std::vector<std::uint8_t> before(original.bytes().begin(), original.bytes().end());
  const std::size_t bitsBefore = original.bitCount();

  BitWriter copy = original;
  copy.flipBit(0);
  copy.flipBit(66);
  copy.truncate(13);
  copy.writeUInt(0x3FF, 10);

  BitWriter assigned(arena);
  assigned = original;
  assigned.truncate(1);
  assigned.flipBit(0);

  ASSERT_EQ(original.bitCount(), bitsBefore);
  EXPECT_TRUE(std::equal(before.begin(), before.end(), original.bytes().begin()));
  // And the copy still carries the original's bits where it was not edited.
  BitReader reader(copy);
  EXPECT_EQ(reader.readUInt(1), 0u);  // The top bit of 0xD..., flipped.
  EXPECT_EQ(reader.readUInt(12), (0xDEADu >> 3) & 0xFFFu);
}

}  // namespace
}  // namespace dip::util
