// BigUInt's limb storage: a little-endian array of 64-bit limbs with room for
// two limbs inside the object, so values up to 128 bits never touch the heap.
//
// data_ always points at the live limbs (the inline array or one heap block),
// so reads never branch on where the limbs are. Growth doubles the capacity;
// nothing ever shrinks it, so a copy-assigned or cleared buffer keeps its
// block and a warmed-up accumulator stays allocation-free. A move takes over
// a heap block (or copies the inline limbs); the moved-from buffer is empty.
// Equality compares the live limbs, never the storage.
//
// Internal to BigUInt; nothing outside util/ names it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace dip::util::detail {

class LimbBuffer {
 public:
  using Limb = std::uint64_t;
  static constexpr std::uint32_t kInlineLimbs = 2;

  LimbBuffer() noexcept : data_(inline_) {}
  LimbBuffer(const LimbBuffer& other) : LimbBuffer() { assign(other.data_, other.size_); }
  LimbBuffer(LimbBuffer&& other) noexcept : LimbBuffer() { takeFrom(other); }
  LimbBuffer& operator=(const LimbBuffer& other) {
    if (this != &other) assign(other.data_, other.size_);
    return *this;
  }
  LimbBuffer& operator=(LimbBuffer&& other) noexcept {
    if (this != &other) takeFrom(other);
    return *this;
  }
  ~LimbBuffer() { release(); }

  bool operator==(const LimbBuffer& other) const {
    return size_ == other.size_ && std::equal(data_, data_ + size_, other.data_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Limb* data() { return data_; }
  const Limb* data() const { return data_; }
  Limb* begin() { return data_; }
  Limb* end() { return data_ + size_; }
  const Limb* begin() const { return data_; }
  const Limb* end() const { return data_ + size_; }
  Limb& operator[](std::size_t i) { return data_[i]; }
  Limb operator[](std::size_t i) const { return data_[i]; }
  Limb back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }
  void popBack() { --size_; }
  void pushBack(Limb limb) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_++] = limb;
  }
  // Shrinks, or grows with zero limbs.
  void resize(std::size_t count) {
    if (count > capacity_) grow(count);
    if (count > size_) std::fill(data_ + size_, data_ + count, Limb{0});
    size_ = static_cast<std::uint32_t>(count);
  }
  // Replaces the contents, reusing the current block when it is big enough.
  void assign(const Limb* limbs, std::size_t count) {
    if (count > capacity_) {
      size_ = 0;  // Nothing to keep across the reallocation.
      grow(count);
    }
    if (count != 0) std::memmove(data_, limbs, count * sizeof(Limb));
    size_ = static_cast<std::uint32_t>(count);
  }

 private:
  // Raises the capacity to at least `count` (doubling), keeping the limbs.
  void grow(std::size_t count);
  bool onHeap() const { return data_ != inline_; }
  void release() {
    if (onHeap()) delete[] data_;
  }
  void takeFrom(LimbBuffer& other) noexcept {
    if (other.onHeap()) {
      release();
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = kInlineLimbs;
    } else if (other.size_ != 0) {
      // Every buffer holds at least kInlineLimbs, so this never reallocates.
      std::memcpy(data_, other.inline_, other.size_ * sizeof(Limb));
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  Limb* data_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineLimbs;
  Limb inline_[kInlineLimbs];
};

}  // namespace dip::util::detail
