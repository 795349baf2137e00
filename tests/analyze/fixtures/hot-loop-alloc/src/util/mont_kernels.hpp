// Fixture: a heap accumulator per limb row inside a flat-limb kernel -- the
// kernels work on caller-owned spans and stack arrays, never the heap.
#pragma once

#include <cstdint>
#include <memory>

template <std::size_t K>
inline void mulRows(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                    std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    std::unique_ptr<std::uint64_t[]> t(new std::uint64_t[k + 2]);  // hot-loop-alloc fires
    t[0] = a[i] * b[0];
    out[i] = t[0];
  }
}
