// Reference evaluator for the Theorem 3.2 linear hash family: one modular
// multiply per column position, walked bit by bit. It shares no table with
// the batch engine (hash/batch_eval.hpp), which is the only hash evaluator
// of the library; this is the differential oracle that engine must agree
// with (batch_eval_test, hash_test, node_rebind_test), in the same way
// tests/biguint_ref is the oracle for util/biguint.
//
// Backends: p < 2^64 runs in native 64-bit words; a wider (odd) p runs on
// the process-wide Montgomery context with one REDC per multiply. Values are
// canonical residues < p, identical to the batch engine's.
//
// It lives in tests/ and links only into the test binaries.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "hash/linear_hash.hpp"
#include "util/biguint.hpp"
#include "util/bitset.hpp"
#include "util/montgomery.hpp"

namespace dip::hash {

class LinearHashEvaluator {
 public:
  LinearHashEvaluator() = default;  // Unbound; rebind() before use.
  LinearHashEvaluator(const LinearHashFamily& family, const util::BigUInt& a);

  // Pins (p, dimension, a). Throws std::invalid_argument for p < 2 and for
  // an even p >= 2^64, like the batch engine.
  void rebind(const util::BigUInt& p, std::uint64_t dimension, const util::BigUInt& a);
  void rebind(const LinearHashFamily& family, const util::BigUInt& a);

  // h_a of a sparse vector given as (position, coefficient) entries.
  util::BigUInt hashSparse(
      std::span<const std::pair<std::uint64_t, std::uint64_t>> entries);
  // h_a of the n x n matrix whose rowIndex-th row is columnBits.
  util::BigUInt hashMatrixRow(std::uint64_t rowIndex, const util::DynBitset& columnBits,
                              std::uint64_t n);
  // h_a of coefficient * e_(rowIndex*n + colIndex).
  util::BigUInt hashMatrixEntry(std::uint64_t rowIndex, std::uint64_t colIndex,
                                std::uint64_t coefficient, std::uint64_t n);
  // Sum over set bits w of a^(w+1); requires bits.size() <= dimension.
  util::BigUInt hashBits(const util::DynBitset& bits);
  // out[j] = a^(j+1) mod p for j in [0, count).
  void powerTable(std::size_t count, std::vector<util::BigUInt>& out);

 private:
  enum class Backend { kUnbound, kU64, kMontgomery };

  // Sums the running power over set bits into the row accumulator, the
  // power starting at a^startExponent and advancing one multiply per
  // position.
  void walkBits(std::uint64_t startExponent, const util::DynBitset& bits);
  // a^(position+1) * (coefficient mod p), added into the row accumulator.
  void addTerm(std::uint64_t position, std::uint64_t coefficient);
  void clearRow();
  util::BigUInt rowValue();

  Backend backend_ = Backend::kUnbound;
  util::BigUInt p_;
  std::uint64_t m_ = 0;
  // kU64 backend.
  std::uint64_t p64_ = 0;
  std::uint64_t a64_ = 0;
  std::uint64_t row64_ = 0;
  // kMontgomery backend.
  std::shared_ptr<const util::MontgomeryContext> ctx_;
  util::MontgomeryContext::Scratch scratch_;
  util::MontgomeryValue aV_;
  util::MontgomeryValue powerV_;
  util::MontgomeryValue coeffV_;
  util::MontgomeryValue rowV_;
};

}  // namespace dip::hash
