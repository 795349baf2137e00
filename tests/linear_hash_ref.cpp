#include "linear_hash_ref.hpp"

#include <stdexcept>

namespace dip::hash {

namespace {

__extension__ using U128 = unsigned __int128;

std::uint64_t mulModU64(std::uint64_t x, std::uint64_t y, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<U128>(x) * y % m);
}

std::uint64_t addModU64(std::uint64_t x, std::uint64_t y, std::uint64_t m) {
  U128 sum = static_cast<U128>(x) + y;
  if (sum >= m) sum -= m;
  return static_cast<std::uint64_t>(sum);
}

std::uint64_t powModU64(std::uint64_t base, std::uint64_t exponent, std::uint64_t m) {
  std::uint64_t result = 1 % m;
  std::uint64_t square = base % m;
  while (exponent != 0) {
    if (exponent & 1) result = mulModU64(result, square, m);
    exponent >>= 1;
    if (exponent != 0) square = mulModU64(square, square, m);
  }
  return result;
}

}  // namespace

LinearHashEvaluator::LinearHashEvaluator(const LinearHashFamily& family,
                                         const util::BigUInt& a) {
  rebind(family, a);
}

void LinearHashEvaluator::rebind(const LinearHashFamily& family, const util::BigUInt& a) {
  rebind(family.prime(), family.dimension(), a);
}

void LinearHashEvaluator::rebind(const util::BigUInt& p, std::uint64_t dimension,
                                 const util::BigUInt& a) {
  if (p < util::BigUInt{2}) throw std::invalid_argument("LinearHashEvaluator: p < 2");
  if (!p.fitsU64() && !p.isOdd()) {
    throw std::invalid_argument("LinearHashEvaluator: even p >= 2^64");
  }
  p_ = p;
  m_ = dimension;
  if (p_.fitsU64()) {
    backend_ = Backend::kU64;
    p64_ = p_.toU64();
    a64_ = a.modU64(p64_);
    ctx_.reset();
    return;
  }
  backend_ = Backend::kMontgomery;
  ctx_ = util::cachedMontgomeryContext(p_);
  ctx_->toValue(a, aV_, scratch_);
}

void LinearHashEvaluator::clearRow() {
  switch (backend_) {
    case Backend::kU64:
      row64_ = 0;
      break;
    case Backend::kMontgomery:
      rowRaw_.assign(ctx_->numLimbs(), 0);
      break;
    case Backend::kUnbound:
      throw std::logic_error("LinearHashEvaluator: used before rebind");
  }
}

util::BigUInt LinearHashEvaluator::rowValue() {
  return backend_ == Backend::kU64 ? util::BigUInt{row64_} : ctx_->rawToPlain(rowRaw_.data());
}

void LinearHashEvaluator::addPowerToRow() {
  const util::mont::Modulus mod = ctx_->kernelModulus();
  util::mont::dispatch(mod.k, [&](auto width) {
    util::mont::add<decltype(width)::value>(mod, rowRaw_.data(), powerV_.limbs().data(),
                                            rowRaw_.data());
  });
}

void LinearHashEvaluator::walkBits(std::uint64_t startExponent,
                                   const util::DynBitset& bits) {
  clearRow();
  std::size_t previous = 0;
  bool first = true;
  if (backend_ == Backend::kU64) {
    std::uint64_t power = powModU64(a64_, startExponent, p64_);
    bits.forEachSet([&](std::size_t w) {
      const std::size_t gap = first ? w : w - previous;
      for (std::size_t step = 0; step < gap; ++step) power = mulModU64(power, a64_, p64_);
      row64_ = addModU64(row64_, power, p64_);
      previous = w;
      first = false;
    });
    return;
  }
  ctx_->powValue(aV_, util::BigUInt{startExponent}, powerV_, scratch_);
  bits.forEachSet([&](std::size_t w) {
    const std::size_t gap = first ? w : w - previous;
    for (std::size_t step = 0; step < gap; ++step) {
      ctx_->mulValue(powerV_, aV_, powerV_, scratch_);
    }
    addPowerToRow();
    previous = w;
    first = false;
  });
}

void LinearHashEvaluator::addTerm(std::uint64_t position, std::uint64_t coefficient) {
  if (backend_ == Backend::kU64) {
    std::uint64_t term = powModU64(a64_, position + 1, p64_);
    term = mulModU64(term, coefficient % p64_, p64_);
    row64_ = addModU64(row64_, term, p64_);
    return;
  }
  ctx_->powValue(aV_, util::BigUInt{position + 1}, powerV_, scratch_);
  if (coefficient != 1) {
    ctx_->toValue(util::BigUInt{coefficient}, coeffV_, scratch_);
    ctx_->mulValue(powerV_, coeffV_, powerV_, scratch_);
  }
  addPowerToRow();
}

util::BigUInt LinearHashEvaluator::hashSparse(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> entries) {
  clearRow();
  for (const auto& [position, coefficient] : entries) {
    if (position >= m_) throw std::out_of_range("hashSparse: position out of range");
    addTerm(position, coefficient);
  }
  return rowValue();
}

util::BigUInt LinearHashEvaluator::hashMatrixRow(std::uint64_t rowIndex,
                                                 const util::DynBitset& columnBits,
                                                 std::uint64_t n) {
  if (n * n != m_) throw std::invalid_argument("hashMatrixRow: dimension mismatch");
  if (rowIndex >= n || columnBits.size() != n) {
    throw std::out_of_range("hashMatrixRow: bad row");
  }
  walkBits(rowIndex * n + 1, columnBits);
  return rowValue();
}

util::BigUInt LinearHashEvaluator::hashMatrixEntry(std::uint64_t rowIndex,
                                                   std::uint64_t colIndex,
                                                   std::uint64_t coefficient,
                                                   std::uint64_t n) {
  if (n * n != m_) throw std::invalid_argument("hashMatrixEntry: dimension mismatch");
  if (rowIndex >= n || colIndex >= n) throw std::out_of_range("hashMatrixEntry: bad entry");
  clearRow();
  addTerm(rowIndex * n + colIndex, coefficient);
  return rowValue();
}

util::BigUInt LinearHashEvaluator::hashBits(const util::DynBitset& bits) {
  if (bits.size() > m_) throw std::out_of_range("hashBits: bits exceed dimension");
  walkBits(1, bits);
  return rowValue();
}

void LinearHashEvaluator::powerTable(std::size_t count, std::vector<util::BigUInt>& out) {
  out.clear();
  out.reserve(count);
  if (backend_ == Backend::kU64) {
    std::uint64_t power = a64_;
    for (std::size_t j = 0; j < count; ++j) {
      out.push_back(util::BigUInt{power});
      power = mulModU64(power, a64_, p64_);
    }
    return;
  }
  if (backend_ == Backend::kUnbound) {
    throw std::logic_error("LinearHashEvaluator: used before rebind");
  }
  powerV_ = aV_;
  for (std::size_t j = 0; j < count; ++j) {
    out.push_back(ctx_->fromValue(powerV_));
    ctx_->mulValue(powerV_, aV_, powerV_, scratch_);
  }
}

}  // namespace dip::hash
