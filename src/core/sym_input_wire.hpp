// Wire formats for the input-graph symmetry protocol: core/wire.hpp's
// encodeSym/decodeSym under their protocol's names (defined in wire.cpp).
// Claim counts are determined by the instance's input graph (claims[v]
// covers v's sorted closed H-neighborhood), so both directions of M1 need
// the instance.
#pragma once

#include "core/sym_input.hpp"
#include "core/wire.hpp"

namespace dip::core::wire {

// M1: broadcast = witness id; unicast = rho, tree advice, claimed images.
EncodedRound encodeSymInputFirst(const SymInputFirstMessage& message,
                                 const SymInputInstance& instance,
                                 util::Arena* arena = nullptr);
SymInputFirstMessage decodeSymInputFirst(const EncodedRound& round,
                                         const SymInputInstance& instance);

// M2: broadcast = index echo; unicast = the four chain values per node.
EncodedRound encodeSymInputSecond(const SymInputSecondMessage& message, std::size_t n,
                                  const hash::LinearHashFamily& family,
                                  util::Arena* arena = nullptr);
SymInputSecondMessage decodeSymInputSecond(const EncodedRound& round, std::size_t n,
                                           const hash::LinearHashFamily& family);

}  // namespace dip::core::wire
