// Fixture: the payload mutators (src/adv/mutator.cpp) edit encoded rounds
// once per mutated trial, so they are on the transcript-encode path: growing
// an unreserved candidate list per payload reallocates mid-loop.
#include "core/wire.hpp"

void pickTargets(core::wire::EncodedRound& round, std::vector<util::BitWriter*>& out) {
  for (util::BitWriter& payload : round.unicast) {
    if (payload.bitCount() > 0) out.push_back(&payload);  // hot-loop-alloc fires
  }
}
