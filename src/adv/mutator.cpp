#include "adv/mutator.hpp"

#include <utility>

#include "util/bitio.hpp"

namespace dip::adv {
namespace {

void flipRandomBit(core::wire::EncodedRound& round, util::Rng& rng) {
  const std::size_t total = totalRoundBits(round);
  if (total == 0) return;
  flipRoundBit(round, rng.nextBelow(total));
}

}  // namespace

std::size_t totalRoundBits(const core::wire::EncodedRound& round) {
  std::size_t total = round.broadcast.bitCount();
  for (const util::BitWriter& payload : round.unicast) total += payload.bitCount();
  return total;
}

void flipRoundBit(core::wire::EncodedRound& round, std::size_t position) {
  if (position < round.broadcast.bitCount()) {
    round.broadcast.flipBit(position);
    return;
  }
  position -= round.broadcast.bitCount();
  for (util::BitWriter& payload : round.unicast) {
    if (position < payload.bitCount()) {
      payload.flipBit(position);
      return;
    }
    position -= payload.bitCount();
  }
  throw std::out_of_range("flipRoundBit: position past end of round");
}

void SingleBitFlipMutator::mutate(core::wire::EncodedRound& round, FieldSurface*,
                                  const MutationContext&, util::Rng& rng) const {
  flipRandomBit(round, rng);
}

void BurstBitFlipMutator::mutate(core::wire::EncodedRound& round, FieldSurface*,
                                 const MutationContext&, util::Rng& rng) const {
  // Positions are drawn with replacement; a repeat cancels itself, which
  // just makes shorter bursts slightly more likely.
  const std::size_t burst = 2 + rng.nextBelow(7);
  for (std::size_t i = 0; i < burst; ++i) flipRandomBit(round, rng);
}

void BroadcastFlipMutator::mutate(core::wire::EncodedRound& round, FieldSurface*,
                                  const MutationContext&, util::Rng& rng) const {
  const std::size_t bits = round.broadcast.bitCount();
  if (bits == 0) {
    flipRandomBit(round, rng);
    return;
  }
  round.broadcast.flipBit(rng.nextBelow(bits));
}

void TransplantMutator::mutate(core::wire::EncodedRound& round, FieldSurface*,
                               const MutationContext&, util::Rng& rng) const {
  const std::size_t n = round.unicast.size();
  if (n < 2) {
    flipRandomBit(round, rng);
    return;
  }
  const std::size_t u = rng.nextBelow(n);
  std::size_t v = rng.nextBelow(n - 1);
  if (v >= u) ++v;
  round.unicast[v] = round.unicast[u];
}

void ReplayMutator::mutate(core::wire::EncodedRound& round, FieldSurface*,
                           const MutationContext& ctx, util::Rng& rng) const {
  if (ctx.previousRound == nullptr) {
    flipRandomBit(round, rng);
    return;
  }
  round = *ctx.previousRound;
}

void TruncateMutator::mutate(core::wire::EncodedRound& round, FieldSurface*,
                             const MutationContext&, util::Rng& rng) const {
  // Pick among payloads that have at least one bit to drop.
  std::vector<util::BitWriter*> candidates;
  candidates.reserve(1 + round.unicast.size());
  if (round.broadcast.bitCount() > 0) candidates.push_back(&round.broadcast);
  for (util::BitWriter& payload : round.unicast) {
    if (payload.bitCount() > 0) candidates.push_back(&payload);
  }
  if (candidates.empty()) return;
  util::BitWriter* target = candidates[rng.nextBelow(candidates.size())];
  target->truncate(rng.nextBelow(target->bitCount()));
}

void ParentRewriteMutator::mutate(core::wire::EncodedRound& round, FieldSurface* surface,
                                  const MutationContext&, util::Rng& rng) const {
  if (surface == nullptr || !surface->rewriteParent(rng)) flipRandomBit(round, rng);
}

void DistanceSkewMutator::mutate(core::wire::EncodedRound& round, FieldSurface* surface,
                                 const MutationContext&, util::Rng& rng) const {
  if (surface == nullptr || !surface->skewDistance(rng)) flipRandomBit(round, rng);
}

void HashPerturbMutator::mutate(core::wire::EncodedRound& round, FieldSurface* surface,
                                const MutationContext&, util::Rng& rng) const {
  if (surface == nullptr || !surface->perturbHashValue(rng)) flipRandomBit(round, rng);
}

void RootSwapMutator::mutate(core::wire::EncodedRound& round, FieldSurface* surface,
                             const MutationContext&, util::Rng& rng) const {
  if (surface == nullptr || !surface->swapRoot(rng)) flipRandomBit(round, rng);
}

void AdaptiveReMutator::mutate(core::wire::EncodedRound& round, FieldSurface*,
                               const MutationContext& ctx, util::Rng& rng) const {
  // Honest commitment: every round before the final response goes out
  // untouched. The response round is corrupted with randomness keyed on
  // the challenge digest, so the same committed prover answers differently
  // for different verifier coins.
  if (!ctx.finalRound) return;
  util::Rng adaptive = rng.child(ctx.challengeDigest ^ 0xada7'cafe'0000'0001ULL);
  const std::size_t burst = 1 + adaptive.nextBelow(4);
  for (std::size_t i = 0; i < burst; ++i) flipRandomBit(round, adaptive);
}

std::vector<std::unique_ptr<MessageMutator>> standardMutators() {
  std::vector<std::unique_ptr<MessageMutator>> mutators;
  mutators.push_back(std::make_unique<SingleBitFlipMutator>());
  mutators.push_back(std::make_unique<BurstBitFlipMutator>());
  mutators.push_back(std::make_unique<BroadcastFlipMutator>());
  mutators.push_back(std::make_unique<TransplantMutator>());
  mutators.push_back(std::make_unique<ReplayMutator>());
  mutators.push_back(std::make_unique<TruncateMutator>());
  mutators.push_back(std::make_unique<ParentRewriteMutator>());
  mutators.push_back(std::make_unique<DistanceSkewMutator>());
  mutators.push_back(std::make_unique<HashPerturbMutator>());
  mutators.push_back(std::make_unique<RootSwapMutator>());
  mutators.push_back(std::make_unique<AdaptiveReMutator>());
  return mutators;
}

std::unique_ptr<MessageMutator> makeMutator(const std::string& name) {
  for (std::unique_ptr<MessageMutator>& mutator : standardMutators()) {
    if (name == mutator->name()) return std::move(mutator);
  }
  return nullptr;
}

// dip-lint (mutator-selftest) checks each MessageMutator subclass appears in
// exactly this macro form; the adv_mutator tests replay every entry.
#define DIP_MUTATOR_SELF_TEST(ClassName, mutatorName, seed) \
  MutatorSelfTestEntry { #ClassName, mutatorName, seed }

const std::vector<MutatorSelfTestEntry>& mutatorSelfTests() {
  static const std::vector<MutatorSelfTestEntry> entries = {
      DIP_MUTATOR_SELF_TEST(SingleBitFlipMutator, "single-bit-flip", 0xE141),
      DIP_MUTATOR_SELF_TEST(BurstBitFlipMutator, "burst-bit-flip", 0xE142),
      DIP_MUTATOR_SELF_TEST(BroadcastFlipMutator, "broadcast-flip", 0xE143),
      DIP_MUTATOR_SELF_TEST(TransplantMutator, "advice-transplant", 0xE144),
      DIP_MUTATOR_SELF_TEST(ReplayMutator, "round-replay", 0xE145),
      DIP_MUTATOR_SELF_TEST(TruncateMutator, "payload-truncate", 0xE146),
      DIP_MUTATOR_SELF_TEST(ParentRewriteMutator, "parent-rewrite", 0xE147),
      DIP_MUTATOR_SELF_TEST(DistanceSkewMutator, "distance-skew", 0xE148),
      DIP_MUTATOR_SELF_TEST(HashPerturbMutator, "hash-perturb", 0xE149),
      DIP_MUTATOR_SELF_TEST(RootSwapMutator, "root-swap", 0xE14A),
      DIP_MUTATOR_SELF_TEST(AdaptiveReMutator, "adaptive-remutate", 0xE14B),
  };
  return entries;
}

#undef DIP_MUTATOR_SELF_TEST

}  // namespace dip::adv
