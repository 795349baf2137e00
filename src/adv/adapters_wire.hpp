// Per-protocol wire-mutation adapters.
//
// Each Mutant*Prover wraps a base prover (honest or classically cheating)
// and pushes every round it produces through the real wire codec:
//
//     typed message -> encode -> MUTATE (raw bits and/or typed surface)
//                   -> decode -> hand the decoded mutant to run()
//
// so the protocol's verifiers — and its DIP_AUDIT charge cross-checks —
// see exactly what a tampering prover could put on the wire, nothing more
// (mutations that no longer decode throw MutantRejected: caught at the
// serialization boundary, counted as rejections by the stress driver).
//
// Two invariants the adapters maintain:
//   * The base prover always sees its OWN honest earlier rounds, never the
//     mutated ones (a cheater knows what it actually sent; base provers are
//     not hardened against out-of-range fields the way verifiers are).
//   * Post-challenge rounds draw their mutation randomness from a stream
//     keyed on a digest of the verifier's challenge payloads, so mutation
//     decisions may depend on the verifier's coins (the adaptive surface;
//     AdaptiveReMutator is built around this).
//
// "wire" in this file's name is load-bearing: dip-lint's uncharged-wire
// rule allows wire::encode* calls only in wire modules (and DIP_AUDIT
// blocks) — these adapters ARE the wire layer of the adversary engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adv/mutator.hpp"
#include "core/dsym_dam.hpp"
#include "core/gni_amam.hpp"
#include "core/gni_general.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_input.hpp"
#include "core/wire.hpp"
#include "hash/linear_hash.hpp"
#include "util/rng.hpp"

namespace dip::adv {

// 64-bit digest of an encoded payload (length + bytes, order-dependent).
// Used by the adapters to key adaptive mutation streams on challenges.
std::uint64_t foldPayload(std::uint64_t acc, const util::BitWriter& payload);

class MutantSymDmamProver final : public core::SymDmamProver {
 public:
  MutantSymDmamProver(std::unique_ptr<core::SymDmamProver> base,
                      const MessageMutator& mutator,
                      const hash::LinearHashFamily& family, util::Rng rng);
  core::SymDmamFirstMessage firstMessage(const graph::Graph& g) override;
  core::SymDmamSecondMessage secondMessage(
      const graph::Graph& g, const core::SymDmamFirstMessage& first,
      const std::vector<util::BigUInt>& challenges) override;

 private:
  std::unique_ptr<core::SymDmamProver> base_;
  const MessageMutator& mutator_;
  const hash::LinearHashFamily& family_;
  util::Rng rng_;
  core::SymDmamFirstMessage honestFirst_;
  core::wire::EncodedRound firstRound_;  // Mutated M1 as sent (replay source).
};

class MutantSymDamProver final : public core::SymDamProver {
 public:
  MutantSymDamProver(std::unique_ptr<core::SymDamProver> base,
                     const MessageMutator& mutator,
                     const hash::LinearHashFamily& family, util::Rng rng);
  core::SymDamMessage respond(const graph::Graph& g,
                              const std::vector<util::BigUInt>& challenges) override;

 private:
  std::unique_ptr<core::SymDamProver> base_;
  const MessageMutator& mutator_;
  const hash::LinearHashFamily& family_;
  util::Rng rng_;
};

class MutantDSymProver final : public core::DSymProver {
 public:
  MutantDSymProver(std::unique_ptr<core::DSymProver> base,
                   const MessageMutator& mutator,
                   const hash::LinearHashFamily& family, util::Rng rng);
  core::DSymMessage respond(const graph::Graph& g,
                            const std::vector<util::BigUInt>& challenges) override;

 private:
  std::unique_ptr<core::DSymProver> base_;
  const MessageMutator& mutator_;
  const hash::LinearHashFamily& family_;
  util::Rng rng_;
};

class MutantSymInputProver final : public core::SymInputProver {
 public:
  MutantSymInputProver(std::unique_ptr<core::SymInputProver> base,
                       const MessageMutator& mutator,
                       const hash::LinearHashFamily& family, util::Rng rng);
  core::SymInputFirstMessage firstMessage(const core::SymInputInstance& instance) override;
  core::SymInputSecondMessage secondMessage(
      const core::SymInputInstance& instance, const core::SymInputFirstMessage& first,
      const std::vector<util::BigUInt>& challenges) override;

 private:
  std::unique_ptr<core::SymInputProver> base_;
  const MessageMutator& mutator_;
  const hash::LinearHashFamily& family_;
  util::Rng rng_;
  core::SymInputFirstMessage honestFirst_;
  core::wire::EncodedRound firstRound_;
};

// Both GNI protocols share one adapter over the Goldwasser-Sipser frame's
// rounds (core/gni_frame.hpp).
template <typename Shape>
class MutantGsProver final : public core::GsProver<Shape> {
 public:
  using First = typename Shape::First;
  using Second = typename Shape::Second;

  MutantGsProver(std::unique_ptr<core::GsProver<Shape>> base, const MessageMutator& mutator,
                 const core::GsParams<Shape>& params, util::Rng rng);
  First firstMessage(const core::GniInstance& instance,
                     const std::vector<std::vector<core::GniChallenge>>& challenges) override;
  Second secondMessage(const core::GniInstance& instance,
                       const std::vector<std::vector<core::GniChallenge>>& challenges,
                       const First& first,
                       const std::vector<util::BigUInt>& checkChallenges) override;

 private:
  std::unique_ptr<core::GsProver<Shape>> base_;
  const MessageMutator& mutator_;
  const core::GsParams<Shape>& params_;
  util::Rng rng_;
  First honestFirst_;
  // M2's wire format is keyed on M1's claimed/b flags AS THE VERIFIERS SAW
  // THEM, i.e. the decoded mutant — kept here for the M2 encode/decode.
  First mutantFirst_;
  core::wire::EncodedRound firstRound_;
};

using MutantGniProver = MutantGsProver<core::RigidGsShape>;
using MutantGniGeneralProver = MutantGsProver<core::GeneralGsShape>;

}  // namespace dip::adv
