#include "adv/adapters_wire.hpp"

#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/gni_wire.hpp"
#include "sim/trial.hpp"
#include "util/arena.hpp"
#include "util/bitio.hpp"

namespace dip::adv {
namespace {

// Runs a decode callback, converting codec rejections (malformed mutant)
// into MutantRejected. Anything else — in particular logic_error — is a
// bug in the engine or the codecs and propagates.
template <typename DecodeFn>
auto decodeOrReject(const char* label, DecodeFn&& decode) {
  try {
    return decode();
  } catch (const std::invalid_argument& e) {
    throw MutantRejected(std::string(label) + ": " + e.what());
  } catch (const std::out_of_range& e) {
    throw MutantRejected(std::string(label) + ": " + e.what());
  }
}

// The per-round mutation stream: a pure function of the adapter's seed, the
// round index and everything the prover has seen from the verifier so far
// (the challenge digest), so post-challenge mutations are adaptive.
util::Rng roundStream(const util::Rng& base, const MutationContext& ctx) {
  return base.child(sim::digestCombine(ctx.challengeDigest, ctx.roundIndex));
}

graph::Vertex randomId(util::Rng& rng, unsigned idBits) {
  return static_cast<graph::Vertex>(rng.nextBits(idBits));
}

std::uint32_t skewedDistance(std::uint32_t dist, unsigned idBits, util::Rng& rng) {
  const std::uint64_t mask = (idBits >= 64) ? ~0ull : ((1ull << idBits) - 1);
  const std::uint64_t delta = rng.nextBool() ? 1 : mask;  // mask == -1 mod 2^idBits.
  return static_cast<std::uint32_t>((dist + delta) & mask);
}

// ---- Typed surfaces (one per round shape) ----

// A Sym message carrying spanning-tree advice.
template <typename Message>
concept SymTreeAdvice = requires(Message& message) {
  message.parent;
  message.dist;
};

// Does a field of Message have this carrier type?
template <typename Message, typename Carrier>
constexpr bool hasCarrier() {
  bool found = false;
  core::forEachField<Message>([&](const auto& field) {
    found = found || std::is_same_v<typename std::decay_t<decltype(field)>::Carrier, Carrier>;
  });
  return found;
}

// The typed surface of a Sym message, read off its field table: the tree
// advice (parent, dist), the broadcast root or witness (its broadcast
// vertex field) and the hash-domain values, the index echo (its broadcast
// seed) and the chains (its value fields). A round without a field answers
// false, and the mutator falls back to a raw flip.
template <typename Message>
class SymSurface final : public FieldSurface {
 public:
  SymSurface(Message message, const core::SymShape& shape)
      : message_(std::move(message)), shape_(shape) {}
  const Message& message() const { return message_; }

  bool rewriteParent(util::Rng& rng) override {
    if constexpr (SymTreeAdvice<Message>) {
      message_.parent[rng.nextBelow(shape_.n)] = randomId(rng, shape_.widths.idBits);
      markDirty();
      return true;
    } else {
      return false;
    }
  }
  bool skewDistance(util::Rng& rng) override {
    if constexpr (SymTreeAdvice<Message>) {
      graph::Vertex v = static_cast<graph::Vertex>(rng.nextBelow(shape_.n));
      message_.dist[v] = skewedDistance(message_.dist[v], shape_.widths.idBits, rng);
      markDirty();
      return true;
    } else {
      return false;
    }
  }
  // Draws nextBelow(1 + chains): 0 replaces the index echo at every node,
  // c the c-th chain's value at a random node.
  bool perturbHashValue(util::Rng& rng) override {
    if constexpr (hasCarrier<Message, core::Broadcast<util::BigUInt>>()) {
      const std::size_t pick = rng.nextBelow(1 + core::chainCount<Message>());
      std::size_t chain = 0;
      core::forEachField<Message>([&](const auto& field) {
        using Carrier = typename std::decay_t<decltype(field)>::Carrier;
        auto& value = message_.*field.member;
        if constexpr (std::is_same_v<Carrier, core::Broadcast<util::BigUInt>>) {
          if (pick == 0) value.assign(shape_.n, rng.nextBigBits(bits(field)));
        } else if constexpr (std::is_same_v<Carrier, std::vector<util::BigUInt>>) {
          if (++chain == pick) value[rng.nextBelow(shape_.n)] = rng.nextBigBits(bits(field));
        }
      });
      markDirty();
      return true;
    } else {
      return false;
    }
  }
  // The broadcast root (the witness w with rho(w) != w in the input-graph
  // extension).
  bool swapRoot(util::Rng& rng) override {
    if constexpr (hasCarrier<Message, core::Broadcast<graph::Vertex>>()) {
      core::forEachField<Message>([&](const auto& field) {
        using Carrier = typename std::decay_t<decltype(field)>::Carrier;
        if constexpr (std::is_same_v<Carrier, core::Broadcast<graph::Vertex>>) {
          (message_.*field.member)
              .assign(shape_.n, randomId(rng, static_cast<unsigned>(bits(field))));
        }
      });
      markDirty();
      return true;
    } else {
      return false;
    }
  }

 private:
  template <typename Field>
  std::size_t bits(const Field& field) const {
    return core::bitsOf(field.width, shape_.widths);
  }

  Message message_;
  core::SymShape shape_;
};

template <typename Shape>
class GsFirstSurface final : public FieldSurface {
 public:
  GsFirstSurface(typename Shape::First message, std::size_t n, std::size_t ell)
      : message_(std::move(message)), n_(n), idBits_(util::bitsFor(n)), ell_(ell) {}
  const typename Shape::First& message() const { return message_; }

  bool rewriteParent(util::Rng& rng) override {
    message_.perNode[rng.nextBelow(n_)].parent = randomId(rng, idBits_);
    markDirty();
    return true;
  }
  bool skewDistance(util::Rng& rng) override {
    typename Shape::M1& m1 = message_.perNode[rng.nextBelow(n_)];
    m1.dist = skewedDistance(m1.dist, idBits_, rng);
    markDirty();
    return true;
  }
  // The hash-domain value of this round is the challenge echo: replace one
  // repetition's target y consistently at every node (the broadcast stream
  // carries it once), probing the root's echo-equality check.
  bool perturbHashValue(util::Rng& rng) override {
    const std::size_t k = message_.perNode[0].echo.size();
    if (k == 0) return false;
    const std::size_t j = rng.nextBelow(k);
    util::BigUInt y = rng.nextBigBits(ell_);
    for (typename Shape::M1& m1 : message_.perNode) m1.echo[j].y = y;
    markDirty();
    return true;
  }
  bool swapRoot(util::Rng& rng) override {
    graph::Vertex root = randomId(rng, idBits_);
    for (typename Shape::M1& m1 : message_.perNode) m1.root = root;
    markDirty();
    return true;
  }

 private:
  typename Shape::First message_;
  std::size_t n_;
  unsigned idBits_;
  std::size_t ell_;
};

template <typename Shape>
class GsSecondSurface final : public FieldSurface {
 public:
  GsSecondSurface(typename Shape::Second message, const core::GsParams<Shape>& params,
                  const std::vector<std::uint8_t>& claimedFlags)
      : message_(std::move(message)), params_(params), claimedFlags_(claimedFlags) {}
  const typename Shape::Second& message() const { return message_; }

  bool perturbHashValue(util::Rng& rng) override {
    // Prefer a claimed repetition's chain value (unclaimed entries never hit
    // the wire); fall back to the broadcast check seed when nothing is claimed.
    std::vector<std::size_t> claimed;
    for (std::size_t j = 0; j < claimedFlags_.size(); ++j) {
      if (claimedFlags_[j]) claimed.push_back(j);
    }
    const std::size_t n = message_.perNode.size();
    if (claimed.empty() || rng.nextBelow(4) == 0) {
      util::BigUInt seed = rng.nextBigBits(params_.checkFamily.seedBits());
      for (typename Shape::M2& m2 : message_.perNode) m2.checkSeed = seed;
      markDirty();
      return true;
    }
    const std::size_t j = claimed[rng.nextBelow(claimed.size())];
    typename Shape::M2& m2 = message_.perNode[rng.nextBelow(n)];
    // The perturbed chain: h or the sigma-side permutation chain, and in the
    // general shape also the automorphism check's alpha side. Two targets
    // take one coin (the top bit), three a uniform draw.
    const std::size_t pick = Shape::kCompensated ? rng.nextBelow(3) : (rng.nextBool() ? 0 : 1);
    if (pick == 0) {
      m2.h[j] = rng.nextBigBits(params_.gsHash.innerValueBits());
    } else if (pick == 1) {
      m2.permS[j] = rng.nextBigBits(params_.checkFamily.seedBits());
    } else if constexpr (Shape::kCompensated) {
      m2.autR[j] = rng.nextBigBits(params_.checkFamily.seedBits());
    }
    markDirty();
    return true;
  }

 private:
  typename Shape::Second message_;
  const core::GsParams<Shape>& params_;
  const std::vector<std::uint8_t>& claimedFlags_;
};

// Per-thread scratch for the challenge encodings below: each encoding is
// folded and dropped at once, so a digest rewinds the arena and reuses its
// storage instead of allocating one heap buffer per challenge.
util::Arena& digestArena() {
  thread_local util::Arena arena;
  arena.reset();
  return arena;
}

std::uint64_t digestLinearChallenges(const std::vector<util::BigUInt>& challenges,
                                     const hash::LinearHashFamily& family) {
  util::Arena& arena = digestArena();
  std::uint64_t digest = 0x1ce5'0000'0000'0001ULL;
  for (const util::BigUInt& challenge : challenges) {
    digest = foldPayload(digest, core::wire::encodeChallenge(challenge, family, &arena));
  }
  return digest;
}

std::uint64_t digestGniChallenges(
    const std::vector<std::vector<core::GniChallenge>>& challenges,
    const hash::EpsApiHash& gsHash, std::size_t ell) {
  util::Arena& arena = digestArena();
  std::uint64_t digest = 0x1ce5'0000'0000'0002ULL;
  for (const std::vector<core::GniChallenge>& perNode : challenges) {
    digest = foldPayload(digest,
                         core::wire::encodeGniChallenges(perNode, gsHash, ell, &arena));
  }
  return digest;
}

}  // namespace

std::uint64_t foldPayload(std::uint64_t acc, const util::BitWriter& payload) {
  acc = sim::digestCombine(acc, payload.bitCount());
  for (std::uint8_t byte : payload.bytes()) acc = sim::digestCombine(acc, byte);
  return acc;
}

// ---- The Sym protocols ----

namespace {

// One Sym round through the wire: the honest message is encoded, mutated
// (raw, or through its typed surface and re-encoded when that was used) and
// decoded back. `round` ends holding the mutated wire form.
template <typename Message>
Message mutateSymRound(Message honest, const core::SymShape& shape,
                       const MessageMutator& mutator, const MutationContext& ctx,
                       const util::Rng& base, core::wire::EncodedRound& round) {
  round = core::wire::encodeSym(honest, shape);
  util::Rng stream = roundStream(base, ctx);
  SymSurface<Message> surface(std::move(honest), shape);
  mutator.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) round = core::wire::encodeSym(surface.message(), shape);
  return decodeOrReject(Message::kLabel,
                        [&] { return core::wire::decodeSym<Message>(round, shape); });
}

}  // namespace

template <typename Prover>
MutantAmProver<Prover>::MutantAmProver(std::unique_ptr<Prover> base,
                                       const MessageMutator& mutator,
                                       const hash::LinearHashFamily& family, util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), family_(family), rng_(rng) {}

template <typename Prover>
auto MutantAmProver<Prover>::respond(const graph::Graph& g,
                                     const std::vector<util::BigUInt>& challenges) -> Message {
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = true;
  ctx.numNodes = g.numVertices();
  ctx.challengeDigest = digestLinearChallenges(challenges, family_);
  core::wire::EncodedRound round;
  return mutateSymRound(base_->respond(g, challenges), core::symShape(g, family_), mutator_,
                        ctx, rng_, round);
}

template <typename Prover>
MutantMamProver<Prover>::MutantMamProver(std::unique_ptr<Prover> base,
                                         const MessageMutator& mutator,
                                         const hash::LinearHashFamily& family, util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), family_(family), rng_(rng) {}

template <typename Prover>
auto MutantMamProver<Prover>::firstMessage(const Instance& instance) -> First {
  const core::SymShape shape = core::symShape(instance, family_);
  honestFirst_ = base_->firstMessage(instance);
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = false;
  ctx.numNodes = shape.n;
  return mutateSymRound(honestFirst_, shape, mutator_, ctx, rng_, firstRound_);
}

template <typename Prover>
auto MutantMamProver<Prover>::secondMessage(const Instance& instance, const First& /*first*/,
                                            const std::vector<util::BigUInt>& challenges)
    -> Second {
  const core::SymShape shape = core::symShape(instance, family_);
  MutationContext ctx;
  ctx.roundIndex = 1;
  ctx.finalRound = true;
  ctx.numNodes = shape.n;
  ctx.challengeDigest = digestLinearChallenges(challenges, family_);
  ctx.previousRound = &firstRound_;
  core::wire::EncodedRound round;
  return mutateSymRound(base_->secondMessage(instance, honestFirst_, challenges), shape,
                        mutator_, ctx, rng_, round);
}

template class MutantAmProver<core::SymDamProver>;
template class MutantAmProver<core::DSymProver>;
template class MutantMamProver<core::SymDmamProver>;
template class MutantMamProver<core::SymInputProver>;

// ---- GNI, both shapes (dAMAM: A1, M1, A2, M2) ----

template <typename Shape>
MutantGsProver<Shape>::MutantGsProver(std::unique_ptr<core::GsProver<Shape>> base,
                                      const MessageMutator& mutator,
                                      const core::GsParams<Shape>& params, util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), params_(params), rng_(rng) {}

template <typename Shape>
auto MutantGsProver<Shape>::firstMessage(
    const core::GniInstance& instance,
    const std::vector<std::vector<core::GniChallenge>>& challenges) -> First {
  const std::size_t n = instance.g0.numVertices();
  honestFirst_ = base_->firstMessage(instance, challenges);
  core::wire::EncodedRound round = core::wire::encodeGniFirst(honestFirst_, instance, params_);
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = false;
  ctx.numNodes = n;
  ctx.challengeDigest = digestGniChallenges(challenges, params_.gsHash, params_.ell);
  util::Rng stream = roundStream(rng_, ctx);
  GsFirstSurface<Shape> surface(honestFirst_, n, params_.ell);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeGniFirst(surface.message(), instance, params_);
  }
  firstRound_ = round;
  mutantFirst_ = decodeOrReject((std::string(Shape::kName) + "/M1").c_str(), [&] {
    return core::wire::decodeGniFirst(round, instance, params_);
  });
  return mutantFirst_;
}

template <typename Shape>
auto MutantGsProver<Shape>::secondMessage(
    const core::GniInstance& instance,
    const std::vector<std::vector<core::GniChallenge>>& challenges, const First& /*first*/,
    const std::vector<util::BigUInt>& checkChallenges) -> Second {
  // M2's wire layout is keyed on the claimed/b flags the VERIFIERS hold —
  // the decoded mutant M1 — while the base prover answers for what it
  // actually committed to (its honest first message).
  Second honest = base_->secondMessage(instance, challenges, honestFirst_, checkChallenges);
  core::wire::EncodedRound round =
      core::wire::encodeGniSecond(honest, mutantFirst_, instance, params_);
  MutationContext ctx;
  ctx.roundIndex = 1;
  ctx.finalRound = true;
  ctx.numNodes = instance.g0.numVertices();
  std::uint64_t digest = digestGniChallenges(challenges, params_.gsHash, params_.ell);
  digest = sim::digestCombine(digest,
                              digestLinearChallenges(checkChallenges, params_.checkFamily));
  ctx.challengeDigest = digest;
  ctx.previousRound = &firstRound_;
  util::Rng stream = roundStream(rng_, ctx);
  GsSecondSurface<Shape> surface(std::move(honest), params_, mutantFirst_.perNode[0].claimed);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeGniSecond(surface.message(), mutantFirst_, instance, params_);
  }
  return decodeOrReject((std::string(Shape::kName) + "/M2").c_str(), [&] {
    return core::wire::decodeGniSecond(round, mutantFirst_, instance, params_);
  });
}

template class MutantGsProver<core::RigidGsShape>;
template class MutantGsProver<core::GeneralGsShape>;

}  // namespace dip::adv
