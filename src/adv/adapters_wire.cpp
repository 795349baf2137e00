#include "adv/adapters_wire.hpp"

#include <stdexcept>
#include <utility>

#include "core/gni_general_wire.hpp"
#include "core/gni_wire.hpp"
#include "core/sym_input_wire.hpp"
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

class SymDmamFirstSurface final : public FieldSurface {
 public:
  SymDmamFirstSurface(core::SymDmamFirstMessage message, std::size_t n)
      : message_(std::move(message)), n_(n), idBits_(util::bitsFor(n)) {}
  const core::SymDmamFirstMessage& message() const { return message_; }

  bool rewriteParent(util::Rng& rng) override {
    message_.parent[rng.nextBelow(n_)] = randomId(rng, idBits_);
    markDirty();
    return true;
  }
  bool skewDistance(util::Rng& rng) override {
    graph::Vertex v = static_cast<graph::Vertex>(rng.nextBelow(n_));
    message_.dist[v] = skewedDistance(message_.dist[v], idBits_, rng);
    markDirty();
    return true;
  }
  bool swapRoot(util::Rng& rng) override {
    message_.rootPerNode.assign(n_, randomId(rng, idBits_));
    markDirty();
    return true;
  }

 private:
  core::SymDmamFirstMessage message_;
  std::size_t n_;
  unsigned idBits_;
};

class SymDmamSecondSurface final : public FieldSurface {
 public:
  SymDmamSecondSurface(core::SymDmamSecondMessage message,
                       const hash::LinearHashFamily& family)
      : message_(std::move(message)), family_(family) {}
  const core::SymDmamSecondMessage& message() const { return message_; }

  bool perturbHashValue(util::Rng& rng) override {
    const std::size_t n = message_.a.size();
    switch (rng.nextBelow(3)) {
      case 0:
        message_.indexPerNode.assign(n, rng.nextBigBits(family_.seedBits()));
        break;
      case 1:
        message_.a[rng.nextBelow(n)] = rng.nextBigBits(family_.valueBits());
        break;
      default:
        message_.b[rng.nextBelow(n)] = rng.nextBigBits(family_.valueBits());
        break;
    }
    markDirty();
    return true;
  }

 private:
  core::SymDmamSecondMessage message_;
  const hash::LinearHashFamily& family_;
};

class SymDamSurface final : public FieldSurface {
 public:
  SymDamSurface(core::SymDamMessage message, std::size_t n,
                const hash::LinearHashFamily& family)
      : message_(std::move(message)), n_(n), idBits_(util::bitsFor(n)),
        family_(family) {}
  const core::SymDamMessage& message() const { return message_; }

  bool rewriteParent(util::Rng& rng) override {
    message_.parent[rng.nextBelow(n_)] = randomId(rng, idBits_);
    markDirty();
    return true;
  }
  bool skewDistance(util::Rng& rng) override {
    graph::Vertex v = static_cast<graph::Vertex>(rng.nextBelow(n_));
    message_.dist[v] = skewedDistance(message_.dist[v], idBits_, rng);
    markDirty();
    return true;
  }
  bool perturbHashValue(util::Rng& rng) override {
    switch (rng.nextBelow(3)) {
      case 0:
        message_.indexPerNode.assign(n_, rng.nextBigBits(family_.seedBits()));
        break;
      case 1:
        message_.a[rng.nextBelow(n_)] = rng.nextBigBits(family_.valueBits());
        break;
      default:
        message_.b[rng.nextBelow(n_)] = rng.nextBigBits(family_.valueBits());
        break;
    }
    markDirty();
    return true;
  }
  bool swapRoot(util::Rng& rng) override {
    message_.rootPerNode.assign(n_, randomId(rng, idBits_));
    markDirty();
    return true;
  }

 private:
  core::SymDamMessage message_;
  std::size_t n_;
  unsigned idBits_;
  const hash::LinearHashFamily& family_;
};

class DSymSurface final : public FieldSurface {
 public:
  DSymSurface(core::DSymMessage message, std::size_t n,
              const hash::LinearHashFamily& family)
      : message_(std::move(message)), n_(n), idBits_(util::bitsFor(n)),
        family_(family) {}
  const core::DSymMessage& message() const { return message_; }

  bool rewriteParent(util::Rng& rng) override {
    message_.parent[rng.nextBelow(n_)] = randomId(rng, idBits_);
    markDirty();
    return true;
  }
  bool skewDistance(util::Rng& rng) override {
    graph::Vertex v = static_cast<graph::Vertex>(rng.nextBelow(n_));
    message_.dist[v] = skewedDistance(message_.dist[v], idBits_, rng);
    markDirty();
    return true;
  }
  bool perturbHashValue(util::Rng& rng) override {
    switch (rng.nextBelow(3)) {
      case 0:
        message_.indexPerNode.assign(n_, rng.nextBigBits(family_.seedBits()));
        break;
      case 1:
        message_.a[rng.nextBelow(n_)] = rng.nextBigBits(family_.valueBits());
        break;
      default:
        message_.b[rng.nextBelow(n_)] = rng.nextBigBits(family_.valueBits());
        break;
    }
    markDirty();
    return true;
  }
  bool swapRoot(util::Rng& rng) override {
    message_.rootPerNode.assign(n_, randomId(rng, idBits_));
    markDirty();
    return true;
  }

 private:
  core::DSymMessage message_;
  std::size_t n_;
  unsigned idBits_;
  const hash::LinearHashFamily& family_;
};

class SymInputFirstSurface final : public FieldSurface {
 public:
  SymInputFirstSurface(core::SymInputFirstMessage message, std::size_t n)
      : message_(std::move(message)), n_(n), idBits_(util::bitsFor(n)) {}
  const core::SymInputFirstMessage& message() const { return message_; }

  bool rewriteParent(util::Rng& rng) override {
    message_.parent[rng.nextBelow(n_)] = randomId(rng, idBits_);
    markDirty();
    return true;
  }
  bool skewDistance(util::Rng& rng) override {
    graph::Vertex v = static_cast<graph::Vertex>(rng.nextBelow(n_));
    message_.dist[v] = skewedDistance(message_.dist[v], idBits_, rng);
    markDirty();
    return true;
  }
  // The broadcast witness w (rho(w) != w) plays the root's role here.
  bool swapRoot(util::Rng& rng) override {
    message_.witnessPerNode.assign(n_, randomId(rng, idBits_));
    markDirty();
    return true;
  }

 private:
  core::SymInputFirstMessage message_;
  std::size_t n_;
  unsigned idBits_;
};

class SymInputSecondSurface final : public FieldSurface {
 public:
  SymInputSecondSurface(core::SymInputSecondMessage message,
                        const hash::LinearHashFamily& family)
      : message_(std::move(message)), family_(family) {}
  const core::SymInputSecondMessage& message() const { return message_; }

  bool perturbHashValue(util::Rng& rng) override {
    const std::size_t n = message_.a.size();
    switch (rng.nextBelow(5)) {
      case 0:
        message_.indexPerNode.assign(n, rng.nextBigBits(family_.seedBits()));
        break;
      case 1:
        message_.a[rng.nextBelow(n)] = rng.nextBigBits(family_.valueBits());
        break;
      case 2:
        message_.b[rng.nextBelow(n)] = rng.nextBigBits(family_.valueBits());
        break;
      case 3:
        message_.consC[rng.nextBelow(n)] = rng.nextBigBits(family_.valueBits());
        break;
      default:
        message_.consT[rng.nextBelow(n)] = rng.nextBigBits(family_.valueBits());
        break;
    }
    markDirty();
    return true;
  }

 private:
  core::SymInputSecondMessage message_;
  const hash::LinearHashFamily& family_;
};

class GniFirstSurface final : public FieldSurface {
 public:
  GniFirstSurface(core::GniFirstMessage message, std::size_t n, std::size_t ell)
      : message_(std::move(message)), n_(n), idBits_(util::bitsFor(n)), ell_(ell) {}
  const core::GniFirstMessage& message() const { return message_; }

  bool rewriteParent(util::Rng& rng) override {
    message_.perNode[rng.nextBelow(n_)].parent = randomId(rng, idBits_);
    markDirty();
    return true;
  }
  bool skewDistance(util::Rng& rng) override {
    core::GniM1PerNode& m1 = message_.perNode[rng.nextBelow(n_)];
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
    for (core::GniM1PerNode& m1 : message_.perNode) m1.echo[j].y = y;
    markDirty();
    return true;
  }
  bool swapRoot(util::Rng& rng) override {
    graph::Vertex root = randomId(rng, idBits_);
    for (core::GniM1PerNode& m1 : message_.perNode) m1.root = root;
    markDirty();
    return true;
  }

 private:
  core::GniFirstMessage message_;
  std::size_t n_;
  unsigned idBits_;
  std::size_t ell_;
};

class GniSecondSurface final : public FieldSurface {
 public:
  GniSecondSurface(core::GniSecondMessage message, const core::GniParams& params,
                   const std::vector<std::uint8_t>& claimedFlags)
      : message_(std::move(message)), params_(params), claimedFlags_(claimedFlags) {}
  const core::GniSecondMessage& message() const { return message_; }

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
      for (core::GniM2PerNode& m2 : message_.perNode) m2.checkSeed = seed;
      markDirty();
      return true;
    }
    const std::size_t j = claimed[rng.nextBelow(claimed.size())];
    core::GniM2PerNode& m2 = message_.perNode[rng.nextBelow(n)];
    if (rng.nextBool()) {
      m2.h[j] = rng.nextBigBits(params_.gsHash.innerValueBits());
    } else {
      m2.permS[j] = rng.nextBigBits(params_.checkFamily.seedBits());
    }
    markDirty();
    return true;
  }

 private:
  core::GniSecondMessage message_;
  const core::GniParams& params_;
  const std::vector<std::uint8_t>& claimedFlags_;
};

class GniGenFirstSurface final : public FieldSurface {
 public:
  GniGenFirstSurface(core::GniGenFirstMessage message, std::size_t n, std::size_t ell)
      : message_(std::move(message)), n_(n), idBits_(util::bitsFor(n)), ell_(ell) {}
  const core::GniGenFirstMessage& message() const { return message_; }

  bool rewriteParent(util::Rng& rng) override {
    message_.perNode[rng.nextBelow(n_)].parent = randomId(rng, idBits_);
    markDirty();
    return true;
  }
  bool skewDistance(util::Rng& rng) override {
    core::GniGenM1PerNode& m1 = message_.perNode[rng.nextBelow(n_)];
    m1.dist = skewedDistance(m1.dist, idBits_, rng);
    markDirty();
    return true;
  }
  bool perturbHashValue(util::Rng& rng) override {
    const std::size_t k = message_.perNode[0].echo.size();
    if (k == 0) return false;
    const std::size_t j = rng.nextBelow(k);
    util::BigUInt y = rng.nextBigBits(ell_);
    for (core::GniGenM1PerNode& m1 : message_.perNode) m1.echo[j].y = y;
    markDirty();
    return true;
  }
  bool swapRoot(util::Rng& rng) override {
    graph::Vertex root = randomId(rng, idBits_);
    for (core::GniGenM1PerNode& m1 : message_.perNode) m1.root = root;
    markDirty();
    return true;
  }

 private:
  core::GniGenFirstMessage message_;
  std::size_t n_;
  unsigned idBits_;
  std::size_t ell_;
};

class GniGenSecondSurface final : public FieldSurface {
 public:
  GniGenSecondSurface(core::GniGenSecondMessage message,
                      const core::GniGeneralParams& params,
                      const std::vector<std::uint8_t>& claimedFlags)
      : message_(std::move(message)), params_(params), claimedFlags_(claimedFlags) {}
  const core::GniGenSecondMessage& message() const { return message_; }

  bool perturbHashValue(util::Rng& rng) override {
    std::vector<std::size_t> claimed;
    for (std::size_t j = 0; j < claimedFlags_.size(); ++j) {
      if (claimedFlags_[j]) claimed.push_back(j);
    }
    const std::size_t n = message_.perNode.size();
    if (claimed.empty() || rng.nextBelow(4) == 0) {
      util::BigUInt seed = rng.nextBigBits(params_.checkFamily.seedBits());
      for (core::GniGenM2PerNode& m2 : message_.perNode) m2.checkSeed = seed;
      markDirty();
      return true;
    }
    const std::size_t j = claimed[rng.nextBelow(claimed.size())];
    core::GniGenM2PerNode& m2 = message_.perNode[rng.nextBelow(n)];
    switch (rng.nextBelow(3)) {
      case 0:
        m2.h[j] = rng.nextBigBits(params_.gsHash.innerValueBits());
        break;
      case 1:
        m2.permS[j] = rng.nextBigBits(params_.checkFamily.seedBits());
        break;
      default:
        m2.autR[j] = rng.nextBigBits(params_.checkFamily.seedBits());
        break;
    }
    markDirty();
    return true;
  }

 private:
  core::GniGenSecondMessage message_;
  const core::GniGeneralParams& params_;
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

// ---- SymDmam (dMAM: M1, A, M2) ----

MutantSymDmamProver::MutantSymDmamProver(std::unique_ptr<core::SymDmamProver> base,
                                         const MessageMutator& mutator,
                                         const hash::LinearHashFamily& family,
                                         util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), family_(family), rng_(rng) {}

core::SymDmamFirstMessage MutantSymDmamProver::firstMessage(const graph::Graph& g) {
  const std::size_t n = g.numVertices();
  honestFirst_ = base_->firstMessage(g);
  core::wire::EncodedRound round = core::wire::encodeSymDmamFirst(honestFirst_, n);
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = false;
  ctx.numNodes = n;
  util::Rng stream = roundStream(rng_, ctx);
  SymDmamFirstSurface surface(honestFirst_, n);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) round = core::wire::encodeSymDmamFirst(surface.message(), n);
  firstRound_ = round;
  return decodeOrReject("SymDmam/M1",
                        [&] { return core::wire::decodeSymDmamFirst(round, n); });
}

core::SymDmamSecondMessage MutantSymDmamProver::secondMessage(
    const graph::Graph& g, const core::SymDmamFirstMessage& /*first*/,
    const std::vector<util::BigUInt>& challenges) {
  const std::size_t n = g.numVertices();
  core::SymDmamSecondMessage honest = base_->secondMessage(g, honestFirst_, challenges);
  core::wire::EncodedRound round = core::wire::encodeSymDmamSecond(honest, n, family_);
  MutationContext ctx;
  ctx.roundIndex = 1;
  ctx.finalRound = true;
  ctx.numNodes = n;
  ctx.challengeDigest = digestLinearChallenges(challenges, family_);
  ctx.previousRound = &firstRound_;
  util::Rng stream = roundStream(rng_, ctx);
  SymDmamSecondSurface surface(std::move(honest), family_);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeSymDmamSecond(surface.message(), n, family_);
  }
  return decodeOrReject("SymDmam/M2", [&] {
    return core::wire::decodeSymDmamSecond(round, n, family_);
  });
}

// ---- SymDam (dAM: A, M) ----

MutantSymDamProver::MutantSymDamProver(std::unique_ptr<core::SymDamProver> base,
                                       const MessageMutator& mutator,
                                       const hash::LinearHashFamily& family,
                                       util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), family_(family), rng_(rng) {}

core::SymDamMessage MutantSymDamProver::respond(
    const graph::Graph& g, const std::vector<util::BigUInt>& challenges) {
  const std::size_t n = g.numVertices();
  core::SymDamMessage honest = base_->respond(g, challenges);
  core::wire::EncodedRound round = core::wire::encodeSymDam(honest, n, family_);
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = true;
  ctx.numNodes = n;
  ctx.challengeDigest = digestLinearChallenges(challenges, family_);
  util::Rng stream = roundStream(rng_, ctx);
  SymDamSurface surface(std::move(honest), n, family_);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeSymDam(surface.message(), n, family_);
  }
  return decodeOrReject("SymDam/M",
                        [&] { return core::wire::decodeSymDam(round, n, family_); });
}

// ---- DSym (dAM: A, M) ----

MutantDSymProver::MutantDSymProver(std::unique_ptr<core::DSymProver> base,
                                   const MessageMutator& mutator,
                                   const hash::LinearHashFamily& family, util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), family_(family), rng_(rng) {}

core::DSymMessage MutantDSymProver::respond(const graph::Graph& g,
                                            const std::vector<util::BigUInt>& challenges) {
  const std::size_t n = g.numVertices();
  core::DSymMessage honest = base_->respond(g, challenges);
  core::wire::EncodedRound round = core::wire::encodeDSym(honest, n, family_);
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = true;
  ctx.numNodes = n;
  ctx.challengeDigest = digestLinearChallenges(challenges, family_);
  util::Rng stream = roundStream(rng_, ctx);
  DSymSurface surface(std::move(honest), n, family_);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeDSym(surface.message(), n, family_);
  }
  return decodeOrReject("DSym/M",
                        [&] { return core::wire::decodeDSym(round, n, family_); });
}

// ---- SymInput (dMAM: M1, A, M2) ----

MutantSymInputProver::MutantSymInputProver(std::unique_ptr<core::SymInputProver> base,
                                           const MessageMutator& mutator,
                                           const hash::LinearHashFamily& family,
                                           util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), family_(family), rng_(rng) {}

core::SymInputFirstMessage MutantSymInputProver::firstMessage(
    const core::SymInputInstance& instance) {
  const std::size_t n = instance.network.numVertices();
  honestFirst_ = base_->firstMessage(instance);
  core::wire::EncodedRound round = core::wire::encodeSymInputFirst(honestFirst_, instance);
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = false;
  ctx.numNodes = n;
  util::Rng stream = roundStream(rng_, ctx);
  SymInputFirstSurface surface(honestFirst_, n);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeSymInputFirst(surface.message(), instance);
  }
  firstRound_ = round;
  return decodeOrReject("SymInput/M1", [&] {
    return core::wire::decodeSymInputFirst(round, instance);
  });
}

core::SymInputSecondMessage MutantSymInputProver::secondMessage(
    const core::SymInputInstance& instance, const core::SymInputFirstMessage& /*first*/,
    const std::vector<util::BigUInt>& challenges) {
  const std::size_t n = instance.network.numVertices();
  core::SymInputSecondMessage honest =
      base_->secondMessage(instance, honestFirst_, challenges);
  core::wire::EncodedRound round = core::wire::encodeSymInputSecond(honest, n, family_);
  MutationContext ctx;
  ctx.roundIndex = 1;
  ctx.finalRound = true;
  ctx.numNodes = n;
  ctx.challengeDigest = digestLinearChallenges(challenges, family_);
  ctx.previousRound = &firstRound_;
  util::Rng stream = roundStream(rng_, ctx);
  SymInputSecondSurface surface(std::move(honest), family_);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeSymInputSecond(surface.message(), n, family_);
  }
  return decodeOrReject("SymInput/M2", [&] {
    return core::wire::decodeSymInputSecond(round, n, family_);
  });
}

// ---- GNI (dAMAM: A1, M1, A2, M2) ----

MutantGniProver::MutantGniProver(std::unique_ptr<core::GniProver> base,
                                 const MessageMutator& mutator,
                                 const core::GniParams& params, util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), params_(params), rng_(rng) {}

core::GniFirstMessage MutantGniProver::firstMessage(
    const core::GniInstance& instance,
    const std::vector<std::vector<core::GniChallenge>>& challenges) {
  const std::size_t n = instance.g0.numVertices();
  honestFirst_ = base_->firstMessage(instance, challenges);
  core::wire::EncodedRound round =
      core::wire::encodeGniFirst(honestFirst_, instance, params_);
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = false;
  ctx.numNodes = n;
  ctx.challengeDigest = digestGniChallenges(challenges, params_.gsHash, params_.ell);
  util::Rng stream = roundStream(rng_, ctx);
  GniFirstSurface surface(honestFirst_, n, params_.ell);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeGniFirst(surface.message(), instance, params_);
  }
  firstRound_ = round;
  mutantFirst_ = decodeOrReject("Gni/M1", [&] {
    return core::wire::decodeGniFirst(round, instance, params_);
  });
  return mutantFirst_;
}

core::GniSecondMessage MutantGniProver::secondMessage(
    const core::GniInstance& instance,
    const std::vector<std::vector<core::GniChallenge>>& challenges,
    const core::GniFirstMessage& /*first*/,
    const std::vector<util::BigUInt>& checkChallenges) {
  // M2's wire layout is keyed on the claimed/b flags the VERIFIERS hold —
  // the decoded mutant M1 — while the base prover answers for what it
  // actually committed to (its honest first message).
  core::GniSecondMessage honest =
      base_->secondMessage(instance, challenges, honestFirst_, checkChallenges);
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
  GniSecondSurface surface(std::move(honest), params_, mutantFirst_.perNode[0].claimed);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeGniSecond(surface.message(), mutantFirst_, instance, params_);
  }
  return decodeOrReject("Gni/M2", [&] {
    return core::wire::decodeGniSecond(round, mutantFirst_, instance, params_);
  });
}

// ---- GNI general (dAMAM: A1, M1, A2, M2) ----

MutantGniGeneralProver::MutantGniGeneralProver(
    std::unique_ptr<core::GniGeneralProver> base, const MessageMutator& mutator,
    const core::GniGeneralParams& params, util::Rng rng)
    : base_(std::move(base)), mutator_(mutator), params_(params), rng_(rng) {}

core::GniGenFirstMessage MutantGniGeneralProver::firstMessage(
    const core::GniInstance& instance,
    const std::vector<std::vector<core::GniChallenge>>& challenges) {
  const std::size_t n = instance.g0.numVertices();
  honestFirst_ = base_->firstMessage(instance, challenges);
  core::wire::EncodedRound round =
      core::wire::encodeGniGenFirst(honestFirst_, instance, params_);
  MutationContext ctx;
  ctx.roundIndex = 0;
  ctx.finalRound = false;
  ctx.numNodes = n;
  ctx.challengeDigest = digestGniChallenges(challenges, params_.gsHash, params_.ell);
  util::Rng stream = roundStream(rng_, ctx);
  GniGenFirstSurface surface(honestFirst_, n, params_.ell);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round = core::wire::encodeGniGenFirst(surface.message(), instance, params_);
  }
  firstRound_ = round;
  mutantFirst_ = decodeOrReject("GniGen/M1", [&] {
    return core::wire::decodeGniGenFirst(round, instance, params_);
  });
  return mutantFirst_;
}

core::GniGenSecondMessage MutantGniGeneralProver::secondMessage(
    const core::GniInstance& instance,
    const std::vector<std::vector<core::GniChallenge>>& challenges,
    const core::GniGenFirstMessage& /*first*/,
    const std::vector<util::BigUInt>& checkChallenges) {
  core::GniGenSecondMessage honest =
      base_->secondMessage(instance, challenges, honestFirst_, checkChallenges);
  core::wire::EncodedRound round =
      core::wire::encodeGniGenSecond(honest, mutantFirst_, instance, params_);
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
  GniGenSecondSurface surface(std::move(honest), params_, mutantFirst_.perNode[0].claimed);
  mutator_.mutate(round, &surface, ctx, stream);
  if (surface.dirty()) {
    round =
        core::wire::encodeGniGenSecond(surface.message(), mutantFirst_, instance, params_);
  }
  return decodeOrReject("GniGen/M2", [&] {
    return core::wire::decodeGniGenSecond(round, mutantFirst_, instance, params_);
  });
}

}  // namespace dip::adv
