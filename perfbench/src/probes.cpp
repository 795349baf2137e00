#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/dsym_dam.hpp"
#include "core/gni_amam.hpp"
#include "core/sym_dam.hpp"
#include "core/sym_dmam.hpp"
#include "core/sym_input.hpp"
#include "core/sym_input_wire.hpp"
#include "core/wire.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "hash/batch_eval.hpp"
#include "hash/linear_hash.hpp"
#include "rpc/frame.hpp"
#include "sim/trial_runner.hpp"
#include "sim/workload.hpp"
#include "trace.hpp"
#include "util/montgomery.hpp"
#include "util/rng.hpp"

namespace dip::perfbench {

namespace {

// Keeps probe results observable so the optimizer cannot drop the calls.
std::uint64_t g_sink = 0;

// Median over `batches` batches of the nanoseconds one op takes, each batch
// running the op for about seconds / batches.
template <typename Op>
double nsPerOp(Op&& op, double seconds, std::size_t batches = 5) {
  op();  // Caches and lazy tables filled before timing.
  const double batchNs = seconds * 1e9 / static_cast<double>(batches);
  std::vector<double> perOp;
  for (std::size_t b = 0; b < batches; ++b) {
    std::size_t count = 0;
    const std::int64_t start = nowNs();
    std::int64_t elapsed = 0;
    do {
      op();
      ++count;
      elapsed = nowNs() - start;
    } while (static_cast<double>(elapsed) < batchNs);
    perOp.push_back(static_cast<double>(elapsed) / static_cast<double>(count));
  }
  std::sort(perOp.begin(), perOp.end());
  return perOp[perOp.size() / 2];
}

std::vector<util::BigUInt> challengesFor(const hash::LinearHashFamily& family,
                                         std::size_t n, util::Rng& rng) {
  std::vector<util::BigUInt> challenges;
  for (std::size_t v = 0; v < n; ++v) challenges.push_back(family.randomIndex(rng));
  return challenges;
}

// The instances the Sym registry cells build (src/sim/workload.cpp) and
// sym_bigfield's n = 16 instance.
struct SymInstances {
  hash::LinearHashFamily p1Family = hash::makeProtocol1FamilyCached(48);
  graph::Graph p1Graph = [] {
    util::Rng rng(701);
    return graph::randomSymmetricConnected(48, rng);
  }();
  hash::LinearHashFamily p2Family = hash::makeProtocol2FamilyCached(6);
  graph::Graph p2Graph = [] {
    util::Rng rng(702);
    return graph::randomSymmetricConnected(6, rng);
  }();
  graph::DSymLayout layout = graph::dsymLayout(8, 1);
  hash::LinearHashFamily dsymFamily = hash::makeProtocol1FamilyCached(layout.numVertices);
  graph::Graph dsymGraph = [] {
    util::Rng rng(703);
    return graph::dsymInstance(graph::randomRigidConnected(8, rng), 1);
  }();
  hash::LinearHashFamily inputFamily = hash::makeProtocol1FamilyCached(8);
  core::SymInputInstance input = [] {
    util::Rng rng(704);
    graph::Graph network = graph::randomConnected(8, 4, rng);
    return core::SymInputInstance{std::move(network), graph::randomSymmetricConnected(8, rng)};
  }();
  hash::LinearHashFamily bigFamily = hash::makeProtocol2FamilyCached(16);
  graph::Graph bigGraph = [] {
    util::Rng rng(4016);
    return graph::randomSymmetricConnected(16, rng);
  }();
};

// One honest trial's prover rounds per Sym cell, encoded and decoded
// through core::wire: microseconds per trial, averaged over the four cells.
std::pair<double, double> wireProbe(const SymInstances& s, double seconds) {
  util::Rng rng(0x51e);
  core::HonestSymDmamProver p1(s.p1Family);
  const core::SymDmamFirstMessage p1First = p1.firstMessage(s.p1Graph);
  const core::SymDmamSecondMessage p1Second =
      p1.secondMessage(s.p1Graph, p1First, challengesFor(s.p1Family, 48, rng));
  core::HonestSymDamProver p2(s.p2Family);
  const core::SymDamMessage p2Msg = p2.respond(s.p2Graph, challengesFor(s.p2Family, 6, rng));
  core::HonestDSymProver dsym(s.layout, s.dsymFamily);
  const std::size_t dsymN = s.layout.numVertices;
  const core::DSymMessage dsymMsg =
      dsym.respond(s.dsymGraph, challengesFor(s.dsymFamily, dsymN, rng));
  core::HonestSymInputProver input(s.inputFamily);
  const core::SymInputFirstMessage inFirst = input.firstMessage(s.input);
  const core::SymInputSecondMessage inSecond =
      input.secondMessage(s.input, inFirst, challengesFor(s.inputFamily, 8, rng));

  auto encodeAll = [&] {
    return std::vector<core::wire::EncodedRound>{
        core::wire::encodeSymDmamFirst(p1First, 48),
        core::wire::encodeSymDmamSecond(p1Second, 48, s.p1Family),
        core::wire::encodeSymDam(p2Msg, 6, s.p2Family),
        core::wire::encodeDSym(dsymMsg, dsymN, s.dsymFamily),
        core::wire::encodeSymInputFirst(inFirst, s.input),
        core::wire::encodeSymInputSecond(inSecond, 8, s.inputFamily)};
  };
  const std::vector<core::wire::EncodedRound> rounds = encodeAll();
  const double encodeNs = nsPerOp([&] { g_sink += encodeAll().size(); }, seconds / 2);
  const double decodeNs = nsPerOp(
      [&] {
        g_sink += core::wire::decodeSymDmamFirst(rounds[0], 48).rho.size();
        g_sink += core::wire::decodeSymDmamSecond(rounds[1], 48, s.p1Family).a.size();
        g_sink += core::wire::decodeSymDam(rounds[2], 6, s.p2Family).a.size();
        g_sink += core::wire::decodeDSym(rounds[3], dsymN, s.dsymFamily).a.size();
        g_sink += core::wire::decodeSymInputFirst(rounds[4], s.input).rho.size();
        g_sink += core::wire::decodeSymInputSecond(rounds[5], 8, s.inputFamily).a.size();
      },
      seconds / 2);
  return {encodeNs / 4e3, decodeNs / 4e3};
}

// hashMatrixRows over an instance's closed-neighbourhood rows, rebinding to
// a fresh index per call as each trial does: nanoseconds per row.
double rowProbe(const hash::LinearHashFamily& family, const graph::Graph& g, double seconds) {
  const std::size_t n = g.numVertices();
  std::vector<std::uint64_t> rowIndices;
  std::vector<util::DynBitset> rows;
  for (std::size_t v = 0; v < n; ++v) {
    rowIndices.push_back(v);
    rows.push_back(g.closedRow(static_cast<graph::Vertex>(v)));
  }
  util::Rng rng(0x40a);
  std::vector<util::BigUInt> indices;
  for (int i = 0; i < 32; ++i) indices.push_back(family.randomIndex(rng));
  hash::BatchLinearHashEvaluator evaluator;
  std::vector<util::BigUInt> out;
  std::size_t next = 0;
  const double ns = nsPerOp(
      [&] {
        evaluator.rebind(family, indices[next++ % indices.size()]);
        evaluator.hashMatrixRows(rowIndices, rows, n, out);
        g_sink += out.back().bitLength();
      },
      seconds);
  return ns / static_cast<double>(n);
}

}  // namespace

std::vector<Metric> runLayerProbes(double seconds) {
  const double slice = seconds / 7;
  const SymInstances s;

  // rpc: one grain-sized PARTIAL frame of real outcomes.
  const auto cell = sim::workload::makeCell("sym_dam_p2");
  rpc::PartialMsg partial;
  partial.workerId = 1;
  partial.epoch = 1;
  partial.done = true;
  partial.outcomes = cell->runRange(0, 64, sim::TrialConfig{0, 1});
  std::vector<std::uint8_t> frame;
  rpc::encodeFrame(rpc::Verb::kPartial, rpc::encodePartial(partial), frame);
  const double frameEncodeNs = nsPerOp(
      [&] {
        std::vector<std::uint8_t> bytes;
        rpc::encodeFrame(rpc::Verb::kPartial, rpc::encodePartial(partial), bytes);
        g_sink += bytes.size();
      },
      slice / 2);
  const double frameDecodeNs = nsPerOp(
      [&] {
        std::vector<std::uint8_t> bytes = frame;
        const std::optional<rpc::Frame> decoded = rpc::extractFrame(bytes);
        g_sink += rpc::decodePartial(*decoded).outcomes.size();
      },
      slice / 2);

  const auto [wireEncodeUs, wireDecodeUs] = wireProbe(s, slice);

  // core: one per-repetition preimage search of the gni_amam cell.
  util::Rng gniSetup(705);
  const core::GniAmamProtocol gni(core::GniParams::choose(6, gniSetup));
  util::Rng gniInstanceRng(70599);
  const core::GniInstance yes = core::gniYesInstance(6, gniInstanceRng);
  util::Rng gniRng(0x6e1);
  const double searchUs =
      nsPerOp([&] { g_sink += gni.perRoundHitOnce(yes, gniRng) ? 1 : 0; }, slice) / 1e3;

  const double rowU64Ns = rowProbe(s.p1Family, s.p1Graph, slice);
  const double rowMontNs = rowProbe(s.bigFamily, s.bigGraph, slice);

  // util: in-domain products and powMod at sym_bigfield's 78-bit prime.
  const auto ctx = util::cachedMontgomeryContext(s.bigFamily.prime());
  util::Rng rng(0x3c7);
  util::MontgomeryValue acc = ctx->toValue(s.bigFamily.randomIndex(rng));
  const util::MontgomeryValue factor = ctx->toValue(s.bigFamily.randomIndex(rng));
  util::MontgomeryContext::Scratch scratch;
  constexpr int kChain = 256;
  const double mulNs = nsPerOp(
                           [&] {
                             for (int i = 0; i < kChain; ++i) {
                               ctx->mulValue(acc, factor, acc, scratch);
                             }
                             g_sink += acc.limbs()[0];
                           },
                           slice / 2) /
                       kChain;
  const util::BigUInt base = s.bigFamily.randomIndex(rng);
  const util::BigUInt exponent = s.bigFamily.randomIndex(rng);
  const double powModUs =
      nsPerOp([&] { g_sink += ctx->powMod(base, exponent).bitLength(); }, slice / 2) / 1e3;

  // graph: the honest provers' automorphism search on each Sym instance.
  const double automorphismUs =
      nsPerOp(
          [&] {
            for (const graph::Graph* g : {&s.p1Graph, &s.p2Graph, &s.dsymGraph, &s.input.input}) {
              g_sink += graph::findNontrivialAutomorphism(*g).has_value() ? 1 : 0;
            }
          },
          slice) /
      4e3;

  return {{"rpc.partial_encode_ns", frameEncodeNs, "ns"},
          {"rpc.partial_decode_ns", frameDecodeNs, "ns"},
          {"core.gni_search_us", searchUs, "us"},
          {"core.wire_encode_us", wireEncodeUs, "us"},
          {"core.wire_decode_us", wireDecodeUs, "us"},
          {"hash.row_ns.u64", rowU64Ns, "ns"},
          {"hash.row_ns.mont", rowMontNs, "ns"},
          {"util.mont_mul_ns", mulNs, "ns"},
          {"util.powmod_us", powModUs, "us"},
          {"graph.automorphism_us", automorphismUs, "us"}};
}

}  // namespace dip::perfbench
