#include "selftest.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace dip::analyze {

namespace {

struct SeededCase {
  const char* path;
  const char* content;
  const char* expectRule;  // nullptr: the file must produce zero findings.
};

// The seeded tree is analyzed as one file set (the mutator rule is
// cross-file), so clean files must stay clean in the presence of every
// firing file.
const SeededCase kCases[] = {
    // --- ported from the regex linter's self-test -------------------------
    {"src/core/bad_uncharged.cpp",
     "#include \"core/wire.hpp\"\n"
     "std::size_t leak() {\n"
     "  return wire::encodeSymDmamFirst(first, n).bitsForNode(0);\n"
     "}\n",
     "uncharged-wire"},
    {"src/core/bad_rand.cpp",
     "#include <cstdlib>\n"
     "int pick() { return rand(); }\n",
     "nondeterminism"},
    {"src/core/bad_uncovered_charge.cpp",
     "void run(net::Transcript& transcript) {\n"
     "  transcript.beginRound(\"M\");\n"
     "  transcript.chargeFromProver(0, 42);\n"
     "}\n",
     "charge-audit"},
    {"src/net/bad_print.cpp",
     "#include <iostream>\n"
     "void report() { std::cout << \"hi\\n\"; }\n",
     "library-io"},
    {"src/core/bad_global_view.cpp",
     "bool Proto::nodeDecision(const graph::Graph& g, graph::Vertex v) {\n"
     "  for (graph::Vertex u = 0; u < n; ++u) {\n"
     "    if (g.closedRow(u).none()) return false;\n"
     "  }\n"
     "  return true;\n"
     "}\n",
     "locality"},
    {"src/core/bad_thread.cpp",
     "#include <thread>\n"
     "void spin() {\n"
     "  std::thread worker([] { std::this_thread::yield(); });\n"
     "  worker.join();\n"
     "}\n",
     "thread-containment"},
    {"src/sim/good_worker_pool.cpp",
     "#include <thread>\n"
     "#include <vector>\n"
     "void fanOut(unsigned poolSize) {\n"
     "  std::vector<std::thread> pool;\n"
     "  for (unsigned i = 0; i < poolSize; ++i) pool.emplace_back([] {});\n"
     "  for (std::thread& t : pool) t.join();\n"
     "}\n",
     nullptr},
    {"src/core/good_protocol.cpp",
     "void run(net::Transcript& transcript, util::Rng& rng) {\n"
     "  transcript.beginRound(\"A\");\n"
     "  transcript.chargeToProver(0, seedBits);\n"
     "#if DIP_AUDIT\n"
     "  net::auditCharge(\"Good/A\", 0, transcript.roundBitsToProver(0),\n"
     "                   wire::encodeChallenge(c, family).bitCount());\n"
     "#endif\n"
     "}\n",
     nullptr},
    {"src/core/good_annotated.cpp",
     "void merge(net::Transcript& transcript) {\n"
     "  // dip-lint: allow(charge-audit) -- transcript merge, not a wire round\n"
     "  transcript.chargeToProver(0, 7);\n"
     "}\n",
     nullptr},
    {"src/hash/bad_loop_alloc.cpp",
     "util::BigUInt sum(const util::BigUInt& p, std::size_t n) {\n"
     "  util::BigUInt acc{0};\n"
     "  for (std::size_t i = 0; i < n; ++i) {\n"
     "    util::BigUInt term = power(i) % p;\n"
     "    acc = addMod(acc, term, p);\n"
     "  }\n"
     "  return acc;\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/hash/bad_foreachset_alloc.cpp",
     "void walk(const util::BitRow& row, const util::BigUInt& p) {\n"
     "  row.forEachSet([&](std::size_t w) {\n"
     "    util::BigUInt coefficient{w};\n"
     "    consume(coefficient % p);\n"
     "  });\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/hash/good_hoisted.cpp",
     "util::BigUInt sum(const util::BigUInt& p, std::size_t n) {\n"
     "  util::BigUInt acc{0};\n"
     "  util::BigUInt term{0};\n"
     "  for (std::size_t i = 0; i < n; ++i) {\n"
     "    term = power(i);\n"
     "    const util::BigUInt& reduced = term;\n"
     "    acc = addMod(acc, reduced, p);\n"
     "  }\n"
     "  return acc;\n"
     "}\n",
     nullptr},
    {"src/core/good_cold_loop.cpp",
     "util::BigUInt product(std::size_t n) {\n"
     "  util::BigUInt out{1};\n"
     "  for (std::size_t i = 1; i <= n; ++i) {\n"
     "    util::BigUInt factor{i};\n"
     "    out = out * factor;\n"
     "  }\n"
     "  return out;\n"
     "}\n",
     nullptr},
    {"src/adv/bad_unregistered_mutator.hpp",
     "class SilentMutator final : public MessageMutator {\n"
     " public:\n"
     "  const char* name() const override { return \"silent\"; }\n"
     "  void mutate(core::wire::EncodedRound& round, FieldSurface* surface,\n"
     "              const MutationContext& ctx, util::Rng& rng) const override;\n"
     "};\n",
     "mutator-selftest"},
    {"src/adv/good_registered_mutator.hpp",
     "class LoudMutator final : public MessageMutator {\n"
     " public:\n"
     "  const char* name() const override { return \"loud\"; }\n"
     "  void mutate(core::wire::EncodedRound& round, FieldSurface* surface,\n"
     "              const MutationContext& ctx, util::Rng& rng) const override;\n"
     "};\n",
     nullptr},
    {"src/adv/good_registered_mutator.cpp",
     "#include \"adv/good_registered_mutator.hpp\"\n"
     "DIP_MUTATOR_SELF_TEST(LoudMutator, \"loud\", 0x10d)\n",
     nullptr},
    {"src/adv/good_annotated_mutator.hpp",
     "// dip-lint: allow(mutator-selftest) -- test scaffold, never in the battery\n"
     "class ScaffoldMutator final : public MessageMutator {\n"
     " public:\n"
     "  const char* name() const override { return \"scaffold\"; }\n"
     "  void mutate(core::wire::EncodedRound& round, FieldSurface* surface,\n"
     "              const MutationContext& ctx, util::Rng& rng) const override;\n"
     "};\n",
     nullptr},
    {"src/hash/good_annotated_loop.cpp",
     "void setup(std::vector<util::BigUInt>& table, std::size_t n) {\n"
     "  table.reserve(n);\n"
     "  for (std::size_t i = 0; i < n; ++i) {\n"
     "    // dip-lint: allow(hot-loop-alloc) -- one-time table construction\n"
     "    util::BigUInt entry{i};\n"
     "    table.push_back(entry);\n"
     "  }\n"
     "}\n",
     nullptr},
    {"src/hash/bad_loop_new.cpp",
     "void expand(std::vector<std::uint64_t*>& slots, std::size_t n) {\n"
     "  for (std::size_t i = 0; i < n; ++i) {\n"
     "    slots[i] = new std::uint64_t[4];\n"
     "  }\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/hash/bad_growth_unreserved.cpp",
     "void collect(std::vector<std::uint64_t>& out, std::size_t n) {\n"
     "  for (std::size_t i = 0; i < n; ++i) {\n"
     "    out.push_back(i * i);\n"
     "  }\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/hash/good_growth_reserved.cpp",
     "void collect(std::vector<std::uint64_t>& out, std::size_t n) {\n"
     "  out.reserve(n);\n"
     "  for (std::size_t i = 0; i < n; ++i) {\n"
     "    out.push_back(i * i);\n"
     "  }\n"
     "}\n",
     nullptr},
    {"src/core/good_cold_growth.cpp",
     "void collect(std::vector<std::uint64_t>& out, std::size_t n) {\n"
     "  for (std::size_t i = 0; i < n; ++i) {\n"
     "    out.emplace_back(i);\n"
     "  }\n"
     "}\n",
     nullptr},
    {"src/core/bad_wire_loop_alloc.cpp",
     "EncodedRound encode(const Message& message, std::size_t n) {\n"
     "  EncodedRound round;\n"
     "  for (graph::Vertex v = 0; v < n; ++v) {\n"
     "    util::BigUInt share = message.a[v];\n"
     "    round.unicast[v].writeBig(share, 64);\n"
     "  }\n"
     "  return round;\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/core/good_wire_hoisted.cpp",
     "EncodedRound encode(const Message& message, std::size_t n) {\n"
     "  EncodedRound round;\n"
     "  for (graph::Vertex v = 0; v < n; ++v) {\n"
     "    round.unicast[v].writeBig(message.a[v], 64);\n"
     "  }\n"
     "  return round;\n"
     "}\n",
     nullptr},
    {"src/net/bad_audit_growth.cpp",
     "void stage(std::vector<std::size_t>& charged, std::size_t n) {\n"
     "  for (std::size_t v = 0; v < n; ++v) {\n"
     "    charged.push_back(v);\n"
     "  }\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/adv/mutator.cpp",
     "void pick(core::wire::EncodedRound& round, std::vector<util::BitWriter*>& out) {\n"
     "  for (util::BitWriter& payload : round.unicast) {\n"
     "    out.push_back(&payload);\n"
     "  }\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/adv/good_stress_growth.cpp",
     "void pick(core::wire::EncodedRound& round, std::vector<util::BitWriter*>& out) {\n"
     "  for (util::BitWriter& payload : round.unicast) {\n"
     "    out.push_back(&payload);\n"
     "  }\n"
     "}\n",
     nullptr},
    {"src/net/bad_traversal_neighbors.cpp",
     "std::size_t scan(const graph::Graph& g, std::size_t n) {\n"
     "  std::size_t acc = 0;\n"
     "  for (graph::Vertex v = 0; v < n; ++v) {\n"
     "    for (graph::Vertex u : g.neighbors(v)) acc += u;\n"
     "  }\n"
     "  return acc;\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/lb/bad_traversal_closed.cpp",
     "bool check(const graph::Graph* g, graph::Vertex v, std::size_t rounds) {\n"
     "  for (std::size_t r = 0; r < rounds; ++r) {\n"
     "    if (g->closedNeighbors(v).empty()) return false;\n"
     "  }\n"
     "  return true;\n"
     "}\n",
     "hot-loop-alloc"},
    {"src/net/good_traversal_foreach.cpp",
     "std::size_t scan(const graph::Graph& g, std::size_t n) {\n"
     "  std::size_t acc = 0;\n"
     "  for (graph::Vertex v = 0; v < n; ++v) {\n"
     "    g.forEachNeighbor(v, [&](graph::Vertex u) { acc += u; });\n"
     "  }\n"
     "  return acc;\n"
     "}\n",
     nullptr},
    {"src/net/good_traversal_cold.cpp",
     "std::vector<graph::Vertex> snapshot(const graph::Graph& g, graph::Vertex v) {\n"
     "  return g.neighbors(v);\n"
     "}\n",
     nullptr},
    {"src/core/good_traversal_unscoped.cpp",
     "std::size_t scan(const graph::Graph& g, std::size_t n) {\n"
     "  std::size_t acc = 0;\n"
     "  for (graph::Vertex v = 0; v < n; ++v) {\n"
     "    acc += g.neighbors(v).size();\n"
     "  }\n"
     "  return acc;\n"
     "}\n",
     nullptr},

    // --- charge-coverage --------------------------------------------------
    {"src/core/bad_free_encode_round.cpp",
     "void run(net::Transcript& transcript) {\n"
     "  transcript.beginRound(\"M\");\n"
     "#if DIP_AUDIT\n"
     "  net::auditChargedRound(\"Bad/M\", transcript,\n"
     "                         [&] { return wire::encodeSymDmamFirst(first, n); });\n"
     "#endif\n"
     "}\n",
     "charge-coverage"},
    {"src/core/bad_blind_audit.cpp",
     "void run(net::Transcript& transcript) {\n"
     "  transcript.beginRound(\"M\");\n"
     "  transcript.chargeFromProver(0, 42);\n"
     "  net::auditCharge(\"Bad/M\", 0, transcript.roundBitsFromProver(0), 42);\n"
     "}\n",
     "charge-coverage"},

    // --- determinism-escape -----------------------------------------------
    {"src/core/bad_unordered_iter.cpp",
     "#include <unordered_map>\n"
     "std::size_t foldCounts(const std::vector<int>& xs) {\n"
     "  std::unordered_map<int, int> counts;\n"
     "  for (int x : xs) counts[x]++;\n"
     "  std::size_t digest = 0;\n"
     "  for (const auto& entry : counts) digest = digest * 31 + entry.second;\n"
     "  return digest;\n"
     "}\n",
     "determinism-escape"},
    {"src/sim/bad_float_fold.cpp",
     "struct PartStats { double meanBits = 0.0; };\n"
     "void fold(PartStats& acc, const PartStats& part) {\n"
     "  acc.meanBits += part.meanBits;\n"
     "}\n",
     "determinism-escape"},
    {"src/graph/good_unordered_membership.cpp",
     "#include <string>\n"
     "#include <unordered_set>\n"
     "bool seenBefore(std::unordered_set<std::string>& seen, const std::string& key) {\n"
     "  return !seen.insert(key).second;\n"
     "}\n",
     nullptr},

    // --- locality: brace-matched analysis ---------------------------------
    {"src/core/bad_graph_escape.cpp",
     "bool Proto::nodeDecision(const graph::Graph& g, graph::Vertex v,\n"
     "                         const Msg& msg) const {\n"
     "  return helpers::globalTriangleCount(g, msg) > 0;\n"
     "}\n",
     "locality"},
    {"src/core/good_local_decision.cpp",
     "bool Proto::nodeDecision(const graph::Graph& g, graph::Vertex v,\n"
     "                         const Msg& msg) const {\n"
     "  if (!net::verifyTreeLocally(g, tree, v)) return false;\n"
     "  bool ok = g.hasEdge(v, msg.parent[v]);\n"
     "  g.row(v).forEachSet([&](std::size_t u) {\n"
     "    if (msg.claims[u] != msg.claims[v]) ok = false;\n"
     "  });\n"
     "  for (graph::Vertex child : net::childrenOf(g, tree, v)) {\n"
     "    if (msg.claims[child] > bound) ok = false;\n"
     "  }\n"
     "  return ok;\n"
     "}\n",
     nullptr},

    // --- suppression-hygiene ----------------------------------------------
    {"src/core/bad_dead_allow.cpp",
     "// dip-lint: allow(nondeterminism) -- nothing here actually fires\n"
     "int constantPick() { return 4; }\n",
     "suppression-hygiene"},
    {"src/core/bad_reasonless_allow.cpp",
     "void merge(net::Transcript& transcript) {\n"
     "  // dip-lint: allow(charge-audit)\n"
     "  transcript.chargeToProver(0, 7);\n"
     "}\n",
     "suppression-hygiene"},

    // --- regex false-positive regressions: must stay clean ----------------
    {"src/core/good_commented_patterns.cpp",
     "/* In a block comment none of this is code:\n"
     "   std::cout << \"x\"; rand(); wire::encodeFoo(y);\n"
     "   transcript.chargeToProver(v, 1); std::thread t; */\n"
     "// std::random_device also_not_code;\n"
     "static const char* kDoc = \"std::thread is banned; rand() too\";\n"
     "static const char* kRaw = R\"doc(srand(1);\n"
     "#include <iostream>\n"
     "std::cout << time(NULL);)doc\";\n"
     "int f() { return 1; }\n",
     nullptr},
    {"src/core/good_spliced_comment.cpp",
     "// a line comment continued by a splice \\\n"
     "   rand(); std::cout << 1; srand(2);\n"
     "int g() { return 2; }\n",
     nullptr},
};

}  // namespace

int runSelfTest() {
  std::vector<std::pair<std::string, std::string>> files;
  for (const SeededCase& seeded : kCases) {
    files.emplace_back(seeded.path, seeded.content);
  }
  AnalysisReport report = analyzeInMemory(files);

  std::map<std::string, std::set<std::string>> byFile;
  for (const Finding& finding : report.findings) {
    byFile[finding.path].insert(finding.rule);
  }

  std::vector<std::string> failures;
  for (const SeededCase& seeded : kCases) {
    const std::set<std::string>& caught = byFile[seeded.path];
    if (seeded.expectRule == nullptr) {
      if (!caught.empty()) {
        std::string rules;
        for (const std::string& rule : caught) rules += " " + rule;
        failures.push_back(std::string(seeded.path) + ": expected clean, got" + rules);
      }
    } else if (caught.count(seeded.expectRule) == 0) {
      failures.push_back(std::string(seeded.path) + ": expected [" +
                         seeded.expectRule + "] to fire");
    }
  }

  // Every rule in the registry must be covered by at least one firing case.
  std::set<std::string> firingRules;
  for (const SeededCase& seeded : kCases) {
    if (seeded.expectRule != nullptr) firingRules.insert(seeded.expectRule);
  }
  for (const RuleDescriptor& rule : ruleRegistry()) {
    if (firingRules.count(rule.name) == 0) {
      failures.push_back("rule [" + rule.name + "] has no seeded firing case");
    }
  }

  if (!failures.empty()) {
    std::printf("dip-analyze self-test FAILED:\n");
    for (const std::string& failure : failures) {
      std::printf("  %s\n", failure.c_str());
    }
    return 1;
  }
  std::printf("dip-analyze self-test OK (%zu seeded cases, %zu rules)\n",
              std::size(kCases), ruleRegistry().size());
  return 0;
}

}  // namespace dip::analyze
