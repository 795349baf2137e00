#include "rule.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "model.hpp"

namespace dip::analyze {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers

void emit(SourceFile& file, std::vector<Finding>& findings, const char* rule,
          int line, int col, std::string message) {
  if (file.consumeSuppression(rule, line)) return;
  Finding finding;
  finding.rule = rule;
  finding.path = file.path;
  finding.line = line;
  finding.col = col;
  finding.message = std::move(message);
  findings.push_back(std::move(finding));
}

void emitAt(SourceFile& file, std::vector<Finding>& findings, const char* rule,
            const Token& token, std::string message) {
  emit(file, findings, rule, token.line, token.col, std::move(message));
}

bool isChargeCall(const CallSite& call) {
  return call.isMember && call.name.starts_with("charge");
}

bool isAuditCall(const CallSite& call) {
  return call.name == "auditCharge" || call.name == "auditChargedRound";
}

bool isWireEncodeCall(const CallSite& call) {
  return call.name.starts_with("encode") &&
         (call.qualified.starts_with("wire::") ||
          call.qualified.find("::wire::") != std::string::npos);
}

// ---------------------------------------------------------------------------
// charge-audit: every Transcript::charge* must be cross-checked by
// auditCharge/auditChargedRound before the next beginRound.

void ruleChargeAudit(SourceFile& file, const std::vector<CallSite>& calls,
                     std::vector<Finding>& findings) {
  if (isTranscriptImpl(file.path)) return;
  const std::vector<Token>& tokens = file.tokens();
  std::vector<std::size_t> pending;  // nameIndex of unaudited charges.
  auto flush = [&] {
    for (std::size_t index : pending) {
      emitAt(file, findings, "charge-audit", tokens[index],
             "Transcript charge with no auditCharge/auditChargedRound "
             "cross-check before the next round");
    }
    pending.clear();
  };
  for (const CallSite& call : calls) {
    if (call.isMember && call.name == "beginRound") flush();
    if (isAuditCall(call)) pending.clear();
    if (isChargeCall(call)) pending.push_back(call.nameIndex);
  }
  flush();
}

// ---------------------------------------------------------------------------
// uncharged-wire: wire::encode* outside wire modules and outside
// #if DIP_AUDIT regions is communication nobody charged.

void ruleUnchargedWire(SourceFile& file, const std::vector<CallSite>& calls,
                       std::vector<Finding>& findings) {
  if (isWireModule(file.path)) return;
  const std::vector<Token>& tokens = file.tokens();
  for (const CallSite& call : calls) {
    if (!isWireEncodeCall(call)) continue;
    if (tokens[call.nameIndex].inAudit) continue;
    emitAt(file, findings, "uncharged-wire", tokens[call.nameIndex],
           "wire encoding outside #if DIP_AUDIT: who charged these bits?");
  }
}

// ---------------------------------------------------------------------------
// nondeterminism: verifier modules may draw randomness only from the
// seeded util::Rng.

void ruleNondeterminism(SourceFile& file, const std::vector<CallSite>& calls,
                        std::vector<Finding>& findings) {
  if (!isVerifierPath(file.path)) return;
  const std::vector<Token>& tokens = file.tokens();
  for (const CallSite& call : calls) {
    if (call.name == "rand" || call.name == "srand") {
      emitAt(file, findings, "nondeterminism", tokens[call.nameIndex],
             call.name + "() is banned in verifier code");
    } else if (call.name == "time") {
      auto args = splitArgs(tokens, call);
      bool nullish = args.empty();
      if (args.size() == 1) {
        std::size_t width = args[0].second - args[0].first;
        if (width == 0) nullish = true;
        if (width == 1) {
          const Token& arg = tokens[args[0].first];
          nullish = arg.isIdent("NULL") || arg.isIdent("nullptr") ||
                    arg.is(TokenKind::kNumber, "0");
        }
      }
      if (nullish) {
        emitAt(file, findings, "nondeterminism", tokens[call.nameIndex],
               "wall-clock time must not feed verifier randomness");
      }
    } else if (call.name == "now") {
      static constexpr std::array<std::string_view, 3> kClocks = {
          "system_clock", "steady_clock", "high_resolution_clock"};
      for (std::string_view clock : kClocks) {
        if (call.qualified.find(clock) != std::string::npos) {
          emitAt(file, findings, "nondeterminism", tokens[call.nameIndex],
                 "clock reads are banned in verifier code");
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].isIdent("std") && tokens[i + 1].isPunct("::") &&
        tokens[i + 2].isIdent("random_device")) {
      emitAt(file, findings, "nondeterminism", tokens[i + 2],
             "std::random_device is nondeterministic");
    }
  }
}

// ---------------------------------------------------------------------------
// library-io: src/ stays silent; reporting belongs to examples/bench/tests.

void ruleLibraryIo(SourceFile& file, const std::vector<CallSite>& calls,
                   std::vector<Finding>& findings) {
  const std::vector<Token>& tokens = file.tokens();
  for (const Token& token : tokens) {
    if (token.kind != TokenKind::kDirective) continue;
    if (token.text.find("include") == std::string::npos) continue;
    if (token.text.find("<iostream>") != std::string::npos) {
      emitAt(file, findings, "library-io", token,
             "library code must not include <iostream>");
    } else if (token.text.find("<cstdio>") != std::string::npos ||
               token.text.find("<stdio.h>") != std::string::npos) {
      emitAt(file, findings, "library-io", token,
             "library code must not include stdio");
    }
  }
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].isIdent("std") && tokens[i + 1].isPunct("::") &&
        (tokens[i + 2].isIdent("cout") || tokens[i + 2].isIdent("cerr") ||
         tokens[i + 2].isIdent("clog"))) {
      emitAt(file, findings, "library-io", tokens[i + 2],
             "library code must not write to std streams");
    }
  }
  for (const CallSite& call : calls) {
    if (call.name == "printf" || call.name == "fprintf" || call.name == "puts" ||
        call.name == "fputs") {
      emitAt(file, findings, "library-io", tokens[call.nameIndex],
             "library code must not printf");
    }
  }
}

// ---------------------------------------------------------------------------
// thread-containment: raw threading lives only in the src/sim trial engine.

void ruleThreadContainment(SourceFile& file, std::vector<Finding>& findings) {
  if (isSimPath(file.path)) return;
  const std::vector<Token>& tokens = file.tokens();
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].isIdent("std") && tokens[i + 1].isPunct("::") &&
        (tokens[i + 2].isIdent("thread") || tokens[i + 2].isIdent("jthread") ||
         tokens[i + 2].isIdent("this_thread"))) {
      emitAt(file, findings, "thread-containment", tokens[i + 2],
             "raw std::thread/std::this_thread outside src/sim: thread "
             "management belongs to the trial engine");
    }
  }
}

// ---------------------------------------------------------------------------
// hot-loop-alloc: no per-iteration allocation on the hash/Montgomery hot
// path or the transcript-encode path (the core wire modules, bitio, the
// net audit layer and the adv payload mutators — under DIP_AUDIT, and in
// every mutated trial, these run once per protocol round inside the trial
// loop, and the audit re-encodings are arena-backed precisely so the rounds
// stay allocation-free). Three shapes are flagged inside loop
// bodies: BigUInt construction (one heap block per iteration), raw operator
// new, and container growth (push_back/emplace_back) on a receiver that was
// never reserve()d earlier in the file -- geometric regrowth reallocates
// mid-loop.
//
// A fourth shape guards the traversal paths (src/net, src/lb) specifically:
// `g.neighbors(v)` / `g.closedNeighbors(v)` inside a loop body materializes
// a fresh vector per visited vertex, which is exactly the allocation the
// streaming `forEachNeighbor` visitors exist to avoid — spanning-tree
// construction and the lower-bound baselines run these loops once per node
// per trial. Only the traversal shape applies there; the three allocation
// shapes above stay scoped to the hash/encode paths so cold src/net setup
// code is not spuriously flagged.

void ruleHotLoopAlloc(SourceFile& file, std::vector<Finding>& findings) {
  const bool allocScoped = isHotPath(file.path) || isTranscriptEncodePath(file.path);
  const bool traversalScoped = isTraversalPath(file.path);
  if (!allocScoped && !traversalScoped) return;
  const std::vector<Token>& tokens = file.tokens();
  auto bodies = loopBodies(tokens);
  auto inLoop = [&](std::size_t index) {
    for (auto [begin, end] : bodies) {
      if (begin <= index && index < end) return true;
    }
    return false;
  };
  if (traversalScoped) {
    for (std::size_t i = 2; i + 1 < tokens.size(); ++i) {
      if (!(tokens[i].isIdent("neighbors") || tokens[i].isIdent("closedNeighbors"))) {
        continue;
      }
      if (!tokens[i + 1].isPunct("(")) continue;
      if (!(tokens[i - 1].isPunct(".") || tokens[i - 1].isPunct("->"))) continue;
      if (!inLoop(i)) continue;
      emitAt(file, findings, "hot-loop-alloc",
             tokens[i],
             tokens[i].text + "() inside a traversal loop: materializes a "
             "neighbor vector per visited vertex -- use the streaming "
             "forEachNeighbor/forEachClosedNeighbor visitors instead");
    }
  }
  if (!allocScoped) return;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!tokens[i].isIdent("BigUInt")) continue;
    if (tokens[i + 1].kind != TokenKind::kIdentifier) continue;
    const Token& after = tokens[i + 2];
    if (!(after.isPunct(";") || after.isPunct("=") || after.isPunct("{") ||
          after.isPunct("("))) {
      continue;
    }
    if (!inLoop(i)) continue;
    emitAt(file, findings, "hot-loop-alloc", tokens[i],
           "BigUInt declared inside a loop body on the hash hot path: "
           "one heap allocation per iteration -- hoist and reuse");
  }

  // Raw operator new (including new[] and placement-syntax spellings): the
  // hot path allocates from the caller's Scratch/Arena, never per iteration.
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!tokens[i].isIdent("new")) continue;
    if (!inLoop(i)) continue;
    emitAt(file, findings, "hot-loop-alloc", tokens[i],
           "operator new inside a loop body on the hash hot path: "
           "allocate from the caller's arena/scratch or hoist the buffer");
  }

  // Container growth without a prior capacity reservation. The check is
  // whole-file-ordered, not scope-exact: any earlier `recv.reserve(...)`
  // clears `recv.push_back(...)` -- cheap, and the hot-path idiom is
  // reserve-immediately-before-loop anyway.
  auto isGrowthName = [](const Token& token) {
    return token.isIdent("push_back") || token.isIdent("emplace_back");
  };
  auto memberOn = [&](std::size_t nameIndex) -> const Token* {
    if (nameIndex < 2) return nullptr;
    if (!(tokens[nameIndex - 1].isPunct(".") || tokens[nameIndex - 1].isPunct("->")))
      return nullptr;
    if (tokens[nameIndex - 2].kind != TokenKind::kIdentifier) return nullptr;
    return &tokens[nameIndex - 2];
  };
  for (std::size_t i = 2; i + 1 < tokens.size(); ++i) {
    if (!isGrowthName(tokens[i]) || !tokens[i + 1].isPunct("(")) continue;
    const Token* receiver = memberOn(i);
    if (receiver == nullptr) continue;
    if (!inLoop(i)) continue;
    bool reserved = false;
    for (std::size_t j = 2; j < i && !reserved; ++j) {
      if (tokens[j].isIdent("reserve") && tokens[j + 1].isPunct("(")) {
        const Token* reservedOn = memberOn(j);
        reserved = reservedOn != nullptr && reservedOn->text == receiver->text;
      }
    }
    if (reserved) continue;
    emitAt(file, findings, "hot-loop-alloc", tokens[i],
           tokens[i].text + " on '" + receiver->text +
               "' inside a hash hot-path loop with no prior reserve: "
               "geometric regrowth reallocates mid-loop -- reserve the "
               "capacity before entering");
  }
}

// ---------------------------------------------------------------------------
// locality (brace-matched): nodeDecision bodies may read the graph only
// through the own vertex's row/closedRow/hasEdge, may not leak the graph
// into helpers that do not also receive the own vertex, and never read the
// honest provers' prepared instance (core/prepared.hpp): prover-derived
// state is not a verifier input. The fingerprint-chain frame's shared
// decision checks (core/sym_frame.hpp) run inside the Sym and GNI
// nodeDecisions, so their bodies are held to the same rule.

constexpr std::string_view kNodeLocalFunctions[] = {
    "nodeDecision", "neighboursAgree", "chainLinksHold", "rowChainLinksHold"};

bool isPreparedAccessor(const Token& token) {
  return token.isIdent("preparedSym") || token.isIdent("buildPreparedSym") ||
         token.isIdent("PreparedSym");
}

void ruleLocality(SourceFile& file, const std::vector<CallSite>& calls,
                  std::vector<Finding>& findings) {
  const std::vector<Token>& tokens = file.tokens();
  std::vector<FunctionDef> defs;
  for (std::string_view function : kNodeLocalFunctions) {
    for (FunctionDef& def : findFunctionDefs(tokens, function)) defs.push_back(std::move(def));
  }
  for (const FunctionDef& def : defs) {
    const std::string& name = tokens[def.nameIndex].text;
    const std::string vertex =
        def.vertexParams.empty() ? std::string("v") : def.vertexParams.front();

    // Whole-graph loops: a classic for whose condition bounds an index by
    // n or numVertices(). Range-fors (single top-level ':') are exempt --
    // iterating children/neighbors is the model.
    for (std::size_t i = def.bodyOpen; i < def.bodyClose; ++i) {
      if (!tokens[i].isIdent("for") || !tokens[i + 1].isPunct("(")) continue;
      std::size_t head = matchingClose(tokens, i + 1);
      if (head == kNpos) continue;
      // Find the condition: between the first and second top-level ';'.
      std::vector<std::size_t> semis;
      int depth = 0;
      for (std::size_t j = i + 2; j < head; ++j) {
        if (tokens[j].kind != TokenKind::kPunct) continue;
        if (tokens[j].text == "(" || tokens[j].text == "[" || tokens[j].text == "{") {
          ++depth;
        } else if (tokens[j].text == ")" || tokens[j].text == "]" ||
                   tokens[j].text == "}") {
          --depth;
        } else if (tokens[j].text == ";" && depth == 0) {
          semis.push_back(j);
        }
      }
      if (semis.size() < 2) continue;
      bool comparesAll = false;
      for (std::size_t j = semis[0] + 1; j < semis[1]; ++j) {
        if (!tokens[j].isPunct("<") && !tokens[j].isPunct("<=")) continue;
        for (std::size_t k = j + 1; k < semis[1]; ++k) {
          if (tokens[k].isIdent("n") || tokens[k].isIdent("numVertices")) {
            comparesAll = true;
          }
        }
      }
      if (comparesAll) {
        emitAt(file, findings, "locality", tokens[i],
               "whole-graph loop in " + name + ": verifiers see only N(v)");
      }
    }

    for (std::size_t i = def.bodyOpen; i < def.bodyClose; ++i) {
      if (isPreparedAccessor(tokens[i])) {
        emitAt(file, findings, "locality", tokens[i],
               tokens[i].text + " in " + name + ": the verifier never reads the "
               "honest prover's prepared instance");
      }
    }

    for (const CallSite& call : calls) {
      if (call.nameIndex <= def.bodyOpen || call.nameIndex >= def.bodyClose) continue;

      // Own-row reads: row/closedRow/hasEdge must take the own vertex.
      if (call.isMember && (call.name == "row" || call.name == "closedRow" ||
                            call.name == "hasEdge")) {
        auto args = splitArgs(tokens, call);
        bool ownVertex = !args.empty() &&
                         args[0].second - args[0].first == 1 &&
                         tokens[args[0].first].isIdent(vertex);
        if (!ownVertex) {
          std::string arg;
          if (!args.empty()) {
            for (std::size_t j = args[0].first; j < args[0].second; ++j) {
              if (!arg.empty()) arg += ' ';
              arg += tokens[j].text;
            }
          }
          emitAt(file, findings, "locality", tokens[call.nameIndex],
                 call.name + "(" + arg + ") in " + name + ": only the own "
                 "vertex's row may be read");
        }
        continue;
      }

      // Graph escape: passing the graph/instance to a helper that does not
      // also receive the own vertex hands it a non-local view. The receiver
      // chain counts: row(v).forEachSet(visitor) pins the visitor to N(v).
      if (def.graphLikeParams.empty()) continue;
      auto args = splitArgs(tokens, call);
      if (args.empty()) continue;
      bool passesGraph = false;
      bool passesVertex = false;
      for (auto [begin, end] : args) {
        for (const std::string& graphParam : def.graphLikeParams) {
          if (rangeHasIdent(tokens, begin, end, graphParam)) passesGraph = true;
        }
        if (rangeHasIdent(tokens, begin, end, vertex)) passesVertex = true;
      }
      if (call.isMember) {
        std::size_t chain = receiverChainStart(tokens, call.nameIndex);
        if (rangeHasIdent(tokens, chain, call.nameIndex, vertex)) {
          passesVertex = true;
        }
      }
      if (passesGraph && !passesVertex) {
        emitAt(file, findings, "locality", tokens[call.nameIndex],
               "graph escapes " + name + " into " + call.qualified +
               "(...) without the own vertex: helpers must compute local "
               "views only");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// charge-coverage: per round (beginRound .. next beginRound), wire
// encodings and transcript charges must back each other: a round that
// re-encodes messages but charges nothing is unaccounted communication,
// and an audit whose arguments never touch a codec (encode*/bitCount()/
// bitsForNode()) cross-checks the charges against nothing.

void ruleChargeCoverage(SourceFile& file, const std::vector<CallSite>& calls,
                        std::vector<Finding>& findings) {
  if (!isVerifierPath(file.path)) return;
  const std::vector<Token>& tokens = file.tokens();
  bool hasRound = false;
  for (const CallSite& call : calls) {
    if (call.isMember && call.name == "beginRound") hasRound = true;
  }
  if (!hasRound) return;  // Not a protocol round driver (e.g. merge helpers).

  struct Span {
    std::size_t chargeCount = 0;
    const CallSite* firstEncode = nullptr;
    std::vector<const CallSite*> audits;
  };
  std::vector<Span> spans(1);
  for (const CallSite& call : calls) {
    if (call.isMember && call.name == "beginRound") {
      spans.emplace_back();
      continue;
    }
    Span& span = spans.back();
    if (isChargeCall(call)) ++span.chargeCount;
    if (isWireEncodeCall(call) && span.firstEncode == nullptr) {
      span.firstEncode = &call;
    }
    if (isAuditCall(call)) span.audits.push_back(&call);
  }

  for (const Span& span : spans) {
    if (span.firstEncode != nullptr && span.chargeCount == 0) {
      emitAt(file, findings, "charge-coverage",
             tokens[span.firstEncode->nameIndex],
             "round invokes " + span.firstEncode->qualified +
             "() but charges no bits to the transcript: encoded fields "
             "nobody paid for");
    }
    for (const CallSite* audit : span.audits) {
      if (audit->closeParen == kNpos) continue;
      bool codecBacked = false;
      for (std::size_t j = audit->openParen + 1; j < audit->closeParen; ++j) {
        if (tokens[j].kind != TokenKind::kIdentifier) continue;
        if (tokens[j].text.starts_with("encode") || tokens[j].text == "bitCount" ||
            tokens[j].text == "bitsForNode") {
          codecBacked = true;
          break;
        }
      }
      if (!codecBacked) {
        emitAt(file, findings, "charge-coverage", tokens[audit->nameIndex],
               audit->name + "() is not backed by a wire codec: its "
               "arguments reference no encode*/bitCount()/bitsForNode()");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// determinism-escape: (a) iterating an unordered container lets the hash
// map's bucket order -- implementation-defined and pointer-dependent --
// reach transcript digests, folds and printed tables; (b) floating-point
// accumulation in the trial-fold layer makes results depend on summation
// order.

void ruleDeterminismEscape(SourceFile& file, const std::vector<CallSite>& calls,
                           std::vector<Finding>& findings) {
  const std::vector<Token>& tokens = file.tokens();
  static constexpr std::array<std::string_view, 4> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  auto isUnorderedName = [](const Token& token) {
    if (token.kind != TokenKind::kIdentifier) return false;
    for (std::string_view name : kUnordered) {
      if (token.text == name) return true;
    }
    return false;
  };
  // Skip a template argument list starting at '<'; returns the index just
  // past the matching '>'. Handles '>>' closing two levels at once.
  auto skipTemplateArgs = [&](std::size_t i) {
    if (i >= tokens.size() || !tokens[i].isPunct("<")) return i;
    int depth = 0;
    for (std::size_t j = i; j < tokens.size(); ++j) {
      if (tokens[j].kind != TokenKind::kPunct) continue;
      if (tokens[j].text == "<") ++depth;
      if (tokens[j].text == ">") --depth;
      if (tokens[j].text == ">>") depth -= 2;
      if (depth <= 0) return j + 1;
    }
    return tokens.size();
  };

  std::set<std::string> unorderedVars;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!isUnorderedName(tokens[i])) continue;
    std::size_t after = skipTemplateArgs(i + 1);
    if (after >= tokens.size()) break;
    if (tokens[after].isPunct("::") && after + 1 < tokens.size() &&
        (tokens[after + 1].isIdent("iterator") ||
         tokens[after + 1].isIdent("const_iterator"))) {
      emitAt(file, findings, "determinism-escape", tokens[after + 1],
             "iterator over a std::" + tokens[i].text +
             ": bucket order is implementation-defined and can reach a "
             "digest, fold, or printed table");
      continue;
    }
    // Reference/pointer/const-qualified declarations still bind a name.
    while (after < tokens.size() &&
           (tokens[after].isPunct("&") || tokens[after].isPunct("*") ||
            tokens[after].isIdent("const"))) {
      ++after;
    }
    if (after < tokens.size() && tokens[after].kind == TokenKind::kIdentifier) {
      unorderedVars.insert(tokens[after].text);
    }
  }

  if (!unorderedVars.empty()) {
    // Range-for over a tracked container.
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (!tokens[i].isIdent("for") || !tokens[i + 1].isPunct("(")) continue;
      std::size_t head = matchingClose(tokens, i + 1);
      if (head == kNpos) continue;
      std::size_t colon = kNpos;
      int depth = 0;
      for (std::size_t j = i + 2; j < head; ++j) {
        if (tokens[j].kind != TokenKind::kPunct) continue;
        if (tokens[j].text == "(" || tokens[j].text == "[" || tokens[j].text == "{") {
          ++depth;
        } else if (tokens[j].text == ")" || tokens[j].text == "]" ||
                   tokens[j].text == "}") {
          --depth;
        } else if (tokens[j].text == ":" && depth == 0) {
          colon = j;
          break;
        }
      }
      if (colon == kNpos) continue;
      for (std::size_t j = colon + 1; j < head; ++j) {
        if (tokens[j].kind == TokenKind::kIdentifier &&
            unorderedVars.count(tokens[j].text) != 0) {
          emitAt(file, findings, "determinism-escape", tokens[j],
                 "range-for over unordered container '" + tokens[j].text +
                 "': iteration order is implementation-defined and can "
                 "reach a digest, fold, or printed table");
          break;
        }
      }
    }
    // Explicit iterator walks: container.begin()/cbegin()/...
    for (const CallSite& call : calls) {
      if (!call.isMember) continue;
      if (call.name != "begin" && call.name != "cbegin" && call.name != "end" &&
          call.name != "cend" && call.name != "rbegin" && call.name != "rend") {
        continue;
      }
      if (call.nameIndex < 2) continue;
      const Token& receiver = tokens[call.nameIndex - 2];
      if (receiver.kind == TokenKind::kIdentifier &&
          unorderedVars.count(receiver.text) != 0) {
        emitAt(file, findings, "determinism-escape", tokens[call.nameIndex],
               "iterating unordered container '" + receiver.text +
               "' via " + call.name + "(): bucket order is "
               "implementation-defined");
      }
    }
  }

  // (b) Float accumulation in the fold layer.
  if (isSimPath(file.path)) {
    std::set<std::string> floatVars;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (!tokens[i].isIdent("double") && !tokens[i].isIdent("float")) continue;
      if (tokens[i + 1].kind != TokenKind::kIdentifier) continue;
      const Token& after = tokens[i + 2];
      if (after.isPunct(";") || after.isPunct("=") || after.isPunct("{") ||
          after.isPunct(",") || after.isPunct(")")) {
        floatVars.insert(tokens[i + 1].text);
      }
    }
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind != TokenKind::kIdentifier) continue;
      if (floatVars.count(tokens[i].text) == 0) continue;
      if (tokens[i + 1].isPunct("+=") || tokens[i + 1].isPunct("-=")) {
        emitAt(file, findings, "determinism-escape", tokens[i],
               "floating-point accumulation of '" + tokens[i].text +
               "' in the trial-fold layer: summation order changes the "
               "result; fold integers, or keep wall-clock out of the "
               "determinism contract");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// mutator-selftest (cross-file): every MessageMutator subclass in src/adv
// must have a DIP_MUTATOR_SELF_TEST registration somewhere in src/adv.

void ruleMutatorSelftest(std::vector<SourceFile>& files,
                         std::vector<Finding>& findings) {
  struct Declaration {
    SourceFile* file;
    std::size_t tokenIndex;
    std::string className;
  };
  std::vector<Declaration> declarations;
  std::set<std::string> registered;
  for (SourceFile& file : files) {
    if (!isAdvPath(file.path)) continue;
    const std::vector<Token>& tokens = file.tokens();
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].isIdent("class") &&
          tokens[i + 1].kind == TokenKind::kIdentifier) {
        // Scan the base-clause up to the body brace (or a semicolon for a
        // forward declaration) for `: ... MessageMutator`.
        bool sawColon = false;
        bool subclass = false;
        for (std::size_t j = i + 2; j < tokens.size(); ++j) {
          if (tokens[j].isPunct("{") || tokens[j].isPunct(";")) break;
          if (tokens[j].isPunct(":")) sawColon = true;
          if (sawColon && tokens[j].isIdent("MessageMutator")) subclass = true;
        }
        if (subclass) {
          declarations.push_back({&file, i, tokens[i + 1].text});
        }
      }
      if (tokens[i].isIdent("DIP_MUTATOR_SELF_TEST") && tokens[i + 1].isPunct("(") &&
          i + 2 < tokens.size() && tokens[i + 2].kind == TokenKind::kIdentifier) {
        registered.insert(tokens[i + 2].text);
      }
    }
  }
  for (const Declaration& decl : declarations) {
    if (registered.count(decl.className) != 0) continue;
    const Token& token = decl.file->tokens()[decl.tokenIndex];
    emitAt(*decl.file, findings, "mutator-selftest", token,
           "MessageMutator subclass " + decl.className +
           " has no DIP_MUTATOR_SELF_TEST registration: nothing replays a "
           "seed proving this adversary is deterministic and non-vacuous");
  }
}

// ---------------------------------------------------------------------------
// suppression-hygiene: every allow() must carry a reason, name a real rule,
// and actually suppress something. Runs after all other rules.

void ruleSuppressionHygiene(std::vector<SourceFile>& files,
                            std::vector<Finding>& findings) {
  std::set<std::string> known;
  for (const RuleDescriptor& rule : ruleRegistry()) known.insert(rule.name);
  for (SourceFile& file : files) {
    // Phase 1: reasonless or unknown-rule annotations.
    for (const Suppression& suppression : file.suppressions) {
      if (known.count(suppression.rule) == 0) {
        emit(file, findings, "suppression-hygiene", suppression.line, 1,
             "allow(" + suppression.rule + ") names no known rule");
      } else if (!suppression.hasReason) {
        emit(file, findings, "suppression-hygiene", suppression.line, 1,
             "allow(" + suppression.rule + ") without a reason: write "
             "`-- <why>` (reviewed like NOLINT)");
      }
    }
    // Phase 2: dead annotations (checked after phase 1 so an annotation
    // consumed by a hygiene finding above counts as used).
    for (const Suppression& suppression : file.suppressions) {
      if (suppression.used || known.count(suppression.rule) == 0) continue;
      emit(file, findings, "suppression-hygiene", suppression.line, 1,
           "dead suppression: allow(" + suppression.rule + ") matched no "
           "finding in its window -- remove it, or move it next to the "
           "finding it should cover");
    }
  }
}

}  // namespace

const std::vector<RuleDescriptor>& ruleRegistry() {
  static const std::vector<RuleDescriptor> kRules = {
      {"charge-audit",
       "Every Transcript::charge* call is cross-checked by "
       "auditCharge/auditChargedRound before the next beginRound"},
      {"uncharged-wire",
       "wire::encode* appears only in wire modules or under #if DIP_AUDIT"},
      {"nondeterminism",
       "Verifier modules use no rand()/srand(), std::random_device, "
       "time() or clock reads: verdicts are functions of (instance, "
       "messages, seeded Rng) only"},
      {"library-io",
       "Library code under src/ never writes to stdout/stderr"},
      {"locality",
       "nodeDecision bodies read only the own vertex's "
       "row/closedRow/hasEdge and N(v) messages; no whole-graph loops, no "
       "graph escapes into non-local helpers"},
      {"thread-containment",
       "Raw threading (std::thread/jthread/this_thread) appears only in "
       "the src/sim trial engine"},
      {"hot-loop-alloc",
       "No per-iteration allocation in loops on the hash/Montgomery hot "
       "path: BigUInt construction, operator new, or push_back/"
       "emplace_back growth without a prior reserve"},
      {"mutator-selftest",
       "Every MessageMutator subclass in src/adv carries a "
       "DIP_MUTATOR_SELF_TEST registration"},
      {"charge-coverage",
       "Per protocol round, wire encodings and transcript charges back "
       "each other: no encoded-but-uncharged rounds, no audits that "
       "reference no codec"},
      {"determinism-escape",
       "No iteration over std::unordered_map/set (bucket order can reach "
       "digests/folds/tables) and no floating-point accumulation in the "
       "trial-fold layer"},
      {"suppression-hygiene",
       "allow() annotations name real rules, carry reasons, and suppress "
       "an actual finding"},
  };
  return kRules;
}

void runFileRules(SourceFile& file, std::vector<Finding>& findings) {
  const std::vector<CallSite> calls = findCalls(file.tokens());
  ruleChargeAudit(file, calls, findings);
  ruleUnchargedWire(file, calls, findings);
  ruleNondeterminism(file, calls, findings);
  ruleLibraryIo(file, calls, findings);
  ruleThreadContainment(file, findings);
  ruleHotLoopAlloc(file, findings);
  ruleLocality(file, calls, findings);
  ruleChargeCoverage(file, calls, findings);
  ruleDeterminismEscape(file, calls, findings);
}

void runTreeRules(std::vector<SourceFile>& files, std::vector<Finding>& findings) {
  ruleMutatorSelftest(files, findings);
  ruleSuppressionHygiene(files, findings);
}

}  // namespace dip::analyze
