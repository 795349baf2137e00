// Per-file model: token stream plus the suppression annotations parsed out
// of comments. The suppression syntax is unchanged from the regex linter:
//
//   // dip-lint: allow(<rule>) -- <reason>
//
// (`dip-analyze:` is accepted as a synonym.) An annotation covers findings
// on its own line and the six lines below it, same window as before. The
// engine additionally records whether each annotation was ever *used* and
// whether it carries a reason -- the suppression-hygiene rule reports
// reasonless and dead annotations, which the regex linter could not know.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace dip::analyze {

// How many lines below the annotation line a suppression still covers.
inline constexpr int kSuppressionWindow = 6;

struct Suppression {
  std::string rule;
  int line = 1;  // Line of the comment carrying the annotation.
  bool hasReason = false;
  bool used = false;
};

struct SourceFile {
  std::string path;  // Repo-relative with forward slashes, e.g. "src/core/wire.cpp".
  LexedFile lexed;
  std::vector<std::string> lines;  // Raw physical lines (baseline fingerprints).
  std::vector<Suppression> suppressions;

  // True if an allow(<rule>) annotation covers `line`; marks it used.
  bool consumeSuppression(std::string_view rule, int line);

  const std::vector<Token>& tokens() const { return lexed.tokens; }
};

// Lexes `content` and extracts suppression annotations.
SourceFile makeSourceFile(std::string path, std::string_view content);

// Path classification shared by the rules.
bool isVerifierPath(std::string_view path);   // src/core, src/pls, src/lb
bool isWireModule(std::string_view path);     // basename contains "wire"
bool isTranscriptImpl(std::string_view path); // src/net transcript/audit impl
bool isSimPath(std::string_view path);        // src/sim
bool isHotPath(std::string_view path);        // src/hash + montgomery kernel
bool isTranscriptEncodePath(std::string_view path);  // core wire + bitio + net audit + adv mutator
bool isTraversalPath(std::string_view path);  // src/net + src/lb neighborhood loops
bool isAdvPath(std::string_view path);        // src/adv
std::string_view baseName(std::string_view path);

}  // namespace dip::analyze
