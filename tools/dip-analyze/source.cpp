#include "source.hpp"

#include <cctype>

namespace dip::analyze {

namespace {

bool isRuleChar(char c) {
  return std::islower(static_cast<unsigned char>(c)) || c == '-';
}

// Parses every `dip-lint: allow(<rule>)` / `dip-analyze: allow(<rule>)`
// annotation out of one comment. A single comment may carry several.
void parseAnnotations(const Comment& comment, std::vector<Suppression>& out) {
  const std::string& text = comment.text;
  std::size_t pos = 0;
  while (true) {
    std::size_t tag = text.find("allow(", pos);
    if (tag == std::string::npos) return;
    // Require a "dip-lint:" or "dip-analyze:" marker before the allow().
    std::size_t lintTag = text.rfind("dip-lint:", tag);
    std::size_t analyzeTag = text.rfind("dip-analyze:", tag);
    if (lintTag == std::string::npos && analyzeTag == std::string::npos) {
      pos = tag + 6;
      continue;
    }
    std::size_t ruleStart = tag + 6;
    std::size_t ruleEnd = ruleStart;
    while (ruleEnd < text.size() && isRuleChar(text[ruleEnd])) ++ruleEnd;
    if (ruleEnd == ruleStart || ruleEnd >= text.size() || text[ruleEnd] != ')') {
      pos = tag + 6;
      continue;
    }
    Suppression suppression;
    suppression.rule = text.substr(ruleStart, ruleEnd - ruleStart);
    suppression.line = comment.line;
    // A reason is the conventional ` -- <why>` tail with non-space content.
    std::size_t dashes = text.find("--", ruleEnd);
    if (dashes != std::string::npos) {
      std::size_t why = dashes + 2;
      while (why < text.size() && std::isspace(static_cast<unsigned char>(text[why]))) {
        ++why;
      }
      suppression.hasReason = why < text.size();
    }
    out.push_back(std::move(suppression));
    pos = ruleEnd;
  }
}

}  // namespace

bool SourceFile::consumeSuppression(std::string_view rule, int line) {
  bool found = false;
  for (Suppression& suppression : suppressions) {
    if (suppression.rule == rule && suppression.line <= line &&
        line <= suppression.line + kSuppressionWindow) {
      suppression.used = true;
      found = true;  // Keep scanning: mark every covering annotation used.
    }
  }
  return found;
}

SourceFile makeSourceFile(std::string path, std::string_view content) {
  SourceFile file;
  file.path = std::move(path);
  file.lexed = lex(content);
  std::size_t lineStart = 0;
  for (std::size_t i = 0; i <= content.size(); ++i) {
    if (i == content.size() || content[i] == '\n') {
      std::string_view line = content.substr(lineStart, i - lineStart);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      file.lines.emplace_back(line);
      lineStart = i + 1;
    }
  }
  for (const Comment& comment : file.lexed.comments) {
    parseAnnotations(comment, file.suppressions);
  }
  return file;
}

std::string_view baseName(std::string_view path) {
  std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

bool isVerifierPath(std::string_view path) {
  return path.starts_with("src/core/") || path.starts_with("src/pls/") ||
         path.starts_with("src/lb/");
}

bool isWireModule(std::string_view path) {
  return baseName(path).find("wire") != std::string_view::npos;
}

bool isTranscriptImpl(std::string_view path) {
  if (!path.starts_with("src/net/")) return false;
  std::string_view base = baseName(path);
  return base.find("transcript") != std::string_view::npos ||
         base.find("audit") != std::string_view::npos;
}

bool isSimPath(std::string_view path) { return path.starts_with("src/sim/"); }

bool isHotPath(std::string_view path) {
  return path.starts_with("src/hash/") || path == "src/util/montgomery.cpp";
}

bool isTranscriptEncodePath(std::string_view path) {
  // The mutators edit encoded payloads in place once per mutated round.
  if (path == "src/util/bitio.cpp" || path == "src/adv/mutator.cpp") return true;
  if (isTranscriptImpl(path)) return true;
  return path.starts_with("src/core/") && isWireModule(path);
}

bool isTraversalPath(std::string_view path) {
  return path.starts_with("src/net/") || path.starts_with("src/lb/");
}

bool isAdvPath(std::string_view path) { return path.starts_with("src/adv/"); }

}  // namespace dip::analyze
