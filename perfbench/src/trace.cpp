#include "trace.hpp"

#include <cstdio>

namespace dip::perfbench {

std::int32_t Tracer::open(const char* name) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, nowNs(), 0, parent, trial_});
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end = nowNs();
  stack_.pop_back();
}

std::map<std::string, std::int64_t> Tracer::selfTimesNs(std::size_t from) const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0) childNs[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - childNs[i];
  }
  return self;
}

bool Tracer::write(const std::string& path, std::uint64_t maxTrials) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    if (span.trial != kNoTrial && span.trial >= maxTrials) continue;
    std::fprintf(out, "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d",
                 span.name, static_cast<long long>(span.start),
                 static_cast<long long>(span.end), span.parent);
    if (span.trial != kNoTrial) {
      std::fprintf(out, ",\"trial\":%llu", static_cast<unsigned long long>(span.trial));
    }
    std::fprintf(out, "}\n");
  }
  return std::fclose(out) == 0;
}

}  // namespace dip::perfbench
