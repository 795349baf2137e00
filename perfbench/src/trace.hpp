// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// dip libraries (prover decorators, the wrapped trial body, the runner and
// fold calls), never from inside src/. A traced pass runs on one thread, so
// spans nest strictly and a stack gives each span its parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dip::perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::uint64_t kNoTrial = ~std::uint64_t{0};

  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;  // Index into spans(), -1 for a root.
    std::uint64_t trial;  // Trial id, kNoTrial outside a trial.
  };

  std::int32_t open(const char* name);
  void close(std::int32_t id);
  // Spans opened between beginTrial and endTrial carry the next trial id.
  void beginTrial() { trial_ = trials_++; }
  void endTrial() { trial_ = kNoTrial; }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time (duration minus the part covered by child spans) summed per
  // span name, over spans [from, spans().size()).
  std::map<std::string, std::int64_t> selfTimesNs(std::size_t from = 0) const;

  // Drops spans [from, end) once their self times are taken; the spans
  // kept are the ones write() puts out.
  void discardFrom(std::size_t from) { spans_.resize(from); }

  // Writes the kept spans outside trials and those of the first maxTrials
  // trials, one JSON object per line.
  bool write(const std::string& path, std::uint64_t maxTrials) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t trial_ = kNoTrial;
  std::uint64_t trials_ = 0;
};

// RAII span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace dip::perfbench
