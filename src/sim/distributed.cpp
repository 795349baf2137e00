#include "sim/distributed.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "rpc/channel.hpp"
#include "rpc/frame.hpp"
#include "sim/bounded_queue.hpp"
#include "sim/shard.hpp"
#include "sim/workload.hpp"

namespace dip::sim {

namespace {

using Clock = std::chrono::steady_clock;

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// ---- Coordinator -----------------------------------------------------------

struct DistributedRunner::Impl {
  struct Worker {
    std::uint64_t id;
    pid_t pid;
    rpc::FrameChannel channel;
    bool alive = true;
    bool ready = false;    // HELLO handshake done.
    bool suspect = false;  // Missed a heartbeat deadline; ranges re-issued.
    bool retired = false;
    bool reaped = false;
    bool deadlineValid = false;
    Clock::time_point deadline{};

    Worker(std::uint64_t id_, pid_t pid_, rpc::FrameChannel channel_)
        : id(id_), pid(pid_), channel(std::move(channel_)) {}
  };

  TrialConfig base;
  DistributedConfig dist;
  std::vector<std::unique_ptr<Worker>> workers;
  std::uint64_t epoch = 0;  // Bumped per runCell; stale PARTIALs never fold.
  std::uint64_t lastReissues = 0;
  std::uint64_t lastDuplicates = 0;
  bool started = false;
  bool shutdownDone = false;

  Impl(TrialConfig base_, DistributedConfig dist_)
      : base(base_), dist(dist_) {
    if (dist.workers == 0) dist.workers = 1;
  }

  unsigned liveCount() const {
    unsigned live = 0;
    for (const auto& w : workers) {
      if (w->alive) ++live;
    }
    return live;
  }

  // Forks the fleet, lazily on the first run. Earlier in-process runs may
  // have left engine pool helpers parked in this process; that is safe:
  // the pool's fork handlers hold its batch lock across fork(), so no batch
  // is mid-flight, and each child starts from an empty pool that grows its
  // own helpers (sim/pool.hpp).
  void ensureStarted() {
    if (started) return;
    started = true;
    std::vector<int> parentFds;
    for (unsigned i = 0; i < dist.workers; ++i) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        throw std::runtime_error("dipd: socketpair failed");
      }
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        throw std::runtime_error("dipd: fork failed");
      }
      if (pid == 0) {
        // Child: drop every coordinator-side descriptor, become worker i.
        ::close(sv[0]);
        for (int fd : parentFds) ::close(fd);
        FaultPlan fault;
        if (dist.fault.kind != FaultPlan::Kind::kNone && dist.fault.worker == i) {
          fault = dist.fault;
        }
        runWorker(sv[1], dist.threadsPerWorker, dist.beaconTrials,
                  std::max<std::size_t>(1, dist.maxOutstanding), fault);
      }
      ::close(sv[1]);
      setNonBlocking(sv[0]);
      parentFds.push_back(sv[0]);
      workers.push_back(std::make_unique<Worker>(i, pid, rpc::FrameChannel(sv[0])));
    }
    awaitHandshakes();
  }

  // Gives every worker one heartbeat window to say HELLO before the first
  // ASSIGN goes out, so the whole fleet shares the first run's ranges
  // instead of the quickest worker draining a small batch alone. A worker
  // still silent at the deadline joins whenever its HELLO arrives.
  void awaitHandshakes() {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(dist.timeoutMillis);
    for (;;) {
      bool waiting = false;
      for (const auto& w : workers) {
        if (w->alive && !w->ready) waiting = true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (!waiting || left <= 0) return;
      pollOnce(nullptr, nullptr, static_cast<int>(left));
    }
  }

  void armDeadline(Worker& w) {
    w.deadline = Clock::now() + std::chrono::milliseconds(dist.timeoutMillis);
    w.deadlineValid = true;
  }

  void markDead(Worker& w, ShardScheduler* sched) {
    if (!w.alive) return;
    w.alive = false;
    w.suspect = false;
    w.channel.close();
    if (w.pid > 0 && !w.reaped) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
      w.reaped = true;
    }
    if (sched != nullptr) sched->reissueWorker(w.id);
  }

  void assignMore(Worker& w, ShardScheduler& sched, const std::string& cell) {
    while (sched.outstandingFor(w.id) < dist.maxOutstanding) {
      const std::optional<SeedRange> range = sched.claim(w.id);
      if (!range) return;
      rpc::AssignMsg msg;
      msg.epoch = epoch;
      msg.rangeIndex = range->index;
      msg.lo = range->lo;
      msg.hi = range->hi;
      msg.masterSeed = base.masterSeed;
      msg.cell = cell;
      if (!w.channel.send(rpc::Verb::kAssign, rpc::encodeAssign(msg))) {
        markDead(w, &sched);
        return;
      }
      armDeadline(w);
    }
  }

  void handleFrame(Worker& w, const rpc::Frame& frame, ShardScheduler* sched,
                   std::vector<TrialOutcome>* all) {
    // Any intact frame proves the worker is alive: rehabilitate it and push
    // its heartbeat deadline out. A wrongly-suspected worker costs duplicate
    // work (its ranges were re-issued), never correctness.
    w.suspect = false;
    armDeadline(w);
    switch (frame.verb) {
      case rpc::Verb::kHello: {
        (void)rpc::decodeHello(frame);
        rpc::HelloAckMsg ack;
        ack.workerId = w.id;
        if (!w.channel.send(rpc::Verb::kHello, rpc::encodeHelloAck(ack))) {
          markDead(w, sched);
          return;
        }
        w.ready = true;
        break;
      }
      case rpc::Verb::kPartial: {
        const rpc::PartialMsg partial = rpc::decodePartial(frame);
        if (!partial.done) break;              // Beacon: liveness only.
        if (sched == nullptr) break;           // No run in progress.
        if (partial.epoch != epoch) break;     // Stale run: drop, never fold.
        const SeedRange& range = sched->range(partial.rangeIndex);
        if (partial.outcomes.size() != range.hi - range.lo) {
          throw rpc::CodecError("outcome count does not match range width");
        }
        // The exactly-once gate: only the FIRST completion of a range folds.
        if (sched->complete(partial.rangeIndex)) {
          std::copy(partial.outcomes.begin(), partial.outcomes.end(),
                    all->begin() + static_cast<std::ptrdiff_t>(range.lo));
        }
        break;
      }
      case rpc::Verb::kRetire: {
        (void)rpc::decodeRetire(frame);
        w.retired = true;
        break;
      }
      default:
        throw rpc::CodecError("unexpected verb from worker");
    }
  }

  void drainFrames(Worker& w, ShardScheduler* sched,
                   std::vector<TrialOutcome>* all) {
    try {
      while (std::optional<rpc::Frame> frame = w.channel.next()) {
        handleFrame(w, *frame, sched, all);
        if (!w.alive) return;
      }
    } catch (const rpc::CodecError&) {
      markDead(w, sched);  // Garbage on the wire: the worker is faulty.
    } catch (const std::out_of_range&) {
      markDead(w, sched);  // Range index no shard carries.
    }
  }

  int pollTimeoutMillis(const ShardScheduler& sched) const {
    const Clock::time_point now = Clock::now();
    std::int64_t best = 50;
    for (const auto& w : workers) {
      if (!w->alive || w->suspect || !w->deadlineValid) continue;
      if (sched.outstandingFor(w->id) == 0) continue;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(w->deadline - now)
              .count();
      best = std::min(best, std::max<std::int64_t>(left, 0));
    }
    return static_cast<int>(best);
  }

  void pollOnce(ShardScheduler* sched, std::vector<TrialOutcome>* all,
                int timeoutMillis) {
    std::vector<pollfd> fds;
    std::vector<Worker*> order;
    for (const auto& w : workers) {
      if (!w->alive) continue;
      fds.push_back(pollfd{w->channel.fd(), POLLIN, 0});
      order.push_back(w.get());
    }
    if (fds.empty()) return;
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             timeoutMillis);
    if (ready <= 0) return;  // Timeout or EINTR: deadlines handle the rest.
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& w = *order[i];
      const bool open = w.channel.readAvailable();
      // Frames buffered ahead of an EOF still count (a worker may deliver
      // its last PARTIAL and exit before we read it).
      drainFrames(w, sched, all);
      if (!open) markDead(w, sched);
    }
  }

  void checkDeadlines(ShardScheduler& sched) {
    const Clock::time_point now = Clock::now();
    for (const auto& wp : workers) {
      Worker& w = *wp;
      if (!w.alive || w.suspect || !w.deadlineValid) continue;
      if (sched.outstandingFor(w.id) == 0) continue;
      if (now >= w.deadline) {
        // Suspect, do not kill: the socket stays open so a slow worker's
        // late completion still arrives — and gets deduped by complete().
        w.suspect = true;
        sched.reissueWorker(w.id);
      }
    }
  }

  void pump(ShardScheduler& sched, const std::string& cell,
            std::vector<TrialOutcome>& all) {
    while (!sched.finished()) {
      if (liveCount() == 0) {
        lastReissues = sched.reissueCount();
        lastDuplicates = sched.duplicateCount();
        throw std::runtime_error("dipd: every worker died before the run finished");
      }
      for (const auto& w : workers) {
        if (w->alive && w->ready && !w->suspect) assignMore(*w, sched, cell);
      }
      pollOnce(&sched, &all, pollTimeoutMillis(sched));
      checkDeadlines(sched);
    }
    lastReissues = sched.reissueCount();
    lastDuplicates = sched.duplicateCount();
  }

  void shutdownImpl() {
    if (!started || shutdownDone) return;
    shutdownDone = true;
    for (const auto& w : workers) {
      if (w->alive && !w->channel.send(rpc::Verb::kRetire)) markDead(*w, nullptr);
    }
    // Await RETIRE acks (draining any straggler PARTIALs) within the grace
    // window, then order SHUTDOWN.
    const Clock::time_point graceEnd =
        Clock::now() + std::chrono::milliseconds(dist.graceMillis);
    for (;;) {
      bool waiting = false;
      for (const auto& w : workers) {
        if (w->alive && !w->retired) waiting = true;
      }
      if (!waiting || Clock::now() >= graceEnd) break;
      pollOnce(nullptr, nullptr, 20);
    }
    for (const auto& w : workers) {
      if (w->alive) w->channel.send(rpc::Verb::kShutdown);
    }
    reapAll();
  }

  void reapAll() {
    const Clock::time_point graceEnd =
        Clock::now() + std::chrono::milliseconds(dist.graceMillis);
    for (const auto& wp : workers) {
      Worker& w = *wp;
      if (w.pid <= 0 || w.reaped) continue;
      for (;;) {
        const pid_t got = ::waitpid(w.pid, nullptr, WNOHANG);
        if (got == w.pid || (got < 0 && errno != EINTR)) break;
        if (Clock::now() >= graceEnd) {
          // Straggler (e.g. a hang-fault worker whose reader is wedged
          // behind a full queue and never sees SHUTDOWN): force it down.
          ::kill(w.pid, SIGKILL);
          ::waitpid(w.pid, nullptr, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      w.reaped = true;
      w.alive = false;
      w.channel.close();
    }
  }
};

DistributedRunner::DistributedRunner(TrialConfig base, DistributedConfig dist)
    : impl_(std::make_unique<Impl>(base, dist)) {}

DistributedRunner::~DistributedRunner() {
  try {
    shutdown();
  } catch (...) {
    // Destructors stay noexcept; reapAll already force-kills stragglers.
  }
}

unsigned DistributedRunner::workers() const { return impl_->dist.workers; }

unsigned DistributedRunner::liveWorkers() const {
  return impl_->started ? impl_->liveCount() : impl_->dist.workers;
}

std::uint64_t DistributedRunner::lastReissues() const { return impl_->lastReissues; }
std::uint64_t DistributedRunner::lastDuplicates() const { return impl_->lastDuplicates; }

TrialStats DistributedRunner::runCell(std::string_view cell,
                                      std::size_t trialLimit,
                                      std::vector<TrialOutcome>* outcomes) {
  const workload::CellInfo* info = workload::findCell(cell);
  if (info == nullptr) {
    throw std::invalid_argument("dipd: unknown workload cell: " + std::string(cell));
  }
  if (impl_->shutdownDone) {
    throw std::runtime_error("dipd: runner already shut down");
  }
  impl_->ensureStarted();
  const std::size_t trials = trialLimit != 0 ? trialLimit : info->trials;
  ++impl_->epoch;
  const Clock::time_point begin = Clock::now();
  std::vector<TrialOutcome> all(trials);
  if (trials > 0) {
    ShardScheduler sched(trials, impl_->dist.grain);
    impl_->pump(sched, std::string(cell), all);
  }
  TrialStats stats = foldOutcomes(all);
  stats.wallSeconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  if (outcomes != nullptr) *outcomes = std::move(all);
  return stats;
}

void DistributedRunner::shutdown() { impl_->shutdownImpl(); }

// ---- Worker ----------------------------------------------------------------

namespace {

struct FaultState {
  FaultPlan plan;
  std::uint64_t executed = 0;
  bool triggered = false;
};

// Checked between beacon-sized chunks, so a trigger that is not a multiple
// of the range width lands mid-range by construction.
void maybeInjectFault(FaultState& fault) {
  if (fault.plan.kind == FaultPlan::Kind::kNone || fault.triggered) return;
  if (fault.executed < fault.plan.afterTrials) return;
  fault.triggered = true;
  switch (fault.plan.kind) {
    case FaultPlan::Kind::kKill:
      std::_Exit(17);
    case FaultPlan::Kind::kHang:
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
    case FaultPlan::Kind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.plan.delayMillis));
      break;
    case FaultPlan::Kind::kNone:
      break;
  }
}

}  // namespace

void runWorker(int fd, unsigned threads, std::uint64_t beaconTrials,
               std::size_t queueCapacity, const FaultPlan& fault) {
  rpc::FrameChannel channel(fd);

  rpc::HelloMsg hello;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.threads = threads != 0 ? threads : resolveThreads(0);
  if (!channel.send(rpc::Verb::kHello, rpc::encodeHello(hello))) std::_Exit(1);

  std::uint64_t workerId = 0;
  {
    const std::optional<rpc::Frame> ack = channel.recv();
    if (!ack) std::_Exit(1);
    try {
      workerId = rpc::decodeHelloAck(*ack).workerId;
    } catch (const std::exception&) {
      std::_Exit(1);
    }
  }

  // Reader thread: the ONLY thread that reads the socket (the executor is
  // the only writer — reads and writes share no FrameChannel state). The
  // bounded queue is the backpressure contract: when it fills, the reader
  // stops draining the socket and the coordinator's outstanding cap holds.
  BoundedQueue<rpc::AssignMsg> queue(queueCapacity);
  std::thread reader([&channel, &queue] {
    for (;;) {
      std::optional<rpc::Frame> frame;
      try {
        frame = channel.recv();
      } catch (const std::exception&) {
        std::_Exit(1);
      }
      if (!frame) std::_Exit(0);  // Coordinator is gone.
      switch (frame->verb) {
        case rpc::Verb::kAssign: {
          rpc::AssignMsg assign;
          try {
            assign = rpc::decodeAssign(*frame);
          } catch (const std::exception&) {
            std::_Exit(1);
          }
          (void)queue.push(std::move(assign));  // Dropped if retiring.
          break;
        }
        case rpc::Verb::kRetire:
          queue.close();  // Keep reading: SHUTDOWN is still to come.
          break;
        case rpc::Verb::kShutdown:
          std::_Exit(0);
        default:
          std::_Exit(1);
      }
    }
  });

  // Executor: rebuild cells by name (cached across assignments — the daemon
  // serves many runs), execute seed-ranges in beacon-sized chunks.
  FaultState faultState;
  faultState.plan = fault;
  TrialConfig config;
  config.threads = threads;
  std::map<std::string, std::unique_ptr<workload::Cell>, std::less<>> cells;
  std::uint64_t completedRanges = 0;
  for (;;) {
    std::optional<rpc::AssignMsg> job = queue.pop();
    if (!job) break;  // Queue closed and drained: retire.
    auto it = cells.find(job->cell);
    if (it == cells.end()) {
      try {
        it = cells.emplace(job->cell, workload::makeCell(job->cell)).first;
      } catch (const std::exception&) {
        std::_Exit(1);  // Unknown cell: decodeAssign-validated, still fatal.
      }
    }
    const workload::Cell& cell = *it->second;
    config.masterSeed = job->masterSeed;
    const std::uint64_t chunk =
        beaconTrials != 0 ? beaconTrials : (job->hi - job->lo);
    std::vector<TrialOutcome> outcomes;
    outcomes.reserve(static_cast<std::size_t>(job->hi - job->lo));
    for (std::uint64_t lo = job->lo; lo < job->hi;) {
      const std::uint64_t hi = std::min(job->hi, lo + chunk);
      const std::vector<TrialOutcome> part = cell.runRange(lo, hi, config);
      outcomes.insert(outcomes.end(), part.begin(), part.end());
      faultState.executed += part.size();
      lo = hi;
      maybeInjectFault(faultState);
      if (lo < job->hi) {
        rpc::PartialMsg beacon;
        beacon.workerId = workerId;
        beacon.epoch = job->epoch;
        beacon.rangeIndex = job->rangeIndex;
        beacon.done = false;
        if (!channel.send(rpc::Verb::kPartial, rpc::encodePartial(beacon))) {
          std::_Exit(0);
        }
      }
    }
    rpc::PartialMsg done;
    done.workerId = workerId;
    done.epoch = job->epoch;
    done.rangeIndex = job->rangeIndex;
    done.done = true;
    done.outcomes = std::move(outcomes);
    if (!channel.send(rpc::Verb::kPartial, rpc::encodePartial(done))) {
      std::_Exit(0);
    }
    ++completedRanges;
  }

  rpc::RetireMsg ack;
  ack.rangesCompleted = completedRanges;
  channel.send(rpc::Verb::kRetire, rpc::encodeRetire(ack));
  // Park until SHUTDOWN (the reader _exits the process) or SIGKILL.
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

}  // namespace dip::sim
