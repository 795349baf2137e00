// The process-wide engine pool behind TrialRunner and parallelMap.
//
// A batch is one self-scheduling `work` routine: every thread that runs it
// claims item indices from the batch's shared counter until none are left,
// so the batch's results never depend on which threads took part.
// runOnPool(threads, work) runs `work` on the calling thread and on up to
// threads - 1 pool helpers at once:
//
//   - Helpers start lazily and the pool grows to the largest count any
//     batch asked for. Between batches a helper spins briefly, then parks
//     on a condition variable; it never exits. Helpers keep their
//     thread_local caches (hash evaluators, prepared instances, scratch
//     vectors) warm from one batch to the next.
//   - The caller runs its own share. When its `work` returns, every item
//     has been claimed, so it cancels the slots no helper has started yet
//     and waits only for the helpers that did start.
//   - A call made from inside a pool batch (a nested runRange or
//     parallelMap in a trial body) runs `work` inline on that thread. A
//     call from another thread while a batch is in flight waits its turn.
//   - threads <= 1 runs `work` inline and starts no thread.
//   - fork() is safe: a pthread_atfork prepare handler takes the pool's
//     batch lock (so no batch is mid-flight), and the child starts from an
//     empty pool that grows its own helpers.
//
// The engine's batch loops catch every item's exception themselves and
// surface the lowest-index one on the caller. Should `work` itself throw,
// on any thread, the first such exception is rethrown by runOnPool after
// every helper that joined the batch has finished.
//
// Thread workers belong HERE: dip-analyze's thread-containment rule forbids
// std::thread anywhere else under src/.
#pragma once

namespace dip::sim {

namespace detail {
void runOnPool(unsigned threads, void (*call)(void*), void* work);
}  // namespace detail

// Runs work() on the calling thread and on up to threads - 1 helpers, as
// described above; returns once no thread is still inside work().
template <typename Work>
void runOnPool(unsigned threads, Work& work) {
  detail::runOnPool(threads, [](void* w) { (*static_cast<Work*>(w))(); }, &work);
}

}  // namespace dip::sim
