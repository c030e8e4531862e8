#include "exec/parallel.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace gralmatch {

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain) {
  if (end <= begin) return;
  const size_t n = end - begin;
  if (grain == 0) grain = 1;
  const bool serial = pool == nullptr || pool->num_threads() <= 1 ||
                      pool->InWorkerThread() || n <= grain;
  if (serial) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Static contiguous chunking: a few chunks per worker to absorb skew
  // without giving up cache locality.
  const size_t max_chunks = pool->num_threads() * 4;
  const size_t num_chunks = std::min((n + grain - 1) / grain, max_chunks);

  struct State {
    // Constructor-initialized: TSA exempts constructors, so no lock is
    // needed before the state is shared with the workers.
    explicit State(size_t chunks) : remaining(chunks) {}
    Mutex mu;
    CondVar cv;
    size_t remaining GUARDED_BY(mu);
    std::exception_ptr error GUARDED_BY(mu);
    size_t error_chunk GUARDED_BY(mu) = std::numeric_limits<size_t>::max();
  };
  // shared_ptr: chunk tasks may briefly outlive the wait loop's final wakeup.
  auto state = std::make_shared<State>(num_chunks);

  const size_t base = n / num_chunks;
  const size_t extra = n % num_chunks;
  size_t lo = begin;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t hi = lo + base + (c < extra ? 1 : 0);
    pool->Submit([state, &fn, c, lo, hi] {
      std::exception_ptr err;
      try {
        for (size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      MutexLock lock(&state->mu);
      if (err && c < state->error_chunk) {
        state->error_chunk = c;
        // Move, not copy: a copy left in `err` is released after the
        // unlock, possibly after the caller has already handled (and
        // dropped) the rethrown exception, so the object would be freed
        // here, out of the caller's sight (see the release note below).
        state->error = std::move(err);
      }
      if (--state->remaining == 0) state->cv.NotifyAll();
    });
    lo = hi;
  }

  // Take ownership of the error so the exception object's final release
  // (and the free) happens on this thread, not inside a worker's late
  // ~State — the exception_ptr refcount lives in libstdc++ and is invisible
  // to TSan, so a cross-thread release would be flagged (and genuinely
  // leaves the caller reading an object a worker may free).
  std::exception_ptr error;
  {
    MutexLock lock(&state->mu);
    while (state->remaining != 0) state->cv.Wait(&state->mu);
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace gralmatch
