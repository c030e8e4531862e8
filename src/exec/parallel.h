#ifndef GRALMATCH_EXEC_PARALLEL_H_
#define GRALMATCH_EXEC_PARALLEL_H_

/// \file parallel.h
/// Deterministic data-parallel helpers on top of ThreadPool. The iteration
/// space is split into contiguous chunks (cache-friendly, no work stealing)
/// and every iteration writes only to state owned by its own index, so the
/// result is bitwise-identical for every thread count — including the serial
/// inline path taken when no pool is given.

#include <cstddef>
#include <functional>

#include "exec/thread_pool.h"

namespace gralmatch {

/// Invoke `fn(i)` for every i in [begin, end) and block until all complete.
///
/// Runs inline (plain serial loop) when `pool` is null, has a single worker,
/// the range is no larger than `grain`, or the caller *is* one of `pool`'s
/// workers — the latter makes nested parallel sections safe instead of
/// deadlocking on a saturated queue.
///
/// Exceptions thrown by `fn` are captured per chunk; the exception of the
/// lowest-indexed failing chunk is rethrown in the caller (deterministic
/// regardless of scheduling). All chunks run to completion either way.
///
/// `grain` is the minimum number of iterations per chunk (amortizes
/// scheduling overhead for cheap bodies); it never affects results.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain = 1);

}  // namespace gralmatch

#endif  // GRALMATCH_EXEC_PARALLEL_H_
