#include "core/score_batching.h"

#include <algorithm>
#include <cassert>

#include "exec/parallel.h"

namespace gralmatch {

void ScorePairsBatched(ThreadPool* pool, const RecordTable& records,
                       const PairwiseMatcher& matcher,
                       Span<const RecordPair> pairs, size_t batch_size,
                       Span<double> out) {
  assert(out.size() == pairs.size());
  const size_t n = pairs.size();
  if (n == 0) return;
  const size_t batch = std::max<size_t>(batch_size, 1);
  const size_t workers =
      pool == nullptr || pool->InWorkerThread() ? 1 : pool->num_threads();
  const size_t min_chunks = (n + batch - 1) / batch;
  const size_t num_chunks =
      std::min(n, (min_chunks + workers - 1) / workers * workers);
  const size_t base = n / num_chunks;
  const size_t extra = n % num_chunks;  // the first `extra` chunks get one more
  ParallelFor(pool, 0, num_chunks, [&](size_t c) {
    const size_t begin = c * base + std::min(c, extra);
    const size_t count = base + (c < extra ? 1 : 0);
    matcher.ScoreBatch(records, pairs.subspan(begin, count),
                       out.subspan(begin, count));
  });
}

}  // namespace gralmatch
