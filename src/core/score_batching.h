#ifndef GRALMATCH_CORE_SCORE_BATCHING_H_
#define GRALMATCH_CORE_SCORE_BATCHING_H_

/// \file score_batching.h
/// The one chunked batched-scoring routine every pipeline scoring site
/// (EntityGroupPipeline::Run, IncrementalPipeline ingest, ShardedPipeline)
/// goes through, so batching policy lives in one place. See
/// docs/matchers.md "Batched inference".

#include <cstddef>

#include "common/span.h"
#include "data/ground_truth.h"
#include "data/record.h"
#include "matching/cascade_matcher.h"
#include "matching/matcher.h"
#include "obs/metrics.h"

namespace gralmatch {

class ThreadPool;

/// Maximum pairs per PairwiseMatcher::ScoreBatch call at every pipeline
/// scoring site. Larger batches amortize per-call costs (the transformer
/// runs one packed forward pass per batch); the ScoreBatch contract makes
/// any batch size bitwise-identical, so this only sets throughput.
inline constexpr size_t kScoreBatchSize = 64;

/// Score `pairs` against `records` into `out` (out.size() == pairs.size())
/// by slicing the pair list into contiguous chunks, calling
/// matcher.ScoreBatch once per chunk, and fanning the chunks out across
/// `pool` (serial when null).
///
/// Chunking: the fewest chunks of at most `batch_size` pairs, rounded up to
/// a multiple of the pool's workers when the job runs on the pool (never
/// more chunks than pairs), with sizes that differ by at most one pair, so
/// every worker gets the same share. Serial jobs (no pool, one worker, or a
/// call from one of the pool's own workers) run ceil(n / batch_size) such
/// chunks in order on the calling thread. A batch_size of 0 is treated as 1.
///
/// Deterministic: each chunk writes only its own out-slice, and the
/// ScoreBatch contract makes every chunking bitwise-identical to per-pair
/// scoring — so results are independent of batch_size, the chunk layout and
/// the thread count. Exceptions from the matcher propagate deterministically
/// (the lowest failing chunk's first), which the pipelines rely on for their
/// poisoning semantics.
void ScorePairsBatched(ThreadPool* pool, const RecordTable& records,
                       const PairwiseMatcher& matcher,
                       Span<const RecordPair> pairs, size_t batch_size,
                       Span<double> out);

/// \brief RAII capture of CascadeMatcher gate/escalate activity across one
/// scoring region: records the stats() delta into the two obs counters on
/// destruction. Inert when either counter is null or the matcher is not a
/// CascadeMatcher (no dynamic_cast is even attempted in the null case), so
/// uninstrumented scoring pays one branch.
class CascadeStatsScope {
 public:
  CascadeStatsScope(const PairwiseMatcher& matcher,
                    obs::Counter* gate_resolved, obs::Counter* escalated)
      : gate_resolved_(gate_resolved), escalated_(escalated) {
    if (gate_resolved_ == nullptr && escalated_ == nullptr) return;
    cascade_ = dynamic_cast<const CascadeMatcher*>(&matcher);
    if (cascade_ != nullptr) before_ = cascade_->stats();
  }
  ~CascadeStatsScope() {
    if (cascade_ == nullptr) return;
    const CascadeMatcher::Stats after = cascade_->stats();
    if (gate_resolved_ != nullptr) {
      gate_resolved_->Increment(after.gate_resolved - before_.gate_resolved);
    }
    if (escalated_ != nullptr) {
      escalated_->Increment(after.escalated - before_.escalated);
    }
  }

  CascadeStatsScope(const CascadeStatsScope&) = delete;
  CascadeStatsScope& operator=(const CascadeStatsScope&) = delete;

 private:
  const CascadeMatcher* cascade_ = nullptr;
  obs::Counter* const gate_resolved_;
  obs::Counter* const escalated_;
  CascadeMatcher::Stats before_{};
};

}  // namespace gralmatch

#endif  // GRALMATCH_CORE_SCORE_BATCHING_H_
