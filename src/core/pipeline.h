#ifndef GRALMATCH_CORE_PIPELINE_H_
#define GRALMATCH_CORE_PIPELINE_H_

/// \file pipeline.h
/// The end-to-end entity group matching pipeline of Figure 1: blocking
/// candidates -> pairwise prediction -> Pre Graph Cleanup -> GraLMatch
/// Graph Cleanup -> entity groups, with snapshots of all three evaluation
/// stages of §5.3.2.

#include <memory>
#include <vector>

#include "blocking/blocker.h"
#include "core/cleanup.h"
#include "data/dataset.h"
#include "matching/matcher.h"

namespace gralmatch {

class ThreadPool;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Pipeline parameters.
struct PipelineConfig {
  GraphCleanupConfig cleanup;
  /// Probability threshold for a positive pairwise prediction.
  double match_threshold = 0.5;
  /// Pre-Cleanup component-size threshold (paper: 50 for the company
  /// datasets, 0 disables the step).
  size_t pre_cleanup_threshold = 0;
  /// Worker threads for candidate scoring and per-component cleanup.
  /// 1 (the default) runs fully serial; any N > 1 produces bitwise-identical
  /// PipelineResult groups, pairs, and cleanup counters (only the wall-clock
  /// fields vary). The matcher's MatchProbability must be const-thread-safe,
  /// which holds for all matchers in this repo.
  size_t num_threads = 1;
  /// Optional observability sink (obs/metrics.h). Runtime-only and inert:
  /// the pointer is never serialized (checkpoint configs enumerate their
  /// fields explicitly), never compared, and never influences any output —
  /// null (the default) skips all recording. Restored pipelines start with
  /// metrics unset; re-wire after load if scraping should continue.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Snapshots of the three evaluation stages.
struct PipelineResult {
  /// Stage 1: positively predicted candidate pairs.
  std::vector<RecordPair> predicted_pairs;
  /// Stage 2: connected components implied by the raw predictions (their
  /// complete graphs are the Pre Graph Cleanup match set).
  std::vector<std::vector<NodeId>> pre_cleanup_components;
  /// Stage 3: entity groups after the GraLMatch Graph Cleanup.
  std::vector<std::vector<NodeId>> groups;

  CleanupStats cleanup_stats;
  /// Wall-clock of the whole pairwise prediction stage, measured from
  /// dispatch to join around the (possibly parallel) scoring region — never
  /// inside it — so it stays meaningful under concurrency.
  double inference_seconds = 0.0;

  /// Group id per record (singletons included), derived from `groups`;
  /// useful as the company-matching input of the Issuer Match blocking.
  std::vector<int64_t> GroupOfRecord(size_t num_records) const;
};

/// \brief End-to-end entity group matcher.
class EntityGroupPipeline {
 public:
  EntityGroupPipeline() : config_() {}
  explicit EntityGroupPipeline(PipelineConfig config) : config_(config) {}

  /// Score `candidates` with `matcher` and run both cleanup steps.
  PipelineResult Run(const Dataset& dataset,
                     const std::vector<Candidate>& candidates,
                     const PairwiseMatcher& matcher) const;

  /// Variant that takes precomputed positive predictions (with provenance)
  /// instead of scoring candidates; used by benches that share predictions
  /// across cleanup configurations.
  PipelineResult RunOnPredictions(size_t num_records,
                                  const std::vector<Candidate>& positives) const;

  const PipelineConfig& config() const { return config_; }

 private:
  /// Shared implementation; `pool` may be null (serial).
  PipelineResult RunOnPredictionsImpl(size_t num_records,
                                      const std::vector<Candidate>& positives,
                                      ThreadPool* pool) const;

  PipelineConfig config_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_CORE_PIPELINE_H_
