#include "core/pipeline.h"

#include <memory>

#include "common/stopwatch.h"
#include "core/score_batching.h"
#include "exec/parallel.h"
#include "obs/metrics.h"

namespace gralmatch {

std::vector<int64_t> PipelineResult::GroupOfRecord(size_t num_records) const {
  std::vector<int64_t> out(num_records, -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (NodeId u : groups[g]) {
      if (static_cast<size_t>(u) < num_records) {
        out[static_cast<size_t>(u)] = static_cast<int64_t>(g);
      }
    }
  }
  return out;
}

PipelineResult EntityGroupPipeline::Run(const Dataset& dataset,
                                        const std::vector<Candidate>& candidates,
                                        const PairwiseMatcher& matcher) const {
  std::unique_ptr<ThreadPool> pool = MaybeMakePool(config_.num_threads);

  // Pairwise prediction, batched: contiguous kScoreBatchSize chunks of the
  // candidate list each make one ScoreBatch call, and the chunks fan out
  // across the pool. The stopwatch wraps the whole scoring region (dispatch
  // to join), not the per-batch calls, so inference_seconds is the stage's
  // wall-clock at any thread count. Each chunk writes only its own score
  // slice, keeping the positive set order-identical to serial — and the
  // ScoreBatch contract keeps it bitwise-identical to per-pair scoring.
  const obs::PipelineMetrics metrics =
      obs::PipelineMetrics::Create(config_.metrics);
  Stopwatch watch;
  std::vector<RecordPair> pairs;
  pairs.reserve(candidates.size());
  for (const Candidate& cand : candidates) pairs.push_back(cand.pair);
  std::vector<double> scores(candidates.size(), 0.0);
  {
    CascadeStatsScope cascade_scope(matcher, metrics.cascade_gate_resolved,
                                    metrics.cascade_escalated);
    ScorePairsBatched(pool.get(), dataset.records, matcher,
                      Span<const RecordPair>(pairs.data(), pairs.size()),
                      kScoreBatchSize,
                      Span<double>(scores.data(), scores.size()));
  }
  const double inference_seconds = watch.ElapsedSeconds();
  if (metrics.scoring_seconds != nullptr) {
    metrics.scoring_seconds->Observe(inference_seconds);
  }
  if (metrics.pairs_scored != nullptr) {
    metrics.pairs_scored->Increment(candidates.size());
  }

  std::vector<Candidate> positives;
  positives.reserve(candidates.size() / 4 + 1);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (scores[i] >= config_.match_threshold) positives.push_back(candidates[i]);
  }

  PipelineResult result =
      RunOnPredictionsImpl(dataset.records.size(), positives, pool.get());
  result.inference_seconds = inference_seconds;
  return result;
}

PipelineResult EntityGroupPipeline::RunOnPredictions(
    size_t num_records, const std::vector<Candidate>& positives) const {
  std::unique_ptr<ThreadPool> pool = MaybeMakePool(config_.num_threads);
  return RunOnPredictionsImpl(num_records, positives, pool.get());
}

PipelineResult EntityGroupPipeline::RunOnPredictionsImpl(
    size_t num_records, const std::vector<Candidate>& positives,
    ThreadPool* pool) const {
  PipelineResult result;
  Graph graph(num_records);
  std::vector<uint32_t> edge_provenance;
  edge_provenance.reserve(positives.size());
  for (const auto& cand : positives) {
    auto added = graph.AddEdge(cand.pair.a, cand.pair.b);
    if (added.ok()) {
      edge_provenance.push_back(cand.provenance);
      result.predicted_pairs.push_back(cand.pair);
    }
  }

  // Stage 2 snapshot: components implied by the raw predictions.
  result.pre_cleanup_components = graph.ConnectedComponents();

  // Pre Graph Cleanup + Algorithm 1 (components fan out across `pool`).
  PreCleanup(&graph, edge_provenance, config_.pre_cleanup_threshold,
             &result.cleanup_stats);
  GraLMatchCleanup cleanup(config_.cleanup);
  result.groups = cleanup.Run(&graph, &result.cleanup_stats, pool);
  return result;
}

}  // namespace gralmatch
