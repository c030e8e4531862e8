#ifndef GRALMATCH_STREAM_INCREMENTAL_PIPELINE_H_
#define GRALMATCH_STREAM_INCREMENTAL_PIPELINE_H_

/// \file incremental_pipeline.h
/// Streaming ingestion for the entity-group pipeline. Record batches arrive
/// via Ingest(), corrections via Update() and deletions via Remove(), and
/// three layers of state update in place instead of being recomputed from
/// scratch:
///
///  1. Blocking: incremental Token/ID Overlap inverted indexes
///     (blocking/incremental_index.h) emit only the candidate pairs the
///     mutation adds or retracts. The candidate set and each pair's blocker
///     provenance are read off the two indexes, never stored beside them.
///  2. Scoring: a pair-score cache keyed by (record_a, record_b,
///     matcher fingerprint) guarantees a pair is sent to the matcher at
///     most once while the fingerprint stays the same — re-admitted
///     candidates are served from the cache. The cache holds the current
///     fingerprint only: a fingerprint change clears it, so alternating
///     between matchers rescores on every swap.
///  3. Cleanup: new positive edges are unioned into the maintained
///     component structure (stream/group_store.h) and the Pre + GraLMatch
///     Graph Cleanup reruns only on *dirty* components (those that gained
///     or lost a node, an edge, or a provenance bit); untouched groups are
///     spliced through unchanged with their cached cleanup counters. The
///     sorted positive set is the one copy of the match graph's edges: a
///     component's edges are read from it.
///
/// State, each fact kept once: records, tombstones, the two indexes, the
/// fingerprint, the score cache, the positive set and the component store.
///
/// Batch-equivalence contract (enforced by
/// tests/pipeline_equivalence_test.cc): after any sequence of ingests,
/// Snapshot() — groups, predicted pairs, pre-cleanup components and all
/// cleanup counters — is identical to EntityGroupPipeline::Run on the union
/// of all batches with the same blockers and matcher, at any num_threads.
/// Snapshot() leaves the wall-clock fields at 0: per-mutation times are in
/// each IngestReport, and cumulative ones would make two runs of one
/// schedule differ.
///
/// Schedule-equivalence contract (same suite): the contract survives
/// deletions. Records are tombstoned, never recycled —
/// the table stays append-only, ids are stable, and a removed record's
/// payload is retained so its blocking keys can be re-extracted — and after
/// ANY interleaved Ingest/Update/Remove schedule, Snapshot() equals a
/// from-scratch run on the surviving records (modulo the monotone id
/// compaction a fresh run would assign).
///
/// This is the only implementation of the mutation path: the sharded
/// pipeline (shard/sharded_pipeline.h) owns one instance and adds record
/// routing and a partitioned checkpoint layout on top of it.

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blocking/incremental_index.h"
#include "core/pipeline.h"
#include "data/record.h"
#include "matching/matcher.h"
#include "stream/group_store.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;
class ThreadPool;

/// Parameters of the incremental pipeline: the batch pipeline's config plus
/// the blocking setup it maintains incrementally.
struct IncrementalPipelineConfig {
  /// Threshold, cleanup, pre-cleanup and num_threads semantics are exactly
  /// those of the batch EntityGroupPipeline.
  PipelineConfig pipeline;
  /// Token Overlap blocking parameters (num_threads is taken from
  /// `pipeline.num_threads`, not from here).
  TokenOverlapBlocker::Options token;
  bool use_token_blocker = true;
  bool use_id_blocker = true;
};

/// One correction: tombstone the live record `id` and ingest `record` as
/// its replacement (under a fresh id — ids are never recycled).
struct RecordUpdate {
  RecordId id = kInvalidRecord;
  Record record;
};

/// What one Ingest/Update/Remove call did — cache effectiveness and
/// dirty-component scoping, for observability and tests.
struct IngestReport {
  size_t records_added = 0;
  size_t records_removed = 0;
  /// Candidate pairs that entered / left the maintained candidate set.
  size_t candidates_added = 0;
  size_t candidates_removed = 0;
  /// Matcher invocations this ingest (pairs scored for the first time under
  /// the current fingerprint).
  size_t pairs_scored = 0;
  /// Candidate pairs whose score was served from the cache (pairs that
  /// re-entered the candidate set after a retraction).
  size_t cache_hits = 0;
  /// Cached scores dropped because an endpoint was tombstoned (ids are
  /// never recycled, so an evicted entry can never be asked for again).
  size_t cache_evictions = 0;
  /// Components re-cleaned vs. spliced through unchanged.
  size_t components_rebuilt = 0;
  size_t components_reused = 0;
  double scoring_seconds = 0.0;
  double cleanup_seconds = 0.0;
};

/// \brief Incrementally maintained entity-group matching pipeline.
class IncrementalPipeline {
 public:
  explicit IncrementalPipeline(IncrementalPipelineConfig config);
  ~IncrementalPipeline();

  IncrementalPipeline(const IncrementalPipeline&) = delete;
  IncrementalPipeline& operator=(const IncrementalPipeline&) = delete;

  /// Append `batch` to the record set and bring blocking, scores and groups
  /// up to date. The matcher must be const-thread-safe (as in the batch
  /// pipeline). A matcher whose Fingerprint() differs from the previous
  /// ingest invalidates the score cache: every current candidate pair is
  /// rescored and every component re-cleaned. An empty batch is permitted
  /// (useful to swap matchers without new data).
  ///
  /// Fail-fast on a throwing matcher: an exception out of MatchProbability
  /// aborts the ingest with records and blocking indexes already updated
  /// but scores/groups not. The exception is swallowed, the pipeline is
  /// marked *poisoned*, and an Internal error is returned; every subsequent
  /// Ingest/Snapshot/Serialize returns the same clean error instead of
  /// computing on inconsistent state. Discard a poisoned pipeline (or
  /// restore from a checkpoint) — re-Ingesting the same batch would append
  /// its records a second time.
  Result<IngestReport> Ingest(const std::vector<Record>& batch,
                              const PairwiseMatcher& matcher);

  /// Tombstone the records in `ids` and bring blocking, scores and groups
  /// up to date in one dirty pass: their blocking keys are retracted (which
  /// can *re-admit* candidates a bucket cap or df bound had displaced — the
  /// matcher scores any such never-scored pair, hence the parameter), their
  /// cached scores are evicted, and every component that lost a node, an
  /// edge or a provenance bit is re-cleaned. Ids must be in range, alive
  /// and unique; violations return InvalidArgument with no state change
  /// (and no poisoning). Fingerprint and fail-fast semantics as Ingest.
  Result<IngestReport> Remove(const std::vector<RecordId>& ids,
                              const PairwiseMatcher& matcher);

  /// Apply corrections: for each entry, tombstone the live record
  /// `entry.id` and ingest `entry.record` under a fresh id, all in the same
  /// single dirty pass (exact remove + add — NOT an in-place edit, so every
  /// downstream invariant is the composition of the two proven paths). Id
  /// validation, fingerprint and fail-fast semantics as Remove.
  Result<IngestReport> Update(const std::vector<RecordUpdate>& batch,
                              const PairwiseMatcher& matcher);

  /// Current result, identical to a from-scratch EntityGroupPipeline::Run
  /// on the surviving (non-tombstoned) records (see file comment).
  /// The wall-clock fields are 0 (see file comment). Returns
  /// the poison error after an aborted ingest. Costs one copy of the sorted
  /// positive set plus one ascending scan over the records; only component
  /// and group heads are sorted (GroupStore::FillSnapshot). Each successful
  /// call is one observation of the `pipeline_snapshot_seconds` histogram
  /// when a registry is wired.
  Result<PipelineResult> Snapshot() const;

  /// OK, or the poison error describing why the pipeline must be discarded.
  Status status() const;

  /// All ingested records, in ingest order (ids are assigned contiguously).
  /// Tombstoned records keep their slot and payload — the table is
  /// append-only; consult alive() for liveness.
  const RecordTable& records() const { return records_; }

  /// Per-record liveness (1 = live, 0 = tombstoned), indexed by record id.
  const std::vector<char>& alive() const { return alive_; }
  bool is_alive(RecordId id) const {
    return id >= 0 && static_cast<size_t>(id) < alive_.size() &&
           alive_[static_cast<size_t>(id)] != 0;
  }
  size_t num_dead() const { return num_dead_; }
  size_t num_live() const { return records_.size() - num_dead_; }

  const IncrementalPipelineConfig& config() const { return config_; }

  /// Re-wire the observability sink. The registry pointer is runtime-only
  /// state — it never enters checkpoint bytes — so a pipeline restored via
  /// Deserialize()/LoadCheckpoint() always comes back uninstrumented; call
  /// this to resume recording into a registry the caller owns.
  void set_metrics(obs::MetricsRegistry* metrics) {
    config_.pipeline.metrics = metrics;
  }

  /// Cumulative matcher invocations / cache hits across all ingests.
  size_t total_matcher_calls() const { return total_matcher_calls_; }
  size_t total_cache_hits() const { return total_cache_hits_; }

  /// Fingerprint of the matcher used by the last Ingest ("" before the
  /// first). The checkpoint layer compares it against the serving matcher
  /// on load, because the score cache is only valid under its fingerprint.
  const std::string& fingerprint() const { return fingerprint_; }

  /// Serialize the complete pipeline state — config, records, tombstones,
  /// both blocking indexes, the score cache, the match graph's positive
  /// edges and per-component cleanup results, plus the derived candidate
  /// provenance and component edge lists the layout stores — such that
  /// Deserialize()->Snapshot() is bitwise-identical to Snapshot() here and
  /// further Ingest() calls behave exactly as they would have on this
  /// instance. Map-backed state is written in sorted key order, so equal
  /// logical states serialize to equal bytes, and no wall-clock value is
  /// stored, so two runs of one schedule write equal bytes too. Framing
  /// (magic, version, checksum) is the caller's job; see
  /// serve/checkpoint.h. The layout is format version 3. Returns the
  /// poison error after an aborted ingest (a poisoned state must never
  /// become a checkpoint).
  Status Serialize(BinaryWriter* writer) const;

  /// Rebuild a pipeline from Serialize() output. `version` is the framed
  /// format version the caller parsed (1 = pre-tombstone layout, 2 = with
  /// the tombstone section, 3 = the current layout, docs/formats.md).
  /// `num_threads_override` replaces the serialized
  /// thread count when nonzero (thread count never affects results, only
  /// scheduling). Returns a clean error on truncated or inconsistent input.
  static Result<std::unique_ptr<IncrementalPipeline>> Deserialize(
      BinaryReader* reader, uint32_t version, size_t num_threads_override = 0);

 private:
  /// The sharded pipeline's checkpoint loader reassembles this engine's
  /// state from shard files and finishes through FinishRestore.
  friend class ShardedPipeline;

  /// Blocker provenance bits of `pair`: one bit per index whose current
  /// pair set holds it; 0 when the pair is no candidate.
  uint32_t ProvenanceOf(const RecordPair& pair) const;
  /// Current candidate pairs, ascending (the union of both indexes' pair
  /// sets), each with its ProvenanceOf bits.
  PairValues Candidates() const;

  /// The blocking-state section of both version 3 layouts (the image body
  /// and the sharded manifest body): both index states, then the
  /// candidate provenance, written as Candidates(). Load expects the record
  /// table in place; an enabled blocker's index must cover every record and
  /// a disabled one's must be empty. It returns the stored provenance in
  /// `provenance` for FinishRestore to check.
  void SaveBlockingState(BinaryWriter* writer) const;
  Status LoadBlockingState(BinaryReader* reader, PairValues* provenance);
  /// The index half of LoadBlockingState. Legacy (version 1 and 2) images
  /// store the fingerprint between the index states and the provenance.
  Status LoadIndexStates(BinaryReader* reader);

  /// The engine-side end of both checkpoint loaders. Expects records,
  /// tombstones, fingerprint, score cache, positives (strictly ascending),
  /// components and counters in place, and rebuilds the per-record cached
  /// partner lists from the score cache. `provenance` is the candidate
  /// provenance the checkpoint stored beside its index states; it must
  /// equal Candidates(), and the token index's live count is restored from
  /// the tombstones. Null means a legacy (version 1 and 2) directory, which
  /// stores neither: the indexes are rebuilt from (records, tombstones),
  /// whose pure function they are. Then re-verifies every cross-field
  /// invariant the mutation path dereferences unchecked: candidate, cached
  /// and positive pairs live (the pair codec already checked them canonical
  /// and in range), every candidate scored, every positive a candidate,
  /// empty state before the first ingest, no tombstoned record inside a
  /// component, and every positive pair inside one component
  /// (GroupStore::Validate). Any violation is a clean IOError.
  Status FinishRestore(const PairValues* provenance);

  /// The whole mutation path shared by Ingest (no removals), Remove (no
  /// adds) and Update (both, one pass); the public entry points wrap it
  /// with id validation and the poison fail-fast.
  IngestReport MutateImpl(const std::vector<Record>& adds,
                          const std::vector<RecordId>& removal_ids,
                          const PairwiseMatcher& matcher);

  /// MutateImpl behind the poison fail-fast: an exception mid-way poisons
  /// the pipeline with "<verb_phrase> aborted mid-way: <what()>".
  Result<IngestReport> GuardedMutate(const char* verb_phrase,
                                     const std::vector<Record>& adds,
                                     const std::vector<RecordId>& removal_ids,
                                     const PairwiseMatcher& matcher);

  /// Removal ids must be in range, alive and duplicate-free — checked
  /// before any state changes so a bad call is rejected without poisoning.
  Status ValidateRemovals(const std::vector<RecordId>& ids) const;

  Status PoisonError() const;

  IncrementalPipelineConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  RecordTable records_;
  /// Liveness per record id; tombstoned slots stay (ids never recycle).
  std::vector<char> alive_;
  size_t num_dead_ = 0;

  IncrementalIdOverlapIndex id_index_;
  IncrementalTokenOverlapIndex token_index_;

  /// Pair-score cache for the current matcher fingerprint.
  std::string fingerprint_;
  std::unordered_map<RecordPair, double, RecordPairHash> score_cache_;
  /// Per record id, the partners it was cached with since the last cache
  /// clear, so eviction walks only the removed records' pairs. A partner
  /// whose pair another removal already evicted stays listed: eviction
  /// counts score_cache_.erase() returns, which skips it. Runtime-only —
  /// FinishRestore rebuilds it from the loaded cache.
  std::vector<std::vector<RecordId>> cached_partners_;
  /// Candidate pairs currently at or above the match threshold, strictly
  /// ascending — exactly Snapshot()'s predicted_pairs.
  std::vector<RecordPair> positives_;

  /// Component structure with cached per-component cleanup outcomes.
  GroupStore store_;

  /// Set when an ingest aborted mid-way (throwing matcher): records and
  /// blocking indexes were updated but scores/groups were not, so every
  /// state-observing operation refuses with a clean error.
  bool poisoned_ = false;
  std::string poison_reason_;

  size_t total_matcher_calls_ = 0;
  size_t total_cache_hits_ = 0;
};

// ---------------------------------------------------------------------------
// Checkpoint section codecs. The single-file body (Serialize) and the
// sharded manifest and shard bodies (shard/sharded_pipeline.h) encode these
// sections through one definition each; layouts are in docs/formats.md.
// ---------------------------------------------------------------------------

/// Config fields: gamma, mu, match threshold, pre-cleanup threshold,
/// num_threads, token top_n / min_overlap / max_token_df, then the token
/// and ID blocker flags. The metrics sink is runtime-only and never stored.
void WritePipelineConfig(const IncrementalPipelineConfig& config,
                         BinaryWriter* writer);

/// Read WritePipelineConfig output; a blocker flag other than 0 or 1 is
/// corruption. `num_threads_override` replaces the stored thread count
/// when nonzero (thread count never affects results, only scheduling).
Status ReadPipelineConfig(BinaryReader* reader, size_t num_threads_override,
                          IncrementalPipelineConfig* config);

/// Cached (pair, score) entries, the score-cache section of every layout.
using ScoreList = std::vector<std::pair<RecordPair, double>>;

/// Write `scores` sorted by pair: u64 count, then pair + f64 per entry.
void WriteScoreList(ScoreList scores, BinaryWriter* writer);

/// Read WriteScoreList output (ReadSortedPairList: canonical pairs in
/// [0, num_records), strictly ascending).
Status ReadScoreList(BinaryReader* reader, size_t num_records,
                     ScoreList* scores);

/// Consume the two cumulative wall-clock doubles (scoring, then cleanup
/// seconds) that close a legacy version 1 or 2 image body or manifest
/// body. Version 3 stores no wall clock.
Status SkipLegacyWallClock(BinaryReader* reader);

/// The cumulative matcher-call and cache-hit counters, two u64s.
void WriteMatcherCounters(size_t matcher_calls, size_t cache_hits,
                          BinaryWriter* writer);
Status ReadMatcherCounters(BinaryReader* reader, size_t* matcher_calls,
                           size_t* cache_hits);

}  // namespace gralmatch

#endif  // GRALMATCH_STREAM_INCREMENTAL_PIPELINE_H_
