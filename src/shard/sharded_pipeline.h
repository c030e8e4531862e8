#ifndef GRALMATCH_SHARD_SHARDED_PIPELINE_H_
#define GRALMATCH_SHARD_SHARDED_PIPELINE_H_

/// \file sharded_pipeline.h
/// Sharded matching: record routing plus a partitioned checkpoint layout
/// over one incremental engine.
///
/// Blocking, scoring and cleanup are global computations — a token's
/// document frequency, an identifier bucket's size and a component's
/// cleanup all depend on records of every shard — so the pipeline runs
/// them once, in one owned IncrementalPipeline (stream/incremental_pipeline.h).
/// The engine holds all matching state: records, tombstones, blocking
/// indexes, the score cache, the positive set and the component store, and
/// it is the only mutation path. This layer adds two things:
///
///  1. Routing: after every engine call, a deterministic content-hash
///     ShardRouter (shard_router.h) assigns each record the call appended to
///     a shard. Record ids stay global and contiguous. A pair belongs to the
///     shard of its smaller record id, a component to the shard of its
///     smallest node.
///  2. Checkpoint layout: shards partition the checkpoint, not the
///     computation. Each shard file holds the shard's records and
///     tombstones, the cached scores and positives of the pairs it owns,
///     and the components it owns; a manifest ties the files together and
///     carries the engine-wide blocking state (serve/sharded_checkpoint.h).
///     Loading reassembles one engine and finishes through the engine's
///     own restore checks.
///
/// Schedule-equivalence contract (enforced by
/// tests/pipeline_equivalence_test.cc): after ANY interleaved
/// add/update/delete schedule, at any shard count and thread count,
/// Snapshot() and every IngestReport equal IncrementalPipeline's on the
/// same schedule, and Snapshot() equals a from-scratch
/// EntityGroupPipeline::Run on the surviving records.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/record.h"
#include "matching/matcher.h"
#include "shard/shard_router.h"
#include "stream/incremental_pipeline.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;

/// Parameters of the sharded pipeline: the incremental pipeline's config
/// plus the partitioning.
struct ShardedPipelineConfig {
  /// Blocking/threshold/cleanup/num_threads semantics are exactly the
  /// incremental pipeline's (the engine runs with this config).
  IncrementalPipelineConfig base;
  /// Number of shards (clamped to at least 1).
  size_t num_shards = 1;
  /// Router seed: changes the partition, never the result.
  uint64_t router_seed = 0;
};

/// \brief Sharded incremental entity-group matching pipeline.
class ShardedPipeline {
 public:
  explicit ShardedPipeline(ShardedPipelineConfig config);
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// IncrementalPipeline::Ingest, then route the new records. Report,
  /// fingerprint handling and the poison fail-fast are the engine's.
  Result<IngestReport> Ingest(const std::vector<Record>& batch,
                              const PairwiseMatcher& matcher);

  /// IncrementalPipeline::Remove: every id must be in range, alive and
  /// unique — a bad set is an InvalidArgument error and mutates nothing.
  /// Tombstoned records keep their slot and their shard.
  Result<IngestReport> Remove(const std::vector<RecordId>& ids,
                              const PairwiseMatcher& matcher);

  /// IncrementalPipeline::Update, then route the replacement records. A
  /// rejected batch appends, and so routes, nothing.
  Result<IngestReport> Update(const std::vector<RecordUpdate>& batch,
                              const PairwiseMatcher& matcher);

  /// Current result; see the schedule-equivalence contract above.
  Result<PipelineResult> Snapshot() const { return engine_.Snapshot(); }

  /// OK, or the poison error describing why the pipeline must be discarded.
  Status status() const { return engine_.status(); }

  /// All ingested records in ingest order, ids assigned contiguously
  /// (global ids — shard membership never renumbers a record). Tombstoned
  /// records keep their slot; check is_alive().
  const RecordTable& records() const { return engine_.records(); }

  /// Liveness per record id (parallel to records()); 1 = alive.
  const std::vector<char>& alive() const { return engine_.alive(); }
  /// False for tombstoned and out-of-range ids.
  bool is_alive(RecordId id) const { return engine_.is_alive(id); }
  size_t num_dead() const { return engine_.num_dead(); }
  size_t num_live() const { return engine_.num_live(); }

  const ShardedPipelineConfig& config() const { return config_; }

  /// Re-wire the observability sink. Runtime-only — never serialized into
  /// the manifest or shard bodies — so a pipeline restored from a sharded
  /// checkpoint always comes back uninstrumented; call this to resume
  /// recording into a caller-owned registry.
  void set_metrics(obs::MetricsRegistry* metrics) {
    config_.base.pipeline.metrics = metrics;
    engine_.set_metrics(metrics);
  }

  size_t num_shards() const { return router_.num_shards(); }

  /// Records (live or tombstoned) routed to `shard`.
  size_t ShardRecordCount(size_t shard) const;

  /// Fingerprint of the matcher used by the last mutation ("" before the
  /// first); the manifest stores it like the single-file checkpoint does.
  const std::string& fingerprint() const { return engine_.fingerprint(); }

  /// Cumulative matcher invocations / cache hits, pipeline-wide.
  size_t total_matcher_calls() const { return engine_.total_matcher_calls(); }
  size_t total_cache_hits() const { return engine_.total_cache_hits(); }

  // -- Checkpoint bodies ----------------------------------------------------
  // Framing (magic, version, per-file checksums, the manifest's per-shard
  // checksum list) is serve/sharded_checkpoint.h's job; the byte layouts
  // are in docs/formats.md.

  /// Global state: config (shard count and router seed included),
  /// fingerprint, record count, component-id high-water mark, and the
  /// engine's blocking state (both index states and the candidate
  /// provenance, through the image body's section codec). Everything else
  /// lives in shard bodies.
  Status SerializeManifestBody(BinaryWriter* writer) const;

  /// Every shard's slice, one writer per shard (`writers` is resized to
  /// num_shards()): its records (with global ids), its tombstones, the
  /// scores and positives of the pairs it owns, the
  /// matcher-call and cache-hit counters (shard 0 carries the pipeline
  /// totals, the others 0), and the components it owns. One pass buckets
  /// each piece of engine state by owner shard.
  Status SerializeShardBodies(std::vector<BinaryWriter>* writers) const;

  /// Reassemble a pipeline from a manifest body and all S shard bodies (in
  /// shard order), parsed under checkpoint format `version`. The layout is
  /// checked here: record ids must tile [0, n) exactly, each record must
  /// route to the shard that stored it, each tombstone, cached score,
  /// positive and component must sit with its owner shard, and no positive
  /// may appear twice. Counter slots are summed across shards. Components
  /// are inserted once every shard's positives are merged, and each stored
  /// edge list must equal the one the merged set derives. The engine's
  /// restore then re-verifies every cross-field invariant, the stored
  /// provenance against the one the indexes derive included; legacy
  /// (version 1 and 2) directories store no index state, so for them it
  /// rebuilds the indexes from the records and tombstones first. Any
  /// violation is a clean error.
  static Result<std::unique_ptr<ShardedPipeline>> DeserializeFromParts(
      BinaryReader* manifest_body, std::vector<BinaryReader>* shard_bodies,
      uint32_t version, size_t num_threads_override = 0);

 private:
  /// Route the records the engine appended since the last call, then pass
  /// the call's result through. Runs after every engine call, whatever its
  /// outcome, so shard_of_record_ always covers records().
  Result<IngestReport> Routed(Result<IngestReport> result);

  /// Owner shard of a pair: the shard of its smaller record id.
  size_t OwnerOf(const RecordPair& pair) const {
    return shard_of_record_[static_cast<size_t>(pair.a)];
  }

  ShardedPipelineConfig config_;
  ShardRouter router_;
  IncrementalPipeline engine_;
  /// Shard per record id (parallel to records()).
  std::vector<uint32_t> shard_of_record_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_SHARD_SHARDED_PIPELINE_H_
