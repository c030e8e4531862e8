#include "shard/sharded_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "core/score_batching.h"
#include "exec/parallel.h"
#include "obs/metrics.h"

namespace gralmatch {

ShardedPipeline::ShardedPipeline(ShardedPipelineConfig config)
    : config_(config),
      router_(config.num_shards, config.router_seed),
      pool_(MaybeMakePool(config.base.pipeline.num_threads)),
      shards_(router_.num_shards()),
      exchange_(config.base) {
  config_.num_shards = router_.num_shards();  // clamped to >= 1
}

ShardedPipeline::~ShardedPipeline() = default;

Status ShardedPipeline::PoisonError() const {
  return Status::Internal(
      "sharded pipeline is poisoned (" + poison_reason_ +
      "); its state is inconsistent — discard this instance and restore "
      "from a checkpoint");
}

Status ShardedPipeline::status() const {
  return poisoned_ ? PoisonError() : Status::OK();
}

size_t ShardedPipeline::total_matcher_calls() const {
  size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.matcher_calls;
  return total;
}

size_t ShardedPipeline::total_cache_hits() const {
  size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.cache_hits;
  return total;
}

Status ShardedPipeline::ValidateRemovals(
    const std::vector<RecordId>& ids) const {
  std::unordered_set<RecordId> seen;
  for (RecordId id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= records_.size()) {
      return Status::InvalidArgument("cannot remove record " +
                                     std::to_string(id) +
                                     ": id out of range");
    }
    if (!alive_[static_cast<size_t>(id)]) {
      return Status::InvalidArgument("cannot remove record " +
                                     std::to_string(id) +
                                     ": already tombstoned");
    }
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("cannot remove record " +
                                     std::to_string(id) +
                                     ": duplicated in the removal set");
    }
  }
  return Status::OK();
}

Result<IngestReport> ShardedPipeline::Ingest(const std::vector<Record>& batch,
                                             const PairwiseMatcher& matcher) {
  if (poisoned_) return PoisonError();
  try {
    return MutateImpl(batch, {}, matcher);
  } catch (const std::exception& e) {
    poisoned_ = true;
    poison_reason_ = std::string("an ingest aborted mid-way: ") + e.what();
    return PoisonError();
  } catch (...) {
    poisoned_ = true;
    poison_reason_ = "an ingest aborted mid-way: non-standard exception";
    return PoisonError();
  }
}

Result<IngestReport> ShardedPipeline::Remove(const std::vector<RecordId>& ids,
                                             const PairwiseMatcher& matcher) {
  if (poisoned_) return PoisonError();
  GRALMATCH_RETURN_NOT_OK(ValidateRemovals(ids));
  try {
    return MutateImpl({}, ids, matcher);
  } catch (const std::exception& e) {
    poisoned_ = true;
    poison_reason_ = std::string("a removal aborted mid-way: ") + e.what();
    return PoisonError();
  } catch (...) {
    poisoned_ = true;
    poison_reason_ = "a removal aborted mid-way: non-standard exception";
    return PoisonError();
  }
}

Result<IngestReport> ShardedPipeline::Update(
    const std::vector<RecordUpdate>& batch, const PairwiseMatcher& matcher) {
  if (poisoned_) return PoisonError();
  std::vector<RecordId> ids;
  std::vector<Record> adds;
  ids.reserve(batch.size());
  adds.reserve(batch.size());
  for (const RecordUpdate& update : batch) {
    ids.push_back(update.id);
    adds.push_back(update.record);
  }
  GRALMATCH_RETURN_NOT_OK(ValidateRemovals(ids));
  try {
    return MutateImpl(adds, ids, matcher);
  } catch (const std::exception& e) {
    poisoned_ = true;
    poison_reason_ = std::string("an update aborted mid-way: ") + e.what();
    return PoisonError();
  } catch (...) {
    poisoned_ = true;
    poison_reason_ = "an update aborted mid-way: non-standard exception";
    return PoisonError();
  }
}

IngestReport ShardedPipeline::MutateImpl(
    const std::vector<Record>& adds, const std::vector<RecordId>& removal_ids,
    const PairwiseMatcher& matcher) {
  const size_t num_shards = shards_.size();
  const obs::PipelineMetrics metrics =
      obs::PipelineMetrics::Create(config_.base.pipeline.metrics);
  IngestReport report;
  report.records_added = adds.size();
  report.records_removed = removal_ids.size();

  Stopwatch route_watch;
  // Phase 1 — route. Records keep global contiguous ids; the router only
  // decides which shard-local state owns them. Tombstoned records keep
  // their slot in the table and their owner's `owned` list (checkpoint
  // reassembly needs every id to have exactly one provider).
  const size_t old_n = records_.size();
  for (const Record& rec : adds) {
    const size_t shard = router_.ShardOf(rec);
    const RecordId id = records_.Add(rec);
    shard_of_record_.push_back(static_cast<uint32_t>(shard));
    shards_[shard].owned.push_back(id);
  }
  const size_t new_n = records_.size();
  alive_.resize(new_n, 1);
  for (RecordId id : removal_ids) alive_[static_cast<size_t>(id)] = 0;
  num_dead_ += removal_ids.size();
  store_.EnsureNumRecords(new_n);

  // A fingerprint change invalidates every shard's cache at once — the
  // fingerprint is pipeline-global, exactly as in the single pipeline.
  const std::string fingerprint = matcher.Fingerprint();
  const bool rescore_all = !fingerprint_.empty() && fingerprint != fingerprint_;
  if (rescore_all) {
    for (ShardState& shard : shards_) shard.score_cache.clear();
  }
  fingerprint_ = fingerprint;
  if (metrics.route_seconds != nullptr) {
    metrics.route_seconds->Observe(route_watch.ElapsedSeconds());
  }

  Stopwatch exchange_watch;
  // Phase 2 — candidate exchange. Retraction first: the exchange pulls the
  // tombstoned records' keys out of the global indexes (re-extracted from
  // the retained payloads — no shard republishes anything). Then each shard
  // extracts (publishes) the blocking keys of the new records it owns and
  // the exchange folds every publication in. Both rounds return exact
  // global deltas; the candidate transitions below diff a pre-mutation
  // snapshot against the final state, so they are independent of this
  // internal order.
  CandidateExchange::Deltas retractions;
  if (!removal_ids.empty()) {
    retractions = exchange_.Retract(records_, removal_ids, pool_.get());
  }
  std::vector<RecordKeys> published(new_n - old_n);
  std::vector<std::vector<RecordId>> new_by_shard(num_shards);
  for (size_t id = old_n; id < new_n; ++id) {
    new_by_shard[shard_of_record_[id]].push_back(static_cast<RecordId>(id));
  }
  ParallelFor(pool_.get(), 0, num_shards, [&](size_t s) {
    for (const RecordId id : new_by_shard[s]) {
      RecordKeys& keys = published[static_cast<size_t>(id) - old_n];
      if (config_.base.use_id_blocker) {
        keys.id_keys = IncrementalIdOverlapIndex::ExtractKeys(records_.at(id));
      }
      if (config_.base.use_token_blocker) {
        keys.token_keys =
            IncrementalTokenOverlapIndex::ExtractKeys(records_.at(id));
      }
    }
  });
  CandidateExchange::Deltas deltas =
      exchange_.Exchange(records_, std::move(published), pool_.get());

  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_prov;
  auto apply_delta = [&](const CandidateDelta& delta, uint32_t bit) {
    for (const RecordPair& pair : delta.added) {
      uint32_t& prov = candidate_prov_[pair];
      old_prov.emplace(pair, prov);
      prov |= bit;
    }
    for (const RecordPair& pair : delta.removed) {
      auto it = candidate_prov_.find(pair);
      old_prov.emplace(pair, it->second);
      it->second &= ~bit;
    }
  };
  if (config_.base.use_id_blocker) {
    apply_delta(retractions.id, kBlockerIdOverlap);
    apply_delta(deltas.id, kBlockerIdOverlap);
  }
  if (config_.base.use_token_blocker) {
    apply_delta(retractions.token, kBlockerTokenOverlap);
    apply_delta(deltas.token, kBlockerTokenOverlap);
  }

  // A pair whose final provenance is 0 leaves the candidate set — also one
  // that was absent before and that one delta added and another retracted
  // within this pass: no zero-provenance entry may survive the pass.
  std::vector<RecordPair> cand_added, cand_removed, prov_changed;
  for (const auto& [pair, before] : old_prov) {
    const uint32_t now = candidate_prov_.at(pair);
    if (now == 0) {
      if (before != 0) cand_removed.push_back(pair);
      candidate_prov_.erase(pair);
    } else if (before == 0) {
      cand_added.push_back(pair);
    } else if (before != now) {
      prov_changed.push_back(pair);
    }
  }
  std::sort(cand_added.begin(), cand_added.end());
  std::sort(cand_removed.begin(), cand_removed.end());
  std::sort(prov_changed.begin(), prov_changed.end());
  report.candidates_added = cand_added.size();
  report.candidates_removed = cand_removed.size();
  if (metrics.exchange_seconds != nullptr) {
    metrics.exchange_seconds->Observe(exchange_watch.ElapsedSeconds());
  }

  // Evict cached scores touching a tombstoned record from their owner
  // shards. Ids never recycle, so an evicted entry can never be asked for
  // again; surviving entries keep serving re-admitted pairs. Unaffected
  // pairs are deliberately NOT rescored — deletion must not spend matcher
  // calls on them. The summed eviction count equals the single pipeline's.
  if (!removal_ids.empty()) {
    std::vector<char> removed_now(new_n, 0);
    for (RecordId id : removal_ids) removed_now[static_cast<size_t>(id)] = 1;
    for (ShardState& shard : shards_) {
      for (auto it = shard.score_cache.begin();
           it != shard.score_cache.end();) {
        if (removed_now[static_cast<size_t>(it->first.a)] ||
            removed_now[static_cast<size_t>(it->first.b)]) {
          it = shard.score_cache.erase(it);
          ++report.cache_evictions;
        } else {
          ++it;
        }
      }
    }
  }

  // Phase 3 — shard-parallel scoring. Every pair is checked against (and
  // cached in) its owner shard's cache only; ownership is stable, so no
  // pair is ever scored twice pipeline-wide per fingerprint.
  std::vector<std::vector<RecordPair>> to_score(num_shards);
  if (rescore_all) {
    for (const auto& [pair, prov] : candidate_prov_) {
      to_score[OwnerOf(pair)].push_back(pair);
    }
  } else {
    for (const RecordPair& pair : cand_added) {
      ShardState& owner = shards_[OwnerOf(pair)];
      if (owner.score_cache.count(pair)) {
        ++owner.cache_hits;
        ++report.cache_hits;
      } else {
        to_score[OwnerOf(pair)].push_back(pair);
      }
    }
  }
  // Flatten with per-shard slices contiguous: shards score concurrently on
  // the shared pool, and a shard's slice parallelizes internally too.
  std::vector<RecordPair> flat;
  for (std::vector<RecordPair>& pairs : to_score) {
    std::sort(pairs.begin(), pairs.end());
    flat.insert(flat.end(), pairs.begin(), pairs.end());
  }
  // Batched scoring over the flattened list (core/score_batching.h): scores
  // do not depend on the chunk layout, so results are bitwise-identical to
  // per-pair at any thread count.
  Stopwatch scoring_watch;
  std::vector<double> scores(flat.size(), 0.0);
  {
    CascadeStatsScope cascade_scope(matcher, metrics.cascade_gate_resolved,
                                    metrics.cascade_escalated);
    ScorePairsBatched(pool_.get(), records_, matcher,
                      Span<const RecordPair>(flat.data(), flat.size()),
                      config_.base.pipeline.score_batch_size,
                      Span<double>(scores.data(), scores.size()));
  }
  report.scoring_seconds = scoring_watch.ElapsedSeconds();
  scoring_seconds_total_ += report.scoring_seconds;
  for (size_t k = 0; k < flat.size(); ++k) {
    shards_[OwnerOf(flat[k])].score_cache[flat[k]] = scores[k];
  }
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s].matcher_calls += to_score[s].size();
  }
  report.pairs_scored = flat.size();

  // Positive-edge transitions, tracked per owner shard but merged into one
  // global stream for the component store.
  const double threshold = config_.base.pipeline.match_threshold;
  std::vector<RecordPair> pos_added, pos_removed, pos_prov_changed;
  if (rescore_all) {
    std::vector<std::unordered_set<RecordPair, RecordPairHash>> now_positive(
        num_shards);
    for (const auto& [pair, prov] : candidate_prov_) {
      const size_t owner = OwnerOf(pair);
      if (shards_[owner].score_cache.at(pair) >= threshold) {
        now_positive[owner].insert(pair);
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      for (const RecordPair& pair : now_positive[s]) {
        if (!shards_[s].positives.count(pair)) pos_added.push_back(pair);
      }
      for (const RecordPair& pair : shards_[s].positives) {
        if (!now_positive[s].count(pair)) pos_removed.push_back(pair);
      }
      shards_[s].positives = std::move(now_positive[s]);
    }
  } else {
    for (const RecordPair& pair : cand_added) {
      ShardState& owner = shards_[OwnerOf(pair)];
      if (owner.score_cache.at(pair) >= threshold) {
        owner.positives.insert(pair);
        pos_added.push_back(pair);
      }
    }
    for (const RecordPair& pair : cand_removed) {
      if (shards_[OwnerOf(pair)].positives.erase(pair) > 0) {
        pos_removed.push_back(pair);
      }
    }
    for (const RecordPair& pair : prov_changed) {
      if (shards_[OwnerOf(pair)].positives.count(pair)) {
        pos_prov_changed.push_back(pair);
      }
    }
  }
  std::sort(pos_added.begin(), pos_added.end());
  std::sort(pos_removed.begin(), pos_removed.end());
  std::sort(pos_prov_changed.begin(), pos_prov_changed.end());

  // Phase 4 — cross-shard merge: union the per-shard transitions into the
  // global component store and re-clean the dirty region.
  Stopwatch cleanup_watch;
  GroupStore::ApplyReport cleanup = store_.Apply(
      pos_added, pos_removed, pos_prov_changed, rescore_all,
      [this](const RecordPair& pair) { return candidate_prov_.at(pair); },
      config_.base.pipeline, pool_.get());
  report.components_rebuilt = cleanup.components_rebuilt;
  report.components_reused = cleanup.components_reused;
  report.cleanup_seconds = cleanup_watch.ElapsedSeconds();
  cleanup_seconds_total_ += report.cleanup_seconds;

  // Observability rollup (null-guarded, inert: the report is the semantic
  // output and does not depend on whether a registry is wired). The merge
  // phase doubles as the cleanup phase here, so it feeds both histograms.
  if (config_.base.pipeline.metrics != nullptr) {
    metrics.scoring_seconds->Observe(report.scoring_seconds);
    metrics.merge_seconds->Observe(report.cleanup_seconds);
    metrics.cleanup_seconds->Observe(report.cleanup_seconds);
    metrics.mutations->Increment();
    metrics.records_added->Increment(report.records_added);
    metrics.records_removed->Increment(report.records_removed);
    metrics.pairs_scored->Increment(report.pairs_scored);
    metrics.cache_hits->Increment(report.cache_hits);
    metrics.cache_evictions->Increment(report.cache_evictions);
    metrics.components_rebuilt->Increment(report.components_rebuilt);
    metrics.components_reused->Increment(report.components_reused);
  }
  return report;
}

Result<PipelineResult> ShardedPipeline::Snapshot() const {
  if (poisoned_) return PoisonError();
  PipelineResult result;
  for (const ShardState& shard : shards_) {
    result.predicted_pairs.insert(result.predicted_pairs.end(),
                                  shard.positives.begin(),
                                  shard.positives.end());
  }
  std::sort(result.predicted_pairs.begin(), result.predicted_pairs.end());
  store_.FillSnapshot(records_.size(), &alive_, &result);
  result.cleanup_stats.seconds = cleanup_seconds_total_;
  result.inference_seconds = scoring_seconds_total_;
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint bodies
// ---------------------------------------------------------------------------

Status ShardedPipeline::SerializeManifestBody(BinaryWriter* writer) const {
  if (poisoned_) return PoisonError();
  writer->WriteU64(config_.base.pipeline.cleanup.gamma);
  writer->WriteU64(config_.base.pipeline.cleanup.mu);
  writer->WriteDouble(config_.base.pipeline.match_threshold);
  writer->WriteU64(config_.base.pipeline.pre_cleanup_threshold);
  writer->WriteU64(config_.base.pipeline.num_threads);
  writer->WriteU64(config_.base.token.top_n);
  writer->WriteU64(config_.base.token.min_overlap);
  writer->WriteDouble(config_.base.token.max_token_df);
  writer->WriteU8(config_.base.use_token_blocker ? 1 : 0);
  writer->WriteU8(config_.base.use_id_blocker ? 1 : 0);
  writer->WriteU64(config_.num_shards);
  writer->WriteU64(config_.router_seed);
  writer->WriteString(fingerprint_);
  writer->WriteU64(records_.size());
  writer->WriteI32(store_.next_comp_id());
  writer->WriteDouble(scoring_seconds_total_);
  writer->WriteDouble(cleanup_seconds_total_);
  return Status::OK();
}

Status ShardedPipeline::SerializeShardBodies(
    std::vector<BinaryWriter>* writers) const {
  if (poisoned_) return PoisonError();
  // A component is stored with the shard owning its smallest node — one
  // owner per component, every component stored exactly once. One pass
  // buckets the whole store by owner shard.
  std::vector<std::vector<std::pair<int32_t, const GroupStore::ComponentState*>>>
      owned(shards_.size());
  for (const auto& [cid, comp] : store_.components()) {
    owned[shard_of_record_[static_cast<size_t>(comp.nodes.front())]]
        .emplace_back(cid, &comp);
  }
  writers->clear();
  writers->resize(shards_.size());
  // Tombstone sections are all-or-none across the shard files: they exist
  // exactly when the pipeline has any dead record (then the whole
  // checkpoint is stamped version 2), so a shard with no dead records still
  // writes an empty section and every file parses under one version.
  const bool with_tombstones = num_dead_ > 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].Save(records_, alive_, with_tombstones, owned[s],
                    &(*writers)[s]);
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardedPipeline>> ShardedPipeline::DeserializeFromParts(
    BinaryReader* manifest_body, std::vector<BinaryReader>* shard_bodies,
    uint32_t version, size_t num_threads_override) {
  ShardedPipelineConfig config;
  uint64_t u = 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&u));
  config.base.pipeline.cleanup.gamma = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&u));
  config.base.pipeline.cleanup.mu = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(
      manifest_body->ReadDouble(&config.base.pipeline.match_threshold));
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&u));
  config.base.pipeline.pre_cleanup_threshold = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&u));
  config.base.pipeline.num_threads = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&u));
  config.base.token.top_n = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&u));
  config.base.token.min_overlap = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(
      manifest_body->ReadDouble(&config.base.token.max_token_df));
  uint8_t flag = 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU8(&flag));
  config.base.use_token_blocker = flag != 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU8(&flag));
  config.base.use_id_blocker = flag != 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&u));
  config.num_shards = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&config.router_seed));
  if (config.num_shards == 0 ||
      config.num_shards != shard_bodies->size()) {
    return Status::IOError(
        "corrupted manifest: shard count disagrees with the shard files");
  }
  if (num_threads_override > 0) {
    config.base.pipeline.num_threads = num_threads_override;
  }

  auto pipeline = std::make_unique<ShardedPipeline>(config);
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadString(&pipeline->fingerprint_));
  uint64_t num_records = 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&num_records));
  const size_t n = static_cast<size_t>(num_records);
  int32_t next_comp_id = 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadI32(&next_comp_id));
  GRALMATCH_RETURN_NOT_OK(
      manifest_body->ReadDouble(&pipeline->scoring_seconds_total_));
  GRALMATCH_RETURN_NOT_OK(
      manifest_body->ReadDouble(&pipeline->cleanup_seconds_total_));

  // Parse every shard's slice, then reassemble the global record table:
  // the ids must tile [0, n) exactly, and each record must route to the
  // shard that stored it (otherwise pair ownership — and with it every
  // cache lookup — would disagree with the saved state).
  std::vector<ShardCheckpointPart> parts;
  parts.reserve(shard_bodies->size());
  for (BinaryReader& body : *shard_bodies) {
    auto part = ShardCheckpointPart::Parse(&body, n, version);
    if (!part.ok()) return part.status();
    parts.push_back(std::move(part).MoveValueUnsafe());
  }
  std::vector<Record> table(n);
  std::vector<int32_t> provider(n, -1);
  for (size_t s = 0; s < parts.size(); ++s) {
    for (auto& [id, rec] : parts[s].records) {
      if (provider[static_cast<size_t>(id)] != -1) {
        return Status::IOError(
            "corrupted shard checkpoint: record stored by two shards");
      }
      provider[static_cast<size_t>(id)] = static_cast<int32_t>(s);
      table[static_cast<size_t>(id)] = std::move(rec);
    }
  }
  for (size_t id = 0; id < n; ++id) {
    if (provider[id] < 0) {
      return Status::IOError(
          "corrupted shard checkpoint: record ids do not cover the record "
          "table (missing id " +
          std::to_string(id) + ")");
    }
    pipeline->records_.Add(std::move(table[id]));
    pipeline->shard_of_record_.push_back(static_cast<uint32_t>(provider[id]));
  }
  for (size_t id = 0; id < n; ++id) {
    if (pipeline->router_.ShardOf(
            pipeline->records_.at(static_cast<RecordId>(id))) !=
        static_cast<size_t>(provider[id])) {
      return Status::IOError(
          "corrupted shard checkpoint: record stored on a shard the router "
          "does not map it to");
    }
  }

  // Tombstones, merged from every shard's section (each shard stores the
  // dead ids it owns; Parse verified they reference that shard's records,
  // which are globally unique, so no id can arrive twice).
  pipeline->alive_.assign(n, 1);
  std::vector<RecordId> dead_ids;
  for (const ShardCheckpointPart& part : parts) {
    for (RecordId id : part.tombstones) {
      pipeline->alive_[static_cast<size_t>(id)] = 0;
      dead_ids.push_back(id);
    }
  }
  std::sort(dead_ids.begin(), dead_ids.end());
  pipeline->num_dead_ = dead_ids.size();

  // Tombstoned records retract every pair they touch, so a cached score or
  // positive referencing one is corruption.
  auto check_alive = [&pipeline](const RecordPair& pair) {
    if (!pipeline->alive_[static_cast<size_t>(pair.a)] ||
        !pipeline->alive_[static_cast<size_t>(pair.b)]) {
      return Status::IOError(
          "corrupted shard checkpoint: record pair references a tombstoned "
          "record");
    }
    return Status::OK();
  };

  // Shard-local scoring state; every pair must be owned by its shard.
  for (size_t s = 0; s < parts.size(); ++s) {
    ShardState& shard = pipeline->shards_[s];
    shard.owned.reserve(parts[s].records.size());
    for (const auto& [id, rec] : parts[s].records) shard.owned.push_back(id);
    for (const auto& [pair, score] : parts[s].score_cache) {
      if (pipeline->OwnerOf(pair) != s) {
        return Status::IOError(
            "corrupted shard checkpoint: cached score for a pair another "
            "shard owns");
      }
      GRALMATCH_RETURN_NOT_OK(check_alive(pair));
    }
    shard.score_cache = std::move(parts[s].score_cache);
    for (const RecordPair& pair : parts[s].positives) {
      if (pipeline->OwnerOf(pair) != s) {
        return Status::IOError(
            "corrupted shard checkpoint: positive pair another shard owns");
      }
      GRALMATCH_RETURN_NOT_OK(check_alive(pair));
      if (!shard.positives.insert(pair).second) {
        return Status::IOError(
            "corrupted shard checkpoint: duplicate positive pair");
      }
    }
    shard.matcher_calls = parts[s].matcher_calls;
    shard.cache_hits = parts[s].cache_hits;
  }

  // Rebuild the global blocking state from the reassembled record table and
  // tombstone set — index state is a pure function of (records,
  // tombstones), so one bulk publication round plus one bulk retraction
  // reproduces exactly what the saved exchange held — and derive the
  // candidate set from it.
  pipeline->exchange_.RebuildFromRecords(pipeline->records_, dead_ids,
                                         pipeline->pool_.get());
  if (config.base.use_id_blocker) {
    for (const RecordPair& pair :
         pipeline->exchange_.id_index().CurrentPairs()) {
      pipeline->candidate_prov_[pair] |= kBlockerIdOverlap;
    }
  }
  if (config.base.use_token_blocker) {
    for (const RecordPair& pair :
         pipeline->exchange_.token_index().CurrentPairs()) {
      pipeline->candidate_prov_[pair] |= kBlockerTokenOverlap;
    }
  }

  // Cross-shard invariants, mirroring the single-pipeline checkpoint: every
  // candidate scored in its owner's cache, every positive a candidate, and
  // a pre-ingest fingerprint only with empty state.
  for (const auto& [pair, prov] : pipeline->candidate_prov_) {
    if (!pipeline->shards_[pipeline->OwnerOf(pair)].score_cache.count(pair)) {
      return Status::IOError(
          "corrupted shard checkpoint: candidate pair without a cached "
          "score");
    }
  }
  bool any_state = !pipeline->candidate_prov_.empty();
  for (const ShardState& shard : pipeline->shards_) {
    any_state = any_state || !shard.score_cache.empty() ||
                !shard.positives.empty();
    for (const RecordPair& pair : shard.positives) {
      if (!pipeline->candidate_prov_.count(pair)) {
        return Status::IOError(
            "corrupted shard checkpoint: positive pair missing from the "
            "candidate set");
      }
    }
  }
  if (pipeline->fingerprint_.empty() && (n != 0 || any_state)) {
    return Status::IOError(
        "corrupted shard checkpoint: pre-ingest fingerprint with non-empty "
        "state");
  }

  // Global components, reassembled from their owner shards.
  pipeline->store_.EnsureNumRecords(n);
  for (size_t s = 0; s < parts.size(); ++s) {
    for (auto& [cid, comp] : parts[s].components) {
      if (comp.nodes.empty()) {
        return Status::IOError("corrupted checkpoint: empty component");
      }
      if (pipeline->shard_of_record_[static_cast<size_t>(
              comp.nodes.front())] != s) {
        return Status::IOError(
            "corrupted shard checkpoint: component stored on a shard that "
            "does not own its smallest node");
      }
      GRALMATCH_RETURN_NOT_OK(
          pipeline->store_.InsertComponent(cid, std::move(comp), n));
    }
  }
  pipeline->store_.SetNextComponentId(next_comp_id);
  // A tombstoned record has lost every positive edge, so it must have left
  // its component (Snapshot relies on this to skip dead singletons).
  for (size_t r = 0; r < n; ++r) {
    if (!pipeline->alive_[r] && pipeline->store_.comp_of_node()[r] >= 0) {
      return Status::IOError(
          "corrupted shard checkpoint: tombstoned record still inside a "
          "component");
    }
  }
  GRALMATCH_RETURN_NOT_OK(
      pipeline->store_.Validate([&pipeline](const RecordPair& pair) {
        return pipeline->shards_[pipeline->OwnerOf(pair)].positives.count(
                   pair) > 0;
      }));
  return pipeline;
}

}  // namespace gralmatch
