#include "stream/incremental_pipeline.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "core/score_batching.h"
#include "exec/parallel.h"
#include "obs/metrics.h"

namespace gralmatch {

IncrementalPipeline::IncrementalPipeline(IncrementalPipelineConfig config)
    : config_(config),
      pool_(MaybeMakePool(config.pipeline.num_threads)),
      token_index_(config.token) {}

IncrementalPipeline::~IncrementalPipeline() = default;

Status IncrementalPipeline::PoisonError() const {
  return Status::Internal(
      "incremental pipeline is poisoned (" + poison_reason_ +
      "); its state is inconsistent — discard this instance and restore "
      "from a checkpoint");
}

Status IncrementalPipeline::status() const {
  return poisoned_ ? PoisonError() : Status::OK();
}

Status IncrementalPipeline::ValidateRemovals(
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

Result<IngestReport> IncrementalPipeline::Ingest(
    const std::vector<Record>& batch, const PairwiseMatcher& matcher) {
  if (poisoned_) return PoisonError();
  return GuardedMutate("an ingest", batch, {}, matcher);
}

Result<IngestReport> IncrementalPipeline::Remove(
    const std::vector<RecordId>& ids, const PairwiseMatcher& matcher) {
  if (poisoned_) return PoisonError();
  GRALMATCH_RETURN_NOT_OK(ValidateRemovals(ids));
  return GuardedMutate("a removal", {}, ids, matcher);
}

Result<IngestReport> IncrementalPipeline::Update(
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
  return GuardedMutate("an update", adds, ids, matcher);
}

Result<IngestReport> IncrementalPipeline::GuardedMutate(
    const char* verb_phrase, const std::vector<Record>& adds,
    const std::vector<RecordId>& removal_ids, const PairwiseMatcher& matcher) {
  std::string reason;
  try {
    return MutateImpl(adds, removal_ids, matcher);
  } catch (const std::exception& e) {
    reason = e.what();
  } catch (...) {
    reason = "non-standard exception";
  }
  poisoned_ = true;
  poison_reason_ = std::string(verb_phrase) + " aborted mid-way: " + reason;
  return PoisonError();
}

IngestReport IncrementalPipeline::MutateImpl(
    const std::vector<Record>& adds, const std::vector<RecordId>& removal_ids,
    const PairwiseMatcher& matcher) {
  const obs::PipelineMetrics metrics =
      obs::PipelineMetrics::Create(config_.pipeline.metrics);
  // Spans the whole mutation, so the phase histograms below (disjoint
  // stopwatches inside it) sum to at most this one.
  obs::TraceScope mutation_span(metrics.mutation_seconds);
  IngestReport report;
  report.records_added = adds.size();
  report.records_removed = removal_ids.size();
  for (const Record& rec : adds) records_.Add(rec);
  alive_.resize(records_.size(), 1);
  cached_partners_.resize(records_.size());
  for (RecordId id : removal_ids) alive_[static_cast<size_t>(id)] = 0;
  num_dead_ += removal_ids.size();
  store_.EnsureNumRecords(records_.size());

  // A fingerprint change means every cached score is stale: clear the cache
  // and re-derive the positive set and every component from fresh scores.
  const std::string fingerprint = matcher.Fingerprint();
  const bool rescore_all = !fingerprint_.empty() && fingerprint != fingerprint_;
  if (rescore_all) {
    score_cache_.clear();
    for (std::vector<RecordId>& partners : cached_partners_) partners.clear();
  }
  fingerprint_ = fingerprint;

  // Blocking: fold each index's deltas into the candidate set, snapshotting
  // each touched pair's pre-mutation provenance once. Retraction runs
  // before absorption per index; the candidate transitions below diff the
  // pre-mutation snapshot against the final state, so they are independent
  // of this internal order.
  Stopwatch blocking_watch;
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_prov;
  auto apply_delta = [&](const CandidateDelta& delta, uint32_t bit) {
    for (const RecordPair& pair : delta.added) {
      uint32_t& prov = candidate_prov_[pair];
      old_prov.try_emplace(pair, prov);
      prov |= bit;
    }
    for (const RecordPair& pair : delta.removed) {
      auto it = candidate_prov_.find(pair);
      old_prov.try_emplace(pair, it->second);
      it->second &= ~bit;
    }
  };
  if (config_.use_id_blocker) {
    apply_delta(id_index_.RemoveRecords(records_, removal_ids, pool_.get()),
                kBlockerIdOverlap);
    apply_delta(id_index_.AddRecords(records_, pool_.get()), kBlockerIdOverlap);
  }
  if (config_.use_token_blocker) {
    apply_delta(token_index_.RemoveRecords(records_, removal_ids, pool_.get()),
                kBlockerTokenOverlap);
    apply_delta(token_index_.AddRecords(records_, pool_.get()),
                kBlockerTokenOverlap);
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
  if (metrics.blocking_seconds != nullptr) {
    metrics.blocking_seconds->Observe(blocking_watch.ElapsedSeconds());
  }

  // Evict cached scores touching a tombstoned record, walking only the
  // removed records' partner lists. Ids never recycle, so an evicted entry
  // can never be asked for again; surviving entries keep serving
  // re-admitted pairs. Unaffected pairs are deliberately NOT rescored —
  // deletion must not spend matcher calls on them. A pair is counted by
  // the erase that finds it, so one whose endpoints are both removed, or
  // one an earlier removal evicted, is never counted twice.
  for (RecordId id : removal_ids) {
    std::vector<RecordId>& partners = cached_partners_[static_cast<size_t>(id)];
    for (RecordId partner : partners) {
      report.cache_evictions += score_cache_.erase(RecordPair(id, partner));
    }
    std::vector<RecordId>().swap(partners);
  }

  // Scoring: only pairs without a cached score under the current
  // fingerprint reach the matcher. Re-admitted pairs are cache hits.
  std::vector<RecordPair> to_score;
  if (rescore_all) {
    to_score.reserve(candidate_prov_.size());
    for (const auto& [pair, prov] : candidate_prov_) to_score.push_back(pair);
  } else {
    for (const RecordPair& pair : cand_added) {
      if (score_cache_.count(pair)) {
        ++report.cache_hits;
      } else {
        to_score.push_back(pair);
      }
    }
  }
  std::sort(to_score.begin(), to_score.end());
  // Batched scoring (core/score_batching.h): the sorted to-score list is cut
  // into balanced chunks of at most kScoreBatchSize, one ScoreBatch call
  // each, fanned out over the pool — bitwise-identical to the per-pair walk
  // at any thread count.
  Stopwatch scoring_watch;
  std::vector<double> scores(to_score.size(), 0.0);
  {
    CascadeStatsScope cascade_scope(matcher, metrics.cascade_gate_resolved,
                                    metrics.cascade_escalated);
    ScorePairsBatched(pool_.get(), records_, matcher,
                      Span<const RecordPair>(to_score.data(), to_score.size()),
                      kScoreBatchSize,
                      Span<double>(scores.data(), scores.size()));
  }
  report.scoring_seconds = scoring_watch.ElapsedSeconds();
  // Every to-score pair is new to the cache (misses, or everything after a
  // clear), so each enters both partner lists exactly once.
  for (size_t k = 0; k < to_score.size(); ++k) {
    const RecordPair& pair = to_score[k];
    score_cache_[pair] = scores[k];
    cached_partners_[static_cast<size_t>(pair.a)].push_back(pair.b);
    cached_partners_[static_cast<size_t>(pair.b)].push_back(pair.a);
  }
  report.pairs_scored = to_score.size();
  total_matcher_calls_ += to_score.size();
  total_cache_hits_ += report.cache_hits;

  // Positive-edge transitions. Every list is strictly ascending, so the
  // sorted positive set is updated by merging, never re-sorted.
  const double threshold = config_.pipeline.match_threshold;
  std::vector<RecordPair> pos_added, pos_removed, pos_prov_changed;
  if (rescore_all) {
    std::vector<RecordPair> now_positive;
    for (const auto& [pair, prov] : candidate_prov_) {
      if (score_cache_.at(pair) >= threshold) now_positive.push_back(pair);
    }
    std::sort(now_positive.begin(), now_positive.end());
    std::set_difference(now_positive.begin(), now_positive.end(),
                        positives_.begin(), positives_.end(),
                        std::back_inserter(pos_added));
    std::set_difference(positives_.begin(), positives_.end(),
                        now_positive.begin(), now_positive.end(),
                        std::back_inserter(pos_removed));
    positives_ = std::move(now_positive);
  } else {
    auto is_positive = [this](const RecordPair& pair) {
      return std::binary_search(positives_.begin(), positives_.end(), pair);
    };
    // cand_added pairs were no candidates before, so none is positive yet.
    for (const RecordPair& pair : cand_added) {
      if (score_cache_.at(pair) >= threshold) pos_added.push_back(pair);
    }
    for (const RecordPair& pair : cand_removed) {
      if (is_positive(pair)) pos_removed.push_back(pair);
    }
    for (const RecordPair& pair : prov_changed) {
      if (is_positive(pair)) pos_prov_changed.push_back(pair);
    }
    if (!pos_added.empty() || !pos_removed.empty()) {
      std::vector<RecordPair> kept;
      kept.reserve(positives_.size() - pos_removed.size());
      std::set_difference(positives_.begin(), positives_.end(),
                          pos_removed.begin(), pos_removed.end(),
                          std::back_inserter(kept));
      positives_.clear();
      positives_.reserve(kept.size() + pos_added.size());
      std::merge(kept.begin(), kept.end(), pos_added.begin(), pos_added.end(),
                 std::back_inserter(positives_));
    }
  }

  Stopwatch cleanup_watch;
  GroupStore::ApplyReport cleanup = store_.Apply(
      pos_added, pos_removed, pos_prov_changed, rescore_all,
      [this](const RecordPair& pair) { return candidate_prov_.at(pair); },
      config_.pipeline, pool_.get());
  report.components_rebuilt = cleanup.components_rebuilt;
  report.components_reused = cleanup.components_reused;
  report.cleanup_seconds = cleanup_watch.ElapsedSeconds();

  // Observability rollup (null-guarded, inert: the report itself is the
  // semantic output and is untouched by whether a registry is wired).
  if (config_.pipeline.metrics != nullptr) {
    metrics.scoring_seconds->Observe(report.scoring_seconds);
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

Result<PipelineResult> IncrementalPipeline::Snapshot() const {
  if (poisoned_) return PoisonError();
  obs::TraceScope span(
      obs::PipelineMetrics::Create(config_.pipeline.metrics).snapshot_seconds);
  PipelineResult result;
  result.predicted_pairs = positives_;
  store_.FillSnapshot(records_.size(), &alive_, &result);
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint section codecs
// ---------------------------------------------------------------------------

void WritePipelineConfig(const IncrementalPipelineConfig& config,
                         BinaryWriter* writer) {
  writer->WriteU64(config.pipeline.cleanup.gamma);
  writer->WriteU64(config.pipeline.cleanup.mu);
  writer->WriteDouble(config.pipeline.match_threshold);
  writer->WriteU64(config.pipeline.pre_cleanup_threshold);
  writer->WriteU64(config.pipeline.num_threads);
  writer->WriteU64(config.token.top_n);
  writer->WriteU64(config.token.min_overlap);
  writer->WriteDouble(config.token.max_token_df);
  writer->WriteU8(config.use_token_blocker ? 1 : 0);
  writer->WriteU8(config.use_id_blocker ? 1 : 0);
}

Status ReadPipelineConfig(BinaryReader* reader, size_t num_threads_override,
                          IncrementalPipelineConfig* config) {
  auto read_size = [reader](size_t* out) {
    uint64_t u = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
    *out = static_cast<size_t>(u);
    return Status::OK();
  };
  auto read_flag = [reader](bool* out) {
    uint8_t flag = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadU8(&flag));
    if (flag > 1) {
      return Status::IOError("corrupted checkpoint: blocker flag " +
                             std::to_string(flag) + " is not 0 or 1");
    }
    *out = flag != 0;
    return Status::OK();
  };
  GRALMATCH_RETURN_NOT_OK(read_size(&config->pipeline.cleanup.gamma));
  GRALMATCH_RETURN_NOT_OK(read_size(&config->pipeline.cleanup.mu));
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&config->pipeline.match_threshold));
  GRALMATCH_RETURN_NOT_OK(read_size(&config->pipeline.pre_cleanup_threshold));
  GRALMATCH_RETURN_NOT_OK(read_size(&config->pipeline.num_threads));
  GRALMATCH_RETURN_NOT_OK(read_size(&config->token.top_n));
  GRALMATCH_RETURN_NOT_OK(read_size(&config->token.min_overlap));
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&config->token.max_token_df));
  GRALMATCH_RETURN_NOT_OK(read_flag(&config->use_token_blocker));
  GRALMATCH_RETURN_NOT_OK(read_flag(&config->use_id_blocker));
  if (num_threads_override > 0) {
    config->pipeline.num_threads = num_threads_override;
  }
  return Status::OK();
}

void WriteScoreList(ScoreList scores, BinaryWriter* writer) {
  std::sort(scores.begin(), scores.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer->WriteU64(scores.size());
  for (const auto& [pair, score] : scores) {
    WriteRecordPair(pair, writer);
    writer->WriteDouble(score);
  }
}

Status ReadScoreList(BinaryReader* reader, size_t num_records,
                     ScoreList* scores) {
  scores->clear();
  return ReadSortedPairList(
      reader, num_records, 16,
      [scores](size_t count) { scores->reserve(count); },
      [reader, scores](const RecordPair& pair) {
        double score = 0.0;
        GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&score));
        scores->emplace_back(pair, score);
        return Status::OK();
      });
}

Status SkipLegacyWallClock(BinaryReader* reader) {
  double seconds = 0.0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&seconds));
  return reader->ReadDouble(&seconds);
}

void WriteMatcherCounters(size_t matcher_calls, size_t cache_hits,
                          BinaryWriter* writer) {
  writer->WriteU64(matcher_calls);
  writer->WriteU64(cache_hits);
}

Status ReadMatcherCounters(BinaryReader* reader, size_t* matcher_calls,
                           size_t* cache_hits) {
  uint64_t u = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  *matcher_calls = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  *cache_hits = static_cast<size_t>(u);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checkpoint serialization
// ---------------------------------------------------------------------------

Status IncrementalPipeline::Serialize(BinaryWriter* writer) const {
  if (poisoned_) return PoisonError();
  WritePipelineConfig(config_, writer);

  // Records, in ingest order.
  writer->WriteU64(records_.size());
  for (const Record& rec : records_.records()) WriteRecord(rec, writer);

  // Tombstones: sorted dead record ids.
  writer->WriteU64(num_dead_);
  for (size_t r = 0; r < alive_.size(); ++r) {
    if (!alive_[r]) writer->WriteI32(static_cast<RecordId>(r));
  }

  writer->WriteString(fingerprint_);
  SaveBlockingState(writer);
  WriteScoreList(ScoreList(score_cache_.begin(), score_cache_.end()), writer);
  WriteRecordPairs(positives_, writer);

  // Component structure with cached cleanup outcomes.
  store_.Save(writer);

  WriteMatcherCounters(total_matcher_calls_, total_cache_hits_, writer);
  return Status::OK();
}

Result<std::unique_ptr<IncrementalPipeline>> IncrementalPipeline::Deserialize(
    BinaryReader* reader, uint32_t version, size_t num_threads_override) {
  IncrementalPipelineConfig config;
  GRALMATCH_RETURN_NOT_OK(
      ReadPipelineConfig(reader, num_threads_override, &config));
  auto pipeline = std::make_unique<IncrementalPipeline>(config);

  uint64_t num_records = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(13, &num_records));
  for (uint64_t r = 0; r < num_records; ++r) {
    Record rec;
    GRALMATCH_RETURN_NOT_OK(ReadRecord(reader, &rec));
    pipeline->records_.Add(std::move(rec));
  }
  const size_t n = pipeline->records_.size();
  pipeline->alive_.assign(n, 1);

  // Tombstone section (format v2+): sorted dead record ids. Version 1
  // images predate tombstones, so every record is alive.
  if (version >= 2) {
    uint64_t dead_count = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &dead_count));
    RecordId prev = -1;
    for (uint64_t k = 0; k < dead_count; ++k) {
      RecordId id = kInvalidRecord;
      GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&id));
      if (id <= prev || static_cast<size_t>(id) >= n) {
        return Status::IOError(
            "corrupted checkpoint: tombstone ids must be strictly ascending "
            "record ids");
      }
      pipeline->alive_[static_cast<size_t>(id)] = 0;
      prev = id;
    }
    pipeline->num_dead_ = static_cast<size_t>(dead_count);
  }

  if (version >= 3) {
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&pipeline->fingerprint_));
    GRALMATCH_RETURN_NOT_OK(pipeline->LoadBlockingState(reader));
  } else {
    GRALMATCH_RETURN_NOT_OK(pipeline->LoadIndexStates(reader));
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&pipeline->fingerprint_));
    GRALMATCH_RETURN_NOT_OK(
        ReadPairValues(reader, n, &pipeline->candidate_prov_));
  }
  ScoreList scores;
  GRALMATCH_RETURN_NOT_OK(ReadScoreList(reader, n, &scores));
  pipeline->score_cache_.reserve(scores.size());
  pipeline->score_cache_.insert(scores.begin(), scores.end());
  GRALMATCH_RETURN_NOT_OK(ReadRecordPairs(reader, n, &pipeline->positives_));

  GRALMATCH_RETURN_NOT_OK(pipeline->store_.Load(reader, n));

  GRALMATCH_RETURN_NOT_OK(ReadMatcherCounters(
      reader, &pipeline->total_matcher_calls_, &pipeline->total_cache_hits_));
  if (version < 3) {
    // Legacy images close with two cumulative wall-clock doubles, which no
    // state depends on.
    GRALMATCH_RETURN_NOT_OK(SkipLegacyWallClock(reader));
  }
  GRALMATCH_RETURN_NOT_OK(pipeline->FinishRestore(/*rebuild_blocking=*/false));
  return pipeline;
}

void IncrementalPipeline::SaveBlockingState(BinaryWriter* writer) const {
  id_index_.SaveState(writer);
  token_index_.SaveState(writer);
  WritePairValues(candidate_prov_, writer);
}

Status IncrementalPipeline::LoadBlockingState(BinaryReader* reader) {
  GRALMATCH_RETURN_NOT_OK(LoadIndexStates(reader));
  return ReadPairValues(reader, records_.size(), &candidate_prov_);
}

Status IncrementalPipeline::LoadIndexStates(BinaryReader* reader) {
  // An enabled blocker's index covers every record; a disabled one never
  // sees a record, so it must be empty.
  const size_t n = records_.size();
  GRALMATCH_RETURN_NOT_OK(id_index_.LoadState(reader));
  GRALMATCH_RETURN_NOT_OK(token_index_.LoadState(reader));
  if (id_index_.num_records() != (config_.use_id_blocker ? n : 0) ||
      token_index_.num_records() != (config_.use_token_blocker ? n : 0)) {
    return Status::IOError(
        "corrupted checkpoint: blocking index record counts disagree with "
        "the record table and the enabled blockers");
  }
  return Status::OK();
}

Status IncrementalPipeline::FinishRestore(bool rebuild_blocking) {
  const size_t n = records_.size();
  if (rebuild_blocking) {
    std::vector<RecordId> dead_ids;
    for (size_t r = 0; r < n; ++r) {
      if (!alive_[r]) dead_ids.push_back(static_cast<RecordId>(r));
    }
    candidate_prov_.clear();
    if (config_.use_id_blocker) {
      (void)id_index_.AddRecords(records_, pool_.get());
      (void)id_index_.RemoveRecords(records_, dead_ids, pool_.get());
      for (const RecordPair& pair : id_index_.CurrentPairs()) {
        candidate_prov_[pair] |= kBlockerIdOverlap;
      }
    }
    if (config_.use_token_blocker) {
      (void)token_index_.AddRecords(records_, pool_.get());
      (void)token_index_.RemoveRecords(records_, dead_ids, pool_.get());
      for (const RecordPair& pair : token_index_.CurrentPairs()) {
        candidate_prov_[pair] |= kBlockerTokenOverlap;
      }
    }
  } else {
    // LoadState defaults every record to alive; the max-df cap tracks the
    // live count, which only the pipeline's tombstone set knows.
    token_index_.SetNumLive(n - num_dead_);
  }

  // Every loaded pair passed the shared pair codec (canonical, in range)
  // and rebuilt candidates come from the indexes. Tombstoned records
  // retract every pair they touch, so a candidate, cached score or positive
  // referencing one is corruption.
  auto check_pair = [this](const RecordPair& pair) {
    if (!alive_[static_cast<size_t>(pair.a)] ||
        !alive_[static_cast<size_t>(pair.b)]) {
      return Status::IOError(
          "corrupted checkpoint: record pair references a tombstoned record");
    }
    return Status::OK();
  };
  cached_partners_.assign(n, {});
  for (const auto& [pair, score] : score_cache_) {
    (void)score;
    GRALMATCH_RETURN_NOT_OK(check_pair(pair));
    cached_partners_[static_cast<size_t>(pair.a)].push_back(pair.b);
    cached_partners_[static_cast<size_t>(pair.b)].push_back(pair.a);
  }
  for (const RecordPair& pair : positives_) {
    GRALMATCH_RETURN_NOT_OK(check_pair(pair));
  }

  // Every current candidate has a cached score and every positive pair is a
  // current candidate — the mutation path dereferences both
  // unconditionally, so a checkpoint violating either invariant must be
  // rejected here, not crash there.
  const uint32_t known_bits =
      (config_.use_id_blocker ? kBlockerIdOverlap : 0u) |
      (config_.use_token_blocker ? kBlockerTokenOverlap : 0u);
  for (const auto& [pair, prov] : candidate_prov_) {
    GRALMATCH_RETURN_NOT_OK(check_pair(pair));
    if (prov == 0 || (prov & ~known_bits) != 0) {
      return Status::IOError(
          "corrupted checkpoint: candidate provenance bits disagree with the "
          "configured blockers");
    }
    if (!score_cache_.count(pair)) {
      return Status::IOError(
          "corrupted checkpoint: candidate pair without a cached score");
    }
  }
  for (const RecordPair& pair : positives_) {
    if (!candidate_prov_.count(pair)) {
      return Status::IOError(
          "corrupted checkpoint: positive pair missing from the candidate "
          "set");
    }
  }
  // The candidate set must be exactly what the blocking indexes currently
  // produce, bit by bit: a future AddRecords retraction looks the pair up
  // in candidate_prov_ unchecked, so an index/pipeline mismatch would
  // dereference end(). A rebuild derived one from the other, so only
  // loaded index state needs the check.
  auto check_index = [this](const std::vector<RecordPair>& index_pairs,
                            uint32_t bit) {
    size_t with_bit = 0;
    for (const auto& [pair, prov] : candidate_prov_) {
      (void)pair;
      if (prov & bit) ++with_bit;
    }
    if (with_bit != index_pairs.size()) {
      return Status::IOError(
          "corrupted checkpoint: blocking index pair set disagrees with the "
          "candidate provenance");
    }
    for (const RecordPair& pair : index_pairs) {
      auto it = candidate_prov_.find(pair);
      if (it == candidate_prov_.end() || (it->second & bit) == 0) {
        return Status::IOError(
            "corrupted checkpoint: blocking index pair missing from the "
            "candidate set");
      }
    }
    return Status::OK();
  };
  if (!rebuild_blocking && config_.use_id_blocker) {
    GRALMATCH_RETURN_NOT_OK(
        check_index(id_index_.CurrentPairs(), kBlockerIdOverlap));
  }
  if (!rebuild_blocking && config_.use_token_blocker) {
    GRALMATCH_RETURN_NOT_OK(
        check_index(token_index_.CurrentPairs(), kBlockerTokenOverlap));
  }
  // An empty fingerprint means no mutation ever ran (each one sets it
  // unconditionally), so every other piece of state must be empty too —
  // otherwise cached scores could never be invalidated by a fingerprint
  // change.
  if (fingerprint_.empty() &&
      (n != 0 || !candidate_prov_.empty() || !score_cache_.empty() ||
       !positives_.empty())) {
    return Status::IOError(
        "corrupted checkpoint: pre-ingest fingerprint with non-empty state");
  }

  // A tombstoned record has lost every positive edge, so it must have left
  // its component (FillSnapshot relies on this to skip dead singletons).
  for (size_t r = 0; r < n; ++r) {
    if (!alive_[r] && store_.comp_of_node()[r] >= 0) {
      return Status::IOError(
          "corrupted checkpoint: tombstoned record still inside a component");
    }
  }
  return store_.Validate([this](const RecordPair& pair) {
    return std::binary_search(positives_.begin(), positives_.end(), pair);
  });
}

}  // namespace gralmatch
