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

namespace {

/// The pairs whose membership in one index's pair set a mutation changed,
/// ascending: a pair that both deltas flipped is back where it started.
std::vector<RecordPair> NetFlips(const CandidateDelta& retracted,
                                 const CandidateDelta& absorbed) {
  auto flips = [](const CandidateDelta& delta) {
    std::vector<RecordPair> out;
    std::merge(delta.added.begin(), delta.added.end(), delta.removed.begin(),
               delta.removed.end(), std::back_inserter(out));
    return out;
  };
  const std::vector<RecordPair> first = flips(retracted);
  const std::vector<RecordPair> second = flips(absorbed);
  std::vector<RecordPair> net;
  std::set_symmetric_difference(first.begin(), first.end(), second.begin(),
                                second.end(), std::back_inserter(net));
  return net;
}

}  // namespace

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

  // Blocking: each index retracts, then absorbs. Provenance is read off
  // the indexes, so a pair's provenance changed exactly when its membership
  // in an index flipped net over the pass. Every pair list below ascends.
  Stopwatch blocking_watch;
  auto net_flips = [&](auto* index) {
    const CandidateDelta retracted =
        index->RemoveRecords(records_, removal_ids, pool_.get());
    const CandidateDelta absorbed = index->AddRecords(records_, pool_.get());
    return NetFlips(retracted, absorbed);
  };
  std::vector<RecordPair> id_flips, token_flips, flipped;
  if (config_.use_id_blocker) id_flips = net_flips(&id_index_);
  if (config_.use_token_blocker) token_flips = net_flips(&token_index_);
  std::set_union(id_flips.begin(), id_flips.end(), token_flips.begin(),
                 token_flips.end(), std::back_inserter(flipped));
  std::vector<RecordPair> cand_added, cand_removed, prov_changed;
  for (const RecordPair& pair : flipped) {
    // A flipped bit held the opposite value before the pass.
    auto flip = [&pair](const std::vector<RecordPair>& flips, uint32_t bit) {
      return std::binary_search(flips.begin(), flips.end(), pair) ? bit : 0u;
    };
    const uint32_t now = ProvenanceOf(pair);
    const uint32_t before = now ^ flip(id_flips, kBlockerIdOverlap) ^
                            flip(token_flips, kBlockerTokenOverlap);
    if (before == 0) {
      cand_added.push_back(pair);
    } else if (now == 0) {
      cand_removed.push_back(pair);
    } else {
      prov_changed.push_back(pair);
    }
  }
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
    for (const auto& [pair, bits] : Candidates()) to_score.push_back(pair);
  } else {
    for (const RecordPair& pair : cand_added) {
      if (score_cache_.count(pair)) {
        ++report.cache_hits;
      } else {
        to_score.push_back(pair);
      }
    }
  }
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

  // Positive-edge transitions. pos_added and pos_removed ascend strictly,
  // so the sorted positive set is updated by merging, never re-sorted.
  // `touched` gathers every positive pair that appeared, disappeared or
  // changed provenance: cleanup re-runs on its endpoints' components.
  const double threshold = config_.pipeline.match_threshold;
  std::vector<RecordPair> pos_added, pos_removed, touched;
  if (rescore_all) {
    // Every candidate was just scored, in ascending order.
    std::vector<RecordPair> now_positive;
    for (size_t k = 0; k < to_score.size(); ++k) {
      if (scores[k] >= threshold) now_positive.push_back(to_score[k]);
    }
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
      if (is_positive(pair)) touched.push_back(pair);
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

  touched.insert(touched.end(), pos_added.begin(), pos_added.end());
  touched.insert(touched.end(), pos_removed.begin(), pos_removed.end());

  Stopwatch cleanup_watch;
  GroupStore::ApplyReport cleanup = store_.Apply(
      touched, rescore_all, positives_,
      [this](const RecordPair& pair) { return ProvenanceOf(pair); },
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

uint32_t IncrementalPipeline::ProvenanceOf(const RecordPair& pair) const {
  // A disabled blocker's index never sees a record, so it holds no pair.
  return (id_index_.Contains(pair) ? kBlockerIdOverlap : 0u) |
         (token_index_.Contains(pair) ? kBlockerTokenOverlap : 0u);
}

PairValues IncrementalPipeline::Candidates() const {
  const std::vector<RecordPair> id_pairs = id_index_.CurrentPairs();
  const std::vector<RecordPair> token_pairs = token_index_.CurrentPairs();
  std::vector<RecordPair> pairs;
  std::set_union(id_pairs.begin(), id_pairs.end(), token_pairs.begin(),
                 token_pairs.end(), std::back_inserter(pairs));
  PairValues candidates;
  candidates.reserve(pairs.size());
  for (const RecordPair& pair : pairs) {
    candidates.emplace_back(pair, ProvenanceOf(pair));
  }
  return candidates;
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
  store_.Save(positives_, writer);

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

  PairValues provenance;
  if (version >= 3) {
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&pipeline->fingerprint_));
    GRALMATCH_RETURN_NOT_OK(pipeline->LoadBlockingState(reader, &provenance));
  } else {
    GRALMATCH_RETURN_NOT_OK(pipeline->LoadIndexStates(reader));
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&pipeline->fingerprint_));
    GRALMATCH_RETURN_NOT_OK(ReadPairValues(reader, n, &provenance));
  }
  ScoreList scores;
  GRALMATCH_RETURN_NOT_OK(ReadScoreList(reader, n, &scores));
  pipeline->score_cache_.reserve(scores.size());
  pipeline->score_cache_.insert(scores.begin(), scores.end());
  GRALMATCH_RETURN_NOT_OK(ReadRecordPairs(reader, n, &pipeline->positives_));

  GRALMATCH_RETURN_NOT_OK(
      pipeline->store_.Load(reader, n, pipeline->positives_));

  GRALMATCH_RETURN_NOT_OK(ReadMatcherCounters(
      reader, &pipeline->total_matcher_calls_, &pipeline->total_cache_hits_));
  if (version < 3) {
    // Legacy images close with two cumulative wall-clock doubles, which no
    // state depends on.
    GRALMATCH_RETURN_NOT_OK(SkipLegacyWallClock(reader));
  }
  GRALMATCH_RETURN_NOT_OK(pipeline->FinishRestore(&provenance));
  return pipeline;
}

void IncrementalPipeline::SaveBlockingState(BinaryWriter* writer) const {
  id_index_.SaveState(writer);
  token_index_.SaveState(writer);
  WritePairValues(Candidates(), writer);
}

Status IncrementalPipeline::LoadBlockingState(BinaryReader* reader,
                                              PairValues* provenance) {
  GRALMATCH_RETURN_NOT_OK(LoadIndexStates(reader));
  return ReadPairValues(reader, records_.size(), provenance);
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

Status IncrementalPipeline::FinishRestore(const PairValues* provenance) {
  const size_t n = records_.size();
  if (provenance == nullptr) {
    // Legacy directories store no blocking state. The indexes are a pure
    // function of (records, tombstones), so rebuild them.
    std::vector<RecordId> dead_ids;
    for (size_t r = 0; r < n; ++r) {
      if (!alive_[r]) dead_ids.push_back(static_cast<RecordId>(r));
    }
    if (config_.use_id_blocker) {
      (void)id_index_.AddRecords(records_, pool_.get());
      (void)id_index_.RemoveRecords(records_, dead_ids, pool_.get());
    }
    if (config_.use_token_blocker) {
      (void)token_index_.AddRecords(records_, pool_.get());
      (void)token_index_.RemoveRecords(records_, dead_ids, pool_.get());
    }
  } else {
    // LoadState defaults every record to alive; the max-df cap tracks the
    // live count, which only the pipeline's tombstone set knows.
    token_index_.SetNumLive(n - num_dead_);
  }

  // The stored provenance is a copy of the indexes' pair sets.
  const PairValues candidates = Candidates();
  if (provenance != nullptr && *provenance != candidates) {
    return Status::IOError(
        "corrupted checkpoint: blocking index pair set disagrees with the "
        "candidate provenance");
  }

  // Every loaded pair passed the shared pair codec (canonical, in range).
  // Tombstoned records retract every pair they touch, so a candidate,
  // cached score or positive referencing one is corruption.
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

  // Every current candidate has a cached score and every positive pair is a
  // current candidate (so live too) — the mutation path dereferences both
  // unconditionally, so a checkpoint violating either invariant must be
  // rejected here, not crash there.
  for (const auto& [pair, bits] : candidates) {
    GRALMATCH_RETURN_NOT_OK(check_pair(pair));
    if (!score_cache_.count(pair)) {
      return Status::IOError(
          "corrupted checkpoint: candidate pair without a cached score");
    }
  }
  for (const RecordPair& pair : positives_) {
    if (ProvenanceOf(pair) == 0) {
      return Status::IOError(
          "corrupted checkpoint: positive pair missing from the candidate "
          "set");
    }
  }
  // An empty fingerprint means no mutation ever ran (each one sets it
  // unconditionally), so every other piece of state must be empty too —
  // otherwise cached scores could never be invalidated by a fingerprint
  // change.
  if (fingerprint_.empty() &&
      (n != 0 || !score_cache_.empty() || !positives_.empty())) {
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
  return store_.Validate(positives_);
}

}  // namespace gralmatch
