#include "shard/sharded_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace gralmatch {

namespace {

/// One parsed shard body (layout in docs/formats.md).
struct ShardPart {
  /// (global id, payload), ascending by id.
  std::vector<std::pair<RecordId, Record>> records;
  /// Dead ids this shard stores, ascending (format v2+; empty before).
  std::vector<RecordId> tombstones;
  ScoreList scores;
  std::vector<RecordPair> positives;
  size_t matcher_calls = 0;
  size_t cache_hits = 0;
  /// A component as stored: its id, its state and its edge list.
  struct Component {
    int32_t cid = 0;
    GroupStore::ComponentState state;
    std::vector<RecordPair> edges;
  };
  std::vector<Component> components;
};

/// Read one shard body laid out under checkpoint format `version`.
/// `num_records` bounds every record id and pair; record ids must be
/// strictly ascending within the shard and tombstones a strictly ascending
/// subset of them. Structural checks only — ownership is the loader's job,
/// cross-field invariants the engine's.
Result<ShardPart> ParseShardBody(BinaryReader* reader, size_t num_records,
                                 uint32_t version) {
  ShardPart part;

  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(17, &count));
  part.records.reserve(static_cast<size_t>(count));
  RecordId prev_id = -1;
  for (uint64_t k = 0; k < count; ++k) {
    RecordId id = -1;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&id));
    if (id < 0 || static_cast<size_t>(id) >= num_records) {
      return Status::IOError(
          "corrupted shard checkpoint: record id out of range");
    }
    if (id <= prev_id) {
      return Status::IOError(
          "corrupted shard checkpoint: record ids not strictly ascending");
    }
    prev_id = id;
    Record rec;
    GRALMATCH_RETURN_NOT_OK(ReadRecord(reader, &rec));
    part.records.emplace_back(id, std::move(rec));
  }

  // Tombstone section (format v2+): this shard's dead ids, a strictly
  // ascending subset of its record ids. Version 1 files predate tombstones.
  if (version >= 2) {
    uint64_t num_dead = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &num_dead));
    part.tombstones.reserve(static_cast<size_t>(num_dead));
    RecordId prev_dead = -1;
    for (uint64_t k = 0; k < num_dead; ++k) {
      RecordId id = -1;
      GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&id));
      if (id <= prev_dead) {
        return Status::IOError(
            "corrupted shard checkpoint: tombstone ids not strictly "
            "ascending");
      }
      prev_dead = id;
      const auto it = std::lower_bound(
          part.records.begin(), part.records.end(), id,
          [](const std::pair<RecordId, Record>& entry, RecordId target) {
            return entry.first < target;
          });
      if (it == part.records.end() || it->first != id) {
        return Status::IOError(
            "corrupted shard checkpoint: tombstone for a record this shard "
            "does not store");
      }
      part.tombstones.push_back(id);
    }
  }

  GRALMATCH_RETURN_NOT_OK(ReadScoreList(reader, num_records, &part.scores));
  GRALMATCH_RETURN_NOT_OK(ReadRecordPairs(reader, num_records, &part.positives));
  GRALMATCH_RETURN_NOT_OK(
      ReadMatcherCounters(reader, &part.matcher_calls, &part.cache_hits));

  uint64_t num_comps = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &num_comps));
  part.components.resize(static_cast<size_t>(num_comps));
  for (ShardPart::Component& comp : part.components) {
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&comp.cid));
    GRALMATCH_RETURN_NOT_OK(
        ReadComponentState(reader, num_records, &comp.state, &comp.edges));
  }
  return part;
}

}  // namespace

ShardedPipeline::ShardedPipeline(ShardedPipelineConfig config)
    : config_(config),
      router_(config.num_shards, config.router_seed),
      engine_(config.base) {
  config_.num_shards = router_.num_shards();  // clamped to >= 1
}

ShardedPipeline::~ShardedPipeline() = default;

size_t ShardedPipeline::ShardRecordCount(size_t shard) const {
  return static_cast<size_t>(std::count(shard_of_record_.begin(),
                                        shard_of_record_.end(),
                                        static_cast<uint32_t>(shard)));
}

Result<IngestReport> ShardedPipeline::Ingest(const std::vector<Record>& batch,
                                             const PairwiseMatcher& matcher) {
  return Routed(engine_.Ingest(batch, matcher));
}

Result<IngestReport> ShardedPipeline::Remove(const std::vector<RecordId>& ids,
                                             const PairwiseMatcher& matcher) {
  return Routed(engine_.Remove(ids, matcher));
}

Result<IngestReport> ShardedPipeline::Update(
    const std::vector<RecordUpdate>& batch, const PairwiseMatcher& matcher) {
  return Routed(engine_.Update(batch, matcher));
}

Result<IngestReport> ShardedPipeline::Routed(Result<IngestReport> result) {
  Stopwatch route_watch;
  const RecordTable& records = engine_.records();
  for (size_t id = shard_of_record_.size(); id < records.size(); ++id) {
    shard_of_record_.push_back(static_cast<uint32_t>(
        router_.ShardOf(records.at(static_cast<RecordId>(id)))));
  }
  if (config_.base.pipeline.metrics != nullptr && result.ok()) {
    obs::PipelineMetrics::Create(config_.base.pipeline.metrics)
        .route_seconds->Observe(route_watch.ElapsedSeconds());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint bodies
// ---------------------------------------------------------------------------

Status ShardedPipeline::SerializeManifestBody(BinaryWriter* writer) const {
  GRALMATCH_RETURN_NOT_OK(engine_.status());
  WritePipelineConfig(config_.base, writer);
  writer->WriteU64(config_.num_shards);
  writer->WriteU64(config_.router_seed);
  writer->WriteString(engine_.fingerprint_);
  writer->WriteU64(engine_.records_.size());
  writer->WriteI32(engine_.store_.next_comp_id());
  // The index state belongs to the whole engine, not to a shard; the load
  // reads it instead of rebuilding it from the records.
  engine_.SaveBlockingState(writer);
  return Status::OK();
}

Status ShardedPipeline::SerializeShardBodies(
    std::vector<BinaryWriter>* writers) const {
  GRALMATCH_RETURN_NOT_OK(engine_.status());
  const size_t num_shards = router_.num_shards();
  std::vector<std::vector<RecordId>> owned(num_shards);
  for (size_t id = 0; id < shard_of_record_.size(); ++id) {
    owned[shard_of_record_[id]].push_back(static_cast<RecordId>(id));
  }
  std::vector<ScoreList> scores(num_shards);
  for (const auto& entry : engine_.score_cache_) {
    scores[OwnerOf(entry.first)].push_back(entry);
  }
  // The engine's positive set is ascending, so each shard's slice is too.
  std::vector<std::vector<RecordPair>> positives(num_shards);
  for (const RecordPair& pair : engine_.positives_) {
    positives[OwnerOf(pair)].push_back(pair);
  }
  std::vector<std::vector<std::pair<int32_t, const GroupStore::ComponentState*>>>
      components(num_shards);
  for (const auto& [cid, comp] : engine_.store_.components()) {
    components[shard_of_record_[static_cast<size_t>(comp.nodes.front())]]
        .emplace_back(cid, &comp);
  }

  writers->clear();
  writers->resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    BinaryWriter* writer = &(*writers)[s];
    // Records with their global ids, dead ones included: the union of
    // every shard's list reassembles the record table (ids never recycle,
    // and the retained payloads keep future removals exact).
    writer->WriteU64(owned[s].size());
    for (const RecordId id : owned[s]) {
      writer->WriteI32(id);
      WriteRecord(engine_.records_.at(id), writer);
    }
    std::vector<RecordId> dead;
    for (const RecordId id : owned[s]) {
      if (!engine_.is_alive(id)) dead.push_back(id);
    }
    writer->WriteU64(dead.size());
    for (const RecordId id : dead) writer->WriteI32(id);

    WriteScoreList(std::move(scores[s]), writer);
    WriteRecordPairs(positives[s], writer);

    // The counters are pipeline totals: shard 0 carries them and every
    // other shard writes 0. Loaders sum the slots, so images that split
    // the counters per shard load to the same totals.
    WriteMatcherCounters(s == 0 ? engine_.total_matcher_calls() : 0,
                         s == 0 ? engine_.total_cache_hits() : 0, writer);

    std::sort(components[s].begin(), components[s].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    writer->WriteU64(components[s].size());
    for (const auto& [cid, comp] : components[s]) {
      writer->WriteI32(cid);
      WriteComponentState(*comp, engine_.positives_, writer);
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardedPipeline>> ShardedPipeline::DeserializeFromParts(
    BinaryReader* manifest_body, std::vector<BinaryReader>* shard_bodies,
    uint32_t version, size_t num_threads_override) {
  ShardedPipelineConfig config;
  GRALMATCH_RETURN_NOT_OK(
      ReadPipelineConfig(manifest_body, num_threads_override, &config.base));
  uint64_t num_shards = 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&num_shards));
  config.num_shards = static_cast<size_t>(num_shards);
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&config.router_seed));
  if (config.num_shards == 0 ||
      config.num_shards != shard_bodies->size()) {
    return Status::IOError(
        "corrupted manifest: shard count disagrees with the shard files");
  }

  auto pipeline = std::make_unique<ShardedPipeline>(config);
  IncrementalPipeline& engine = pipeline->engine_;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadString(&engine.fingerprint_));
  uint64_t num_records = 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadU64(&num_records));
  const size_t n = static_cast<size_t>(num_records);
  int32_t next_comp_id = 0;
  GRALMATCH_RETURN_NOT_OK(manifest_body->ReadI32(&next_comp_id));

  // Parse every shard's slice, then reassemble the global record table:
  // the ids must tile [0, n) exactly, and each record must route to the
  // shard that stored it (otherwise pair ownership — and with it where the
  // next save stores each score — would disagree with the saved state).
  std::vector<ShardPart> parts;
  parts.reserve(shard_bodies->size());
  for (BinaryReader& body : *shard_bodies) {
    GRALMATCH_ASSIGN_OR_RETURN(ShardPart part,
                               ParseShardBody(&body, n, version));
    parts.push_back(std::move(part));
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
    if (pipeline->router_.ShardOf(table[id]) !=
        static_cast<size_t>(provider[id])) {
      return Status::IOError(
          "corrupted shard checkpoint: record stored on a shard the router "
          "does not map it to");
    }
    engine.records_.Add(std::move(table[id]));
    pipeline->shard_of_record_.push_back(static_cast<uint32_t>(provider[id]));
  }

  // The manifest body ends with the blocking state (version 3), which
  // needs the record table in place, or with the legacy wall clock.
  PairValues provenance;
  if (version >= 3) {
    GRALMATCH_RETURN_NOT_OK(
        engine.LoadBlockingState(manifest_body, &provenance));
  } else {
    GRALMATCH_RETURN_NOT_OK(SkipLegacyWallClock(manifest_body));
  }

  // Tombstones, merged from every shard's section (ParseShardBody verified
  // each references a record its shard stores, and records are globally
  // unique, so no id can arrive twice).
  engine.alive_.assign(n, 1);
  for (const ShardPart& part : parts) {
    for (const RecordId id : part.tombstones) {
      engine.alive_[static_cast<size_t>(id)] = 0;
    }
    engine.num_dead_ += part.tombstones.size();
  }

  // Scores, positives and components back into the one engine, each
  // checked against its owner shard. The pair codec rejected duplicates
  // within a shard and ownership rules them out across shards.
  for (size_t s = 0; s < parts.size(); ++s) {
    for (const auto& [pair, score] : parts[s].scores) {
      if (pipeline->OwnerOf(pair) != s) {
        return Status::IOError(
            "corrupted shard checkpoint: cached score for a pair another "
            "shard owns");
      }
      engine.score_cache_[pair] = score;
    }
    for (const RecordPair& pair : parts[s].positives) {
      if (pipeline->OwnerOf(pair) != s) {
        return Status::IOError(
            "corrupted shard checkpoint: positive pair another shard owns");
      }
      engine.positives_.push_back(pair);
    }
    engine.total_matcher_calls_ += parts[s].matcher_calls;
    engine.total_cache_hits_ += parts[s].cache_hits;
  }
  // Each shard's positives are ascending and no pair has two owners, so one
  // sort leaves the merged set strictly ascending. Components are checked
  // against the merged set: other shards may own their edges.
  std::sort(engine.positives_.begin(), engine.positives_.end());
  engine.store_.EnsureNumRecords(n);
  for (size_t s = 0; s < parts.size(); ++s) {
    for (ShardPart::Component& comp : parts[s].components) {
      if (comp.state.nodes.empty()) {
        return Status::IOError("corrupted checkpoint: empty component");
      }
      if (pipeline->shard_of_record_[static_cast<size_t>(
              comp.state.nodes.front())] != s) {
        return Status::IOError(
            "corrupted shard checkpoint: component stored on a shard that "
            "does not own its smallest node");
      }
      GRALMATCH_RETURN_NOT_OK(engine.store_.InsertComponent(
          comp.cid, std::move(comp.state), comp.edges, engine.positives_, n));
    }
  }
  engine.store_.SetNextComponentId(next_comp_id);
  // Legacy directories store no index state: the engine rebuilds it.
  GRALMATCH_RETURN_NOT_OK(
      engine.FinishRestore(version >= 3 ? &provenance : nullptr));
  return pipeline;
}

}  // namespace gralmatch
