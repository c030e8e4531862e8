#ifndef GRALMATCH_SERVE_SHARDED_CHECKPOINT_H_
#define GRALMATCH_SERVE_SHARDED_CHECKPOINT_H_

/// \file sharded_checkpoint.h
/// Durable checkpoints for the sharded pipeline, partitioned the way the
/// state is: one framed file per shard plus a manifest. A checkpoint is a
/// directory:
///
///   <dir>/manifest.grlm            the manifest (layout below)
///   <dir>/shard-<k>-<checksum>.grlm  shard k's slice, k in [0, S)
///
/// Shard file names are *content-addressed*: `<checksum>` is the 16-hex
/// FNV-1a 64 digest of the complete file image — the same value the
/// manifest records. A save therefore never overwrites the previous
/// checkpoint's shard files (changed content gets a new name); the
/// manifest is replaced atomically and *last*, so until the new manifest
/// lands the previous checkpoint remains complete and loadable, and a
/// crash at any point leaves either the old or the new checkpoint
/// authoritative — never neither. Shard files no manifest references are
/// garbage-collected after a successful save.
///
/// Shard file (all integers little-endian, common/binary_io.h):
///
///   offset 0   8-byte magic "GRLMSHRD"
///          8   u32 format version (see stamping below)
///         12   u32 shard index
///         16   u64 body size, then the body: the slice produced by
///              ShardedPipeline::SerializeShardBodies
///          .   u64 FNV-1a 64 checksum of every preceding byte
///
/// Versions: version 2 added the per-shard tombstone section
/// (docs/formats.md). Version 3 writes it always, stores the engine's
/// blocking state in the manifest body instead of rebuilding it on load,
/// and drops the manifest's two cumulative wall-clock doubles. The writer
/// always stamps version 3; version 1 and 2 directories still load, and
/// rebuild their blocking indexes from the records. The stamp is uniform:
/// the manifest and every shard file of one checkpoint carry the same
/// version, and the loader rejects a mix (a version 2 shard file under a
/// version 3 manifest is a stale file, not a layout choice).
///
/// Manifest:
///
///   offset 0   8-byte magic "GRLMMNFT"
///          8   u32 format version
///         12   matcher fingerprint (u64 length + bytes)
///          .   u64 shard count S
///          .   S u64s: the FNV-1a 64 checksum of each *complete* shard
///              file image (framing included) — also each file's name
///          .   u64 body size, then the body: the coordinator state
///              produced by ShardedPipeline::SerializeManifestBody, the
///              engine's blocking state included
///          .   u64 FNV-1a 64 checksum of every preceding manifest byte
///
/// The per-shard checksum list makes the manifest the single source of
/// truth for which shard files belong to this checkpoint: a missing,
/// truncated, bit-flipped, swapped-in or stale shard file fails the load
/// with a clean Status before any of its content is trusted. Validation
/// order per file mirrors the single-pipeline checkpoint: magic, version
/// (newer formats rejected, not misread), checksum, then bounds-checked
/// body reads with every cross-shard invariant re-verified
/// (ShardedPipeline::DeserializeFromParts).
///
/// Save -> Load -> Snapshot() is bitwise-identical, re-saving a restored
/// pipeline reproduces every file byte for byte (names included — the
/// addresses are deterministic in the content), and further Ingest()
/// calls behave exactly as they would have on the original instance.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "matching/matcher.h"
#include "obs/metrics.h"
#include "shard/sharded_pipeline.h"

namespace gralmatch {

/// The sharded-checkpoint format version this binary writes, and the
/// newest it reads. Bump on any layout change.
constexpr uint32_t kShardedCheckpointVersion = 3;

/// Write a checkpoint of `pipeline` under the directory `dir` (created if
/// absent). Content-addressed shard files first, the manifest atomically
/// last (see file comment for the crash-safety argument), then unreferenced
/// shard files are garbage-collected. A non-null `metrics` records the
/// save's wall-clock into `checkpoint_save_seconds` — timing only; the
/// checkpoint bytes are identical either way (the single-file checkpoint
/// API in checkpoint.h stays metrics-free entirely; its callers time it).
Status SaveShardedCheckpoint(const ShardedPipeline& pipeline,
                             const std::string& dir,
                             obs::MetricsRegistry* metrics = nullptr);

/// Read and validate a checkpoint directory; `matcher` must carry the
/// fingerprint the checkpoint was saved under ("" pre-ingest checkpoints
/// load under any matcher). `num_threads_override` replaces the saved
/// thread count when nonzero. A non-null `metrics` records the load's
/// wall-clock into `checkpoint_load_seconds`; the restored pipeline itself
/// always starts with `PipelineConfig::metrics == nullptr` — re-wire it
/// via `config()` semantics at the call site if scraping should continue.
Result<std::unique_ptr<ShardedPipeline>> LoadShardedCheckpoint(
    const std::string& dir, const PairwiseMatcher& matcher,
    size_t num_threads_override = 0, obs::MetricsRegistry* metrics = nullptr);

/// Path of the manifest inside a checkpoint directory.
std::string ShardedManifestPath(const std::string& dir);

/// Paths of the shard files the directory's current manifest references,
/// in shard order (resolved through the manifest, because the names embed
/// the content checksums). Shared with tests that corrupt specific files.
Result<std::vector<std::string>> ShardFilePaths(const std::string& dir);

}  // namespace gralmatch

#endif  // GRALMATCH_SERVE_SHARDED_CHECKPOINT_H_
