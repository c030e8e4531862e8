#ifndef GRALMATCH_SERVE_CHECKPOINT_H_
#define GRALMATCH_SERVE_CHECKPOINT_H_

/// \file checkpoint.h
/// Durable checkpoints for the incremental pipeline. A checkpoint captures
/// the complete IncrementalPipeline state — records, both incremental
/// blocking indexes, the pair-score cache with its matcher fingerprint, the
/// positive-edge graph and the per-component cleanup results — so a restart
/// resumes exactly where ingestion stopped instead of recomputing from
/// scratch: Load(Save(p))->Snapshot() is bitwise-identical to p->Snapshot(),
/// and further Ingest() calls behave as they would have on the original.
///
/// File format (all integers little-endian, see common/binary_io.h):
///
///   offset 0   8-byte magic "GRLMCKPT"
///          8   u32 format version (1, 2 or 3, see below)
///         12   matcher fingerprint (u64 length + bytes)
///          .   u64 body size, then the body: the pipeline state produced
///              by IncrementalPipeline::Serialize
///          .   u64 FNV-1a 64 checksum of every preceding byte (header and
///              body both — a flipped fingerprint byte is diagnosed as
///              corruption, not as a matcher change)
///
/// Versions: version 2 added the tombstone section (sorted dead record ids
/// after the record table). Version 3 writes that section always, moves the
/// fingerprint ahead of the blocking state (both index states, then the
/// candidate provenance — the section the sharded manifest shares), and
/// drops the two cumulative wall-clock doubles that closed the body, so
/// two runs of one schedule write identical images. The writer always
/// stamps version 3; version 1 and 2 images still load.
///
/// Load validation order: magic, version (files from a *newer* format are
/// rejected, not misread), whole-image checksum, header fingerprint against
/// the serving matcher (the score cache is only valid for the matcher that
/// produced it), then the body itself (every read bounds-checked,
/// cross-field invariants re-verified). Any violation returns a clean
/// non-OK Status — truncated or bit-flipped files never crash and never
/// load partially.

#include <memory>
#include <string>

#include "common/status.h"
#include "matching/matcher.h"
#include "stream/incremental_pipeline.h"

namespace gralmatch {

/// The checkpoint format version this binary writes, and the newest it
/// reads. Bump on any layout change.
constexpr uint32_t kCheckpointVersion = 3;

/// Serialize `pipeline` into an in-memory checkpoint image (magic, version,
/// fingerprint header, body, checksum). Fails on a poisoned pipeline — an
/// aborted ingest's inconsistent state must never become a checkpoint.
Result<std::string> SerializeCheckpoint(const IncrementalPipeline& pipeline);

/// Write a checkpoint of `pipeline` to `path` (atomically: a temp file next
/// to `path` is renamed over it, so a crash mid-write never leaves a torn
/// checkpoint under the final name).
Status SaveCheckpoint(const IncrementalPipeline& pipeline,
                      const std::string& path);

/// Parse a checkpoint image. `matcher` must have the fingerprint the
/// checkpoint was saved under; a mismatch (the matcher changed between save
/// and load) is an InvalidArgument error, because the restored score cache
/// would attribute the old matcher's scores to the new one.
/// `num_threads_override` replaces the saved thread count when nonzero.
Result<std::unique_ptr<IncrementalPipeline>> ParseCheckpoint(
    const std::string& image, const PairwiseMatcher& matcher,
    size_t num_threads_override = 0);

/// Read and parse a checkpoint file; same contract as ParseCheckpoint.
Result<std::unique_ptr<IncrementalPipeline>> LoadCheckpoint(
    const std::string& path, const PairwiseMatcher& matcher,
    size_t num_threads_override = 0);

}  // namespace gralmatch

#endif  // GRALMATCH_SERVE_CHECKPOINT_H_
