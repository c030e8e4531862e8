#ifndef GRALMATCH_SERVE_FRAMING_H_
#define GRALMATCH_SERVE_FRAMING_H_

/// \file framing.h
/// Shared framing primitives for the durable checkpoint formats — the
/// single-file pipeline checkpoint (checkpoint.h) and the sharded
/// manifest + per-shard-file checkpoint (sharded_checkpoint.h) frame their
/// images the same way (8-byte magic, u32 version, length-prefixed body,
/// trailing whole-image FNV-1a 64 checksum) and persist them with the same
/// atomic temp-file + rename discipline. One implementation here keeps the
/// two durability paths from drifting.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gralmatch {

class BinaryReader;

/// Write `image` to `path` atomically and durably: a uniquely named temp
/// file next to `path` (pid + per-process counter, so concurrent savers to
/// the same path never share a temp file) is fsynced and then renamed over
/// it, and the parent directory is fsynced after the rename — a crash or
/// power loss at any point leaves the final name holding either the
/// previous complete image or the new complete image, never torn bytes.
Status WriteFileAtomically(const std::string& path, const std::string& image);

/// Read the complete file into one buffer (checkpoints scale with the full
/// pipeline state, so the restore path avoids stream-copy detours).
Result<std::string> ReadWholeFile(const std::string& path);

/// Consume and verify an 8-byte magic; `what` names the format in the
/// error ("not a gralmatch <what> (bad magic bytes)").
Status CheckMagicBytes(BinaryReader* reader, const char (&magic)[8],
                       const std::string& what);

/// Consume and verify a u32 format version: versions newer than
/// `current_version` are rejected, not misread, and version 0 is invalid.
/// The accepted version is returned through `parsed_version` (optional) —
/// multi-version readers branch their body layout on it.
Status CheckFormatVersion(BinaryReader* reader, uint32_t current_version,
                          const std::string& what,
                          uint32_t* parsed_version = nullptr);

/// Verify the trailing whole-image checksum (the last 8 bytes against the
/// FNV-1a 64 of everything before them), returning its value.
Result<uint64_t> CheckTrailingChecksum(const std::string& image,
                                       const std::string& what);

/// Refuse to restore cached scores under a different matcher: `saved` is
/// the fingerprint a checkpoint stores, `serving` the loading matcher's.
/// "" means the pipeline never mutated (its score cache is empty), so any
/// matcher may take over. A mismatch is InvalidArgument.
Status CheckMatcherFingerprint(const std::string& saved,
                               const std::string& serving);

/// Read the tail of a framed image: a length-prefixed body, then the
/// trailing checksum, which must equal `stored_checksum` (the value
/// CheckTrailingChecksum verified) and end the image. The returned body
/// borrows from the reader's buffer.
Result<std::string_view> ReadFramedBody(BinaryReader* reader,
                                        uint64_t stored_checksum,
                                        const std::string& what);

}  // namespace gralmatch

#endif  // GRALMATCH_SERVE_FRAMING_H_
