#include "serve/checkpoint.h"

#include "common/binary_io.h"
#include "serve/framing.h"

namespace gralmatch {

namespace {

constexpr char kMagic[8] = {'G', 'R', 'L', 'M', 'C', 'K', 'P', 'T'};

}  // namespace

Result<std::string> SerializeCheckpoint(const IncrementalPipeline& pipeline) {
  BinaryWriter image;
  image.WriteBytes(kMagic, sizeof(kMagic));
  image.WriteU32(kCheckpointVersion);
  image.WriteString(pipeline.fingerprint());
  // The body serializes straight into the image (checkpoints scale with the
  // full pipeline state — no second copy of it); its u64 length prefix is
  // back-patched once the size is known.
  const size_t body_size_pos = image.size();
  image.WriteU64(0);
  GRALMATCH_RETURN_NOT_OK(pipeline.Serialize(&image));
  image.PatchU64(body_size_pos, image.size() - body_size_pos - 8);
  // Trailing checksum over every preceding byte — header included, so a bit
  // flip in the stored fingerprint reads as corruption, not as a
  // plausible-but-wrong "matcher changed" diagnosis.
  image.WriteU64(Fnv1a64(image.buffer()));
  return image.buffer();
}

Status SaveCheckpoint(const IncrementalPipeline& pipeline,
                      const std::string& path) {
  GRALMATCH_ASSIGN_OR_RETURN(const std::string image,
                             SerializeCheckpoint(pipeline));
  return WriteFileAtomically(path, image);
}

Result<std::unique_ptr<IncrementalPipeline>> ParseCheckpoint(
    const std::string& image, const PairwiseMatcher& matcher,
    size_t num_threads_override) {
  BinaryReader reader(image);
  GRALMATCH_RETURN_NOT_OK(CheckMagicBytes(&reader, kMagic, "checkpoint"));
  // Version before checksum, so files from a newer layout still get the
  // version diagnosis; checksum before any variable-length field.
  uint32_t version = 0;
  GRALMATCH_RETURN_NOT_OK(
      CheckFormatVersion(&reader, kCheckpointVersion, "checkpoint", &version));
  GRALMATCH_ASSIGN_OR_RETURN(const uint64_t stored_checksum,
                             CheckTrailingChecksum(image, "checkpoint"));

  std::string fingerprint;
  GRALMATCH_RETURN_NOT_OK(reader.ReadString(&fingerprint));
  GRALMATCH_RETURN_NOT_OK(
      CheckMatcherFingerprint(fingerprint, matcher.Fingerprint()));
  // The body borrows from `image`, which outlives this call.
  GRALMATCH_ASSIGN_OR_RETURN(
      const std::string_view body,
      ReadFramedBody(&reader, stored_checksum, "checkpoint"));

  BinaryReader body_reader(body);
  auto result = IncrementalPipeline::Deserialize(&body_reader, version,
                                                 num_threads_override);
  if (!result.ok()) return result.status();
  if (!body_reader.AtEnd()) {
    return Status::IOError("checkpoint corrupted: " +
                           std::to_string(body_reader.remaining()) +
                           " unconsumed body bytes");
  }
  if (result.ValueOrDie()->fingerprint() != fingerprint) {
    return Status::IOError(
        "checkpoint corrupted: header fingerprint disagrees with the "
        "serialized pipeline state");
  }
  return result;
}

Result<std::unique_ptr<IncrementalPipeline>> LoadCheckpoint(
    const std::string& path, const PairwiseMatcher& matcher,
    size_t num_threads_override) {
  GRALMATCH_ASSIGN_OR_RETURN(const std::string image, ReadWholeFile(path));
  return ParseCheckpoint(image, matcher, num_threads_override);
}

}  // namespace gralmatch
