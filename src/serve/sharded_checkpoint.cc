#include "serve/sharded_checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "common/binary_io.h"
#include "common/strings.h"
#include "serve/framing.h"

namespace gralmatch {

namespace {

constexpr char kShardMagic[8] = {'G', 'R', 'L', 'M', 'S', 'H', 'R', 'D'};
constexpr char kManifestMagic[8] = {'G', 'R', 'L', 'M', 'M', 'N', 'F', 'T'};
constexpr char kManifestName[] = "manifest.grlm";

/// Content-addressed shard file name: the checksum (the same value the
/// manifest records for this shard) is part of the name, so two saves
/// never collide on a name unless the bytes are identical.
std::string ShardFileName(size_t shard, uint64_t checksum) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  return "shard-" + std::to_string(shard) + "-" + hex + ".grlm";
}

/// Parse just enough of the manifest to learn the per-shard checksums
/// (magic, version, fingerprint, shard count, checksum list). The caller
/// decides how much further validation to run.
struct ManifestHeader {
  uint32_t version = 0;
  std::string fingerprint;
  std::vector<uint64_t> shard_checksums;
  uint64_t trailing_checksum = 0;
};

Result<ManifestHeader> ReadManifestHeader(BinaryReader* reader,
                                          const std::string& image) {
  GRALMATCH_RETURN_NOT_OK(
      CheckMagicBytes(reader, kManifestMagic, "sharded checkpoint manifest"));
  ManifestHeader header;
  GRALMATCH_RETURN_NOT_OK(CheckFormatVersion(
      reader, kShardedCheckpointVersion, "manifest", &header.version));
  GRALMATCH_ASSIGN_OR_RETURN(header.trailing_checksum,
                             CheckTrailingChecksum(image, "manifest"));
  GRALMATCH_RETURN_NOT_OK(reader->ReadString(&header.fingerprint));
  uint64_t num_shards = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &num_shards));
  if (num_shards == 0) {
    return Status::IOError("corrupted manifest: zero shards");
  }
  header.shard_checksums.resize(static_cast<size_t>(num_shards));
  for (uint64_t& checksum : header.shard_checksums) {
    GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&checksum));
  }
  return header;
}

/// Delete every shard file in `dir` that the just-committed manifest does
/// not reference (previous checkpoints' files, halves of interrupted
/// saves, stray temp files). Best-effort: a GC failure never fails the
/// save — the extra files are harmless to every future load.
void CollectGarbage(const std::string& dir,
                    const std::unordered_set<std::string>& live_names) {
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) return;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    const bool stale_shard = StartsWith(name, "shard-") &&
                             EndsWith(name, ".grlm") && !live_names.count(name);
    // WriteFileAtomically's temp names are "<file>.tmp.<pid>.<counter>";
    // plain ".tmp" suffixes cover files older binaries left behind.
    const bool stray_tmp =
        EndsWith(name, ".tmp") || name.find(".tmp.") != std::string::npos;
    if (stale_shard || stray_tmp) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  closedir(handle);
}

}  // namespace

std::string ShardedManifestPath(const std::string& dir) {
  return dir + "/" + kManifestName;
}

Result<std::vector<std::string>> ShardFilePaths(const std::string& dir) {
  GRALMATCH_ASSIGN_OR_RETURN(const std::string image,
                             ReadWholeFile(ShardedManifestPath(dir)));
  BinaryReader reader(image);
  GRALMATCH_ASSIGN_OR_RETURN(const ManifestHeader header,
                             ReadManifestHeader(&reader, image));
  std::vector<std::string> paths;
  paths.reserve(header.shard_checksums.size());
  for (size_t s = 0; s < header.shard_checksums.size(); ++s) {
    paths.push_back(dir + "/" + ShardFileName(s, header.shard_checksums[s]));
  }
  return paths;
}

Status SaveShardedCheckpoint(const ShardedPipeline& pipeline,
                             const std::string& dir,
                             obs::MetricsRegistry* metrics) {
  obs::TraceScope save_span(
      metrics == nullptr ? nullptr
                         : metrics->GetHistogram("checkpoint_save_seconds"));
  GRALMATCH_RETURN_NOT_OK(pipeline.status());
  if (mkdir(dir.c_str(), 0777) != 0) {
    if (errno != EEXIST) {
      return Status::IOErrorFromErrno("cannot create checkpoint directory: " +
                                      dir);
    }
    // EEXIST only means *some* path component exists — a regular file at
    // `dir` would otherwise surface later as confusing per-shard-file write
    // failures instead of one clear error here.
    struct stat info;
    if (stat(dir.c_str(), &info) != 0) {
      return Status::IOErrorFromErrno("cannot stat checkpoint directory: " +
                                      dir);
    }
    if (!S_ISDIR(info.st_mode)) {
      return Status::IOError("checkpoint directory path exists but is not a "
                             "directory: " +
                             dir);
    }
  }

  // Content-addressed shard files first. Their names are new unless their
  // bytes are identical to an existing file's, so the previous checkpoint
  // stays complete on disk throughout.
  std::vector<BinaryWriter> bodies;
  GRALMATCH_RETURN_NOT_OK(pipeline.SerializeShardBodies(&bodies));
  std::vector<uint64_t> shard_checksums;
  std::unordered_set<std::string> live_names;
  shard_checksums.reserve(bodies.size());
  for (size_t s = 0; s < bodies.size(); ++s) {
    BinaryWriter image;
    image.WriteBytes(kShardMagic, sizeof(kShardMagic));
    image.WriteU32(kShardedCheckpointVersion);
    image.WriteU32(static_cast<uint32_t>(s));
    image.WriteU64(bodies[s].size());
    image.WriteBytes(bodies[s].buffer().data(), bodies[s].size());
    image.WriteU64(Fnv1a64(image.buffer()));
    const uint64_t checksum = Fnv1a64(image.buffer());
    shard_checksums.push_back(checksum);
    const std::string name = ShardFileName(s, checksum);
    live_names.insert(name);
    GRALMATCH_RETURN_NOT_OK(
        WriteFileAtomically(dir + "/" + name, image.buffer()));
  }

  // The manifest — the only pointer that makes the files a checkpoint —
  // commits atomically last.
  BinaryWriter manifest;
  manifest.WriteBytes(kManifestMagic, sizeof(kManifestMagic));
  manifest.WriteU32(kShardedCheckpointVersion);
  manifest.WriteString(pipeline.fingerprint());
  manifest.WriteU64(shard_checksums.size());
  for (const uint64_t checksum : shard_checksums) {
    manifest.WriteU64(checksum);
  }
  const size_t body_size_pos = manifest.size();
  manifest.WriteU64(0);
  GRALMATCH_RETURN_NOT_OK(pipeline.SerializeManifestBody(&manifest));
  manifest.PatchU64(body_size_pos, manifest.size() - body_size_pos - 8);
  manifest.WriteU64(Fnv1a64(manifest.buffer()));
  GRALMATCH_RETURN_NOT_OK(
      WriteFileAtomically(ShardedManifestPath(dir), manifest.buffer()));

  CollectGarbage(dir, live_names);
  return Status::OK();
}

Result<std::unique_ptr<ShardedPipeline>> LoadShardedCheckpoint(
    const std::string& dir, const PairwiseMatcher& matcher,
    size_t num_threads_override, obs::MetricsRegistry* metrics) {
  obs::TraceScope load_span(
      metrics == nullptr ? nullptr
                         : metrics->GetHistogram("checkpoint_load_seconds"));
  GRALMATCH_ASSIGN_OR_RETURN(const std::string manifest_image,
                             ReadWholeFile(ShardedManifestPath(dir)));
  BinaryReader manifest(manifest_image);
  GRALMATCH_ASSIGN_OR_RETURN(const ManifestHeader header,
                             ReadManifestHeader(&manifest, manifest_image));
  GRALMATCH_RETURN_NOT_OK(
      CheckMatcherFingerprint(header.fingerprint, matcher.Fingerprint()));
  GRALMATCH_ASSIGN_OR_RETURN(
      const std::string_view manifest_body,
      ReadFramedBody(&manifest, header.trailing_checksum, "manifest"));

  // Shard files: each must exist under its content-addressed name and
  // hash to exactly what the manifest recorded — a partial save, a stale
  // file from an older checkpoint, or two shard files swapped on disk all
  // fail here, before any content is trusted.
  std::vector<std::string> shard_images;
  shard_images.reserve(header.shard_checksums.size());
  for (size_t s = 0; s < header.shard_checksums.size(); ++s) {
    const std::string path =
        dir + "/" + ShardFileName(s, header.shard_checksums[s]);
    auto image = ReadWholeFile(path);
    if (!image.ok()) {
      return Status::IOError("sharded checkpoint is missing shard file " +
                             path + ": " + image.status().message());
    }
    if (Fnv1a64(*image) != header.shard_checksums[s]) {
      return Status::IOError(
          "shard file " + path +
          " does not match the manifest checksum (damaged, stale, or "
          "swapped with another shard's file)");
    }
    shard_images.push_back(std::move(*image));
  }

  std::vector<BinaryReader> shard_bodies;
  shard_bodies.reserve(shard_images.size());
  for (size_t s = 0; s < shard_images.size(); ++s) {
    BinaryReader reader(shard_images[s]);
    GRALMATCH_RETURN_NOT_OK(
        CheckMagicBytes(&reader, kShardMagic, "shard checkpoint file"));
    uint32_t shard_version = 0;
    GRALMATCH_RETURN_NOT_OK(CheckFormatVersion(
        &reader, kShardedCheckpointVersion, "shard file", &shard_version));
    if (shard_version != header.version) {
      return Status::IOError(
          "shard file for shard " + std::to_string(s) + " carries version " +
          std::to_string(shard_version) + " but the manifest is version " +
          std::to_string(header.version) +
          "; the checkpoint's files must share one version");
    }
    GRALMATCH_ASSIGN_OR_RETURN(
        const uint64_t checksum,
        CheckTrailingChecksum(shard_images[s], "shard file"));
    uint32_t index = 0;
    GRALMATCH_RETURN_NOT_OK(reader.ReadU32(&index));
    if (index != s) {
      return Status::IOError("shard file for shard " + std::to_string(s) +
                             " carries shard index " + std::to_string(index));
    }
    GRALMATCH_ASSIGN_OR_RETURN(const std::string_view body,
                               ReadFramedBody(&reader, checksum, "shard file"));
    shard_bodies.emplace_back(body);
  }

  BinaryReader manifest_body_reader(manifest_body);
  auto result = ShardedPipeline::DeserializeFromParts(
      &manifest_body_reader, &shard_bodies, header.version,
      num_threads_override);
  if (!result.ok()) return result.status();
  if (!manifest_body_reader.AtEnd()) {
    return Status::IOError("manifest corrupted: unconsumed body bytes");
  }
  for (const BinaryReader& body : shard_bodies) {
    if (!body.AtEnd()) {
      return Status::IOError("shard file corrupted: unconsumed body bytes");
    }
  }
  if (result.ValueOrDie()->fingerprint() != header.fingerprint) {
    return Status::IOError(
        "manifest corrupted: header fingerprint disagrees with the "
        "serialized pipeline state");
  }
  return result;
}

}  // namespace gralmatch
