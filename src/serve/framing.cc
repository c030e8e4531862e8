#include "serve/framing.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <string_view>

#include "common/binary_io.h"

namespace gralmatch {

namespace {

/// Temp name unique across processes (pid) and across concurrent savers in
/// this process (atomic counter): two threads saving to the same path each
/// write their own temp file, and the rename decides which image wins —
/// neither can publish the other's partial bytes.
std::string UniqueTempPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + ".tmp." + std::to_string(static_cast<long long>(getpid())) +
         "." + std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// fsync the directory holding `path`, making a just-committed rename of an
/// entry inside it survive power loss. Best-effort by contract: some
/// filesystems refuse to open or fsync directories, and the data itself is
/// already durable — only the *name* could revert to the previous image,
/// which is exactly the pre-rename state and still a valid file.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)fsync(fd);
  (void)close(fd);
}

}  // namespace

Status WriteFileAtomically(const std::string& path, const std::string& image) {
  const std::string tmp_path = UniqueTempPath(path);
  const int fd = open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0666);
  if (fd < 0) {
    return Status::IOErrorFromErrno("cannot open for writing: " + tmp_path);
  }
  size_t written = 0;
  while (written < image.size()) {
    const ssize_t n =
        write(fd, image.data() + written, image.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status failure = Status::IOErrorFromErrno("write failed: " + tmp_path);
      (void)close(fd);
      (void)std::remove(tmp_path.c_str());
      return failure;
    }
    written += static_cast<size_t>(n);
  }
  // The bytes must be durable *before* the rename publishes the name: a
  // crash after the rename but before a data flush would otherwise leave
  // the final name pointing at a torn file — the exact failure the atomic
  // discipline promises away.
  if (fsync(fd) != 0) {
    Status failure = Status::IOErrorFromErrno("fsync failed: " + tmp_path);
    (void)close(fd);
    (void)std::remove(tmp_path.c_str());
    return failure;
  }
  if (close(fd) != 0) {
    Status failure = Status::IOErrorFromErrno("close failed: " + tmp_path);
    (void)std::remove(tmp_path.c_str());
    return failure;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    Status failure = Status::IOErrorFromErrno("cannot rename " + tmp_path +
                                              " to " + path);
    (void)std::remove(tmp_path.c_str());
    return failure;
  }
  SyncParentDirectory(path);
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOErrorFromErrno("cannot open for reading: " + path);
  }
  struct stat info;
  if (fstat(fd, &info) != 0) {
    Status failure = Status::IOErrorFromErrno("cannot stat: " + path);
    (void)close(fd);
    return failure;
  }
  std::string image(static_cast<size_t>(info.st_size), '\0');
  size_t filled = 0;
  while (filled < image.size()) {
    const ssize_t n = read(fd, &image[filled], image.size() - filled);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status failure = Status::IOErrorFromErrno("read failed: " + path);
      (void)close(fd);
      return failure;
    }
    if (n == 0) break;  // shrank under us; return what exists
    filled += static_cast<size_t>(n);
  }
  (void)close(fd);
  image.resize(filled);
  return image;
}

Status CheckMagicBytes(BinaryReader* reader, const char (&magic)[8],
                       const std::string& what) {
  for (size_t k = 0; k < sizeof(magic); ++k) {
    uint8_t byte = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadU8(&byte));
    if (byte != static_cast<uint8_t>(magic[k])) {
      return Status::InvalidArgument("not a gralmatch " + what +
                                     " (bad magic bytes)");
    }
  }
  return Status::OK();
}

Status CheckFormatVersion(BinaryReader* reader, uint32_t current_version,
                          const std::string& what, uint32_t* parsed_version) {
  uint32_t version = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&version));
  if (version > current_version) {
    return Status::InvalidArgument(
        what + " version " + std::to_string(version) +
        " is newer than this binary's format version " +
        std::to_string(current_version) + "; refusing to guess its layout");
  }
  if (version == 0) {
    return Status::InvalidArgument(what + " version 0 is not valid");
  }
  if (parsed_version != nullptr) *parsed_version = version;
  return Status::OK();
}

Result<uint64_t> CheckTrailingChecksum(const std::string& image,
                                       const std::string& what) {
  if (image.size() < 8) {
    return Status::IOError("truncated " + what + ": missing checksum");
  }
  BinaryReader tail(std::string_view(image).substr(image.size() - 8));
  uint64_t stored = 0;
  GRALMATCH_RETURN_NOT_OK(tail.ReadU64(&stored));
  if (stored != Fnv1a64(std::string_view(image.data(), image.size() - 8))) {
    return Status::IOError(what +
                           " corrupted: checksum mismatch (file damaged or "
                           "partially written)");
  }
  return stored;
}

Status CheckMatcherFingerprint(const std::string& saved,
                               const std::string& serving) {
  if (saved.empty() || saved == serving) return Status::OK();
  return Status::InvalidArgument(
      "matcher fingerprint mismatch: checkpoint was saved under \"" + saved +
      "\" but the serving matcher is \"" + serving +
      "\"; the cached pair scores are only valid for the saved matcher");
}

Result<std::string_view> ReadFramedBody(BinaryReader* reader,
                                        uint64_t stored_checksum,
                                        const std::string& what) {
  std::string_view body;
  GRALMATCH_RETURN_NOT_OK(reader->ReadStringView(&body));
  uint64_t trailer = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&trailer));
  if (trailer != stored_checksum) {
    return Status::IOError(
        what + " corrupted: body length disagrees with the checksum position");
  }
  if (!reader->AtEnd()) {
    return Status::IOError(what + " corrupted: " +
                           std::to_string(reader->remaining()) +
                           " trailing bytes after the checksum");
  }
  return body;
}

}  // namespace gralmatch
