#ifndef GRALMATCH_COMMON_BINARY_IO_H_
#define GRALMATCH_COMMON_BINARY_IO_H_

/// \file binary_io.h
/// Endian-stable binary serialization primitives for the checkpoint format
/// (serve/checkpoint.h). All multi-byte integers are written little-endian
/// byte by byte, so a checkpoint written on any host loads on any other;
/// doubles are written as the little-endian bytes of their IEEE-754 bit
/// pattern, so round-trips are bit-exact. The reader bounds-checks every
/// read and returns a Status instead of crashing on truncated or corrupted
/// input.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gralmatch {

/// \brief Append-only little-endian encoder into an in-memory buffer.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  /// IEEE-754 bit pattern, little-endian: round-trips bit-exactly.
  void WriteDouble(double v);
  /// u64 length prefix followed by the raw bytes.
  void WriteString(std::string_view s);
  void WriteBytes(const void* data, size_t size);

  /// Overwrite the u64 previously written at `pos` (e.g. a length prefix
  /// back-patched after serializing directly into this buffer, instead of
  /// staging the payload in a second buffer). `pos + 8 <= size()` required.
  void PatchU64(size_t pos, uint64_t v);

  const std::string& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// \brief Bounds-checked little-endian decoder over a borrowed buffer.
///
/// Every Read* returns an IOError Status when fewer bytes remain than the
/// value needs — a truncated checkpoint surfaces as a clean error, never as
/// an out-of-bounds read. The buffer must outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadI64(int64_t* out);
  Status ReadDouble(double* out);
  Status ReadString(std::string* out);
  /// Zero-copy variant: `out` borrows from the reader's buffer and is valid
  /// only while that buffer lives.
  Status ReadStringView(std::string_view* out);

  /// Read a u64 element count that the remaining bytes can plausibly hold
  /// (each element occupies at least `min_element_size` bytes). Rejecting
  /// impossible counts up front keeps a corrupted length prefix from
  /// triggering a multi-gigabyte allocation before the bounds checks fire.
  Status ReadCount(size_t min_element_size, uint64_t* out);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Take(size_t n, const char** out);

  std::string_view data_;
  size_t pos_ = 0;
};

/// The standard FNV-1a 64-bit offset basis.
inline constexpr uint64_t kFnv1a64Offset = 14695981039346656037ull;

/// The start value of two persisted hashes: the standard offset basis with
/// its last digit dropped. ShardRouter::KeyOf starts here (it decides which
/// shard file stores a record, and the sharded loader checks that choice),
/// and so does TfidfLogRegMatcher::Fingerprint (checkpoint headers carry
/// it). Do not "fix" it to kFnv1a64Offset: every record would route to
/// another shard and no saved checkpoint would load.
inline constexpr uint64_t kFnv1a64ShortOffset = 1469598103934665603ull;

/// FNV-1a 64-bit hash of a byte buffer (checkpoint payload checksum).
/// Passing a previous result as `hash` continues that hash over `data`.
uint64_t Fnv1a64(std::string_view data, uint64_t hash = kFnv1a64Offset);

}  // namespace gralmatch

#endif  // GRALMATCH_COMMON_BINARY_IO_H_
