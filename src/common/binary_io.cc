#include "common/binary_io.h"

#include <cstring>

namespace gralmatch {

void BinaryWriter::WriteU32(uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void BinaryWriter::WriteU64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void BinaryWriter::WriteDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit IEEE-754");
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  buf_.append(s.data(), s.size());
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void BinaryWriter::PatchU64(size_t pos, uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    buf_[pos + static_cast<size_t>(k)] =
        static_cast<char>((v >> (8 * k)) & 0xffu);
  }
}

Status BinaryReader::Take(size_t n, const char** out) {
  if (remaining() < n) {
    return Status::IOError("truncated input: need " + std::to_string(n) +
                           " bytes at offset " + std::to_string(pos_) +
                           ", have " + std::to_string(remaining()));
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return Status::OK();
}

Status BinaryReader::ReadU8(uint8_t* out) {
  const char* p = nullptr;
  GRALMATCH_RETURN_NOT_OK(Take(1, &p));
  *out = static_cast<uint8_t>(*p);
  return Status::OK();
}

Status BinaryReader::ReadU32(uint32_t* out) {
  const char* p = nullptr;
  GRALMATCH_RETURN_NOT_OK(Take(4, &p));
  uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[k])) << (8 * k);
  }
  *out = v;
  return Status::OK();
}

Status BinaryReader::ReadU64(uint64_t* out) {
  const char* p = nullptr;
  GRALMATCH_RETURN_NOT_OK(Take(8, &p));
  uint64_t v = 0;
  for (int k = 0; k < 8; ++k) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[k])) << (8 * k);
  }
  *out = v;
  return Status::OK();
}

Status BinaryReader::ReadI32(int32_t* out) {
  uint32_t v = 0;
  GRALMATCH_RETURN_NOT_OK(ReadU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status BinaryReader::ReadI64(int64_t* out) {
  uint64_t v = 0;
  GRALMATCH_RETURN_NOT_OK(ReadU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status BinaryReader::ReadDouble(double* out) {
  uint64_t bits = 0;
  GRALMATCH_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status BinaryReader::ReadString(std::string* out) {
  std::string_view view;
  GRALMATCH_RETURN_NOT_OK(ReadStringView(&view));
  out->assign(view.data(), view.size());
  return Status::OK();
}

Status BinaryReader::ReadStringView(std::string_view* out) {
  uint64_t size = 0;
  GRALMATCH_RETURN_NOT_OK(ReadCount(1, &size));
  const char* p = nullptr;
  GRALMATCH_RETURN_NOT_OK(Take(static_cast<size_t>(size), &p));
  *out = std::string_view(p, static_cast<size_t>(size));
  return Status::OK();
}

Status BinaryReader::ReadCount(size_t min_element_size, uint64_t* out) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(ReadU64(&count));
  if (min_element_size > 0 &&
      count > remaining() / static_cast<uint64_t>(min_element_size)) {
    return Status::IOError("corrupted input: count " + std::to_string(count) +
                           " at offset " + std::to_string(pos_ - 8) +
                           " exceeds remaining " +
                           std::to_string(remaining()) + " bytes");
  }
  *out = count;
  return Status::OK();
}

uint64_t Fnv1a64(std::string_view data, uint64_t hash) {
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace gralmatch
