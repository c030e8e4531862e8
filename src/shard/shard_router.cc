#include "shard/shard_router.h"

#include "common/binary_io.h"

namespace gralmatch {

ShardRouter::ShardRouter(size_t num_shards, uint64_t seed)
    : num_shards_(num_shards == 0 ? 1 : num_shards), seed_(seed) {}

uint64_t ShardRouter::KeyOf(const Record& record) const {
  // Seed and source (little-endian) and kind, then each routed attribute as
  // name 0x1F value 0x1E; the separators keep ("ab","c") and ("a","bc")
  // distinct.
  BinaryWriter head;
  head.WriteU64(seed_);
  const uint16_t source = static_cast<uint16_t>(record.source());
  head.WriteU8(static_cast<uint8_t>(source));
  head.WriteU8(static_cast<uint8_t>(source >> 8));
  head.WriteU8(static_cast<uint8_t>(record.kind()));
  uint64_t h = Fnv1a64(head.buffer(), kFnv1a64ShortOffset);
  for (const auto& [name, value] : record.attributes()) {
    if (!name.empty() && name.front() == '_') continue;  // metadata
    h = Fnv1a64(name, h);
    h = Fnv1a64("\x1f", h);
    h = Fnv1a64(value, h);
    h = Fnv1a64("\x1e", h);
  }
  return h;
}

}  // namespace gralmatch
