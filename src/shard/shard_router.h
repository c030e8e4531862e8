#ifndef GRALMATCH_SHARD_SHARD_ROUTER_H_
#define GRALMATCH_SHARD_SHARD_ROUTER_H_

/// \file shard_router.h
/// Deterministic content-hash routing of records to shards. The route is a
/// pure function of the record's *content* (source, kind, non-metadata
/// attributes) and the router's (shard count, seed) — never of arrival
/// order, record id, or thread count — so the same feed partitions the same
/// way on every run, and a record that recurs in a later batch lands on the
/// shard that already knows its neighbourhood.
///
/// Metadata attributes (names beginning with '_') are excluded by the same
/// convention that keeps them out of every matching input: instrumentation
/// stamps must not move a record between shards.

#include <cstddef>
#include <cstdint>

#include "data/record.h"

namespace gralmatch {

/// \brief Stateless content-hash shard router.
class ShardRouter {
 public:
  ShardRouter() = default;
  /// `num_shards` is clamped to at least 1; `seed` perturbs the hash so two
  /// deployments can partition the same feed differently.
  ShardRouter(size_t num_shards, uint64_t seed);

  size_t num_shards() const { return num_shards_; }
  uint64_t seed() const { return seed_; }

  /// Seeded FNV-1a 64 digest of the record's routing content, started at
  /// kFnv1a64ShortOffset (common/binary_io.h says why it must stay).
  uint64_t KeyOf(const Record& record) const;

  /// Shard this record belongs to, in [0, num_shards).
  size_t ShardOf(const Record& record) const {
    return static_cast<size_t>(KeyOf(record) % num_shards_);
  }

 private:
  size_t num_shards_ = 1;
  uint64_t seed_ = 0;
};

}  // namespace gralmatch

#endif  // GRALMATCH_SHARD_SHARD_ROUTER_H_
