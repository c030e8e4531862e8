#ifndef GRALMATCH_DATA_GROUND_TRUTH_H_
#define GRALMATCH_DATA_GROUND_TRUTH_H_

/// \file ground_truth.h
/// Ground-truth entity assignment for a RecordTable, plus the pair types
/// used throughout blocking, matching and evaluation.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/record.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;

/// \brief Unordered record pair, normalized so that a < b.
struct RecordPair {
  RecordId a = kInvalidRecord;
  RecordId b = kInvalidRecord;

  RecordPair() = default;
  RecordPair(RecordId x, RecordId y) : a(x < y ? x : y), b(x < y ? y : x) {}

  bool operator==(const RecordPair& o) const { return a == o.a && b == o.b; }
  bool operator<(const RecordPair& o) const {
    return a != o.a ? a < o.a : b < o.b;
  }
};

/// Checkpoint encoding of one pair: i32 a, then i32 b. Every pair field of
/// every checkpoint layout goes through this codec (docs/formats.md).
void WriteRecordPair(const RecordPair& pair, BinaryWriter* writer);

/// Decode one WriteRecordPair encoding. The pair must be canonical and in
/// range, 0 <= a < b < num_records: a swapped or self pair is corruption
/// (IOError), never normalized, because every pair-keyed map is keyed on
/// the canonical form.
Status ReadRecordPair(BinaryReader* reader, size_t num_records,
                      RecordPair* pair);

/// Decode a pair-keyed list written in ascending pair order: a u64 count,
/// then per entry one pair (ReadRecordPair) followed by whatever
/// `read_value` consumes — it may reject the value. Pairs must ascend
/// strictly, so a duplicate entry is corruption too. `min_entry_size`
/// bounds the count by the bytes left (BinaryReader::ReadCount); `reserve`
/// receives the count before the first entry.
Status ReadSortedPairList(
    BinaryReader* reader, size_t num_records, size_t min_entry_size,
    const std::function<void(size_t)>& reserve,
    const std::function<Status(const RecordPair&)>& read_value);

struct RecordPairHash {
  size_t operator()(const RecordPair& p) const {
    return std::hash<uint64_t>()(
        (static_cast<uint64_t>(static_cast<uint32_t>(p.a)) << 32) |
        static_cast<uint32_t>(p.b));
  }
};

/// Pair -> nonzero u32 entries (blocking refcounts, provenance bits).
using PairValues = std::vector<std::pair<RecordPair, uint32_t>>;

/// Encode `values` (unique pairs, any order) in ascending pair order: u64
/// count, then each pair (WriteRecordPair) and its u32.
void WritePairValues(PairValues values, BinaryWriter* writer);

/// Read WritePairValues output (ReadSortedPairList rules) into ascending
/// entries. A zero value is corruption: no writer stores one.
Status ReadPairValues(BinaryReader* reader, size_t num_records,
                      PairValues* values);

/// \brief Entity assignment: one EntityId per record.
///
/// Two records match iff they share an entity id. The number of true matches
/// of an entity group of size g is g*(g-1)/2 (the complete graph).
class GroundTruth {
 public:
  GroundTruth() = default;
  explicit GroundTruth(std::vector<EntityId> entity_of)
      : entity_of_(std::move(entity_of)) {}

  /// Assign a record to an entity, growing the table as needed.
  void Assign(RecordId record, EntityId entity);

  EntityId entity_of(RecordId record) const {
    return entity_of_[static_cast<size_t>(record)];
  }

  size_t num_records() const { return entity_of_.size(); }

  bool IsMatch(RecordId a, RecordId b) const {
    return entity_of(a) != kInvalidEntity && entity_of(a) == entity_of(b);
  }
  bool IsMatch(const RecordPair& p) const { return IsMatch(p.a, p.b); }

  /// Records of each entity, keyed by entity id.
  std::unordered_map<EntityId, std::vector<RecordId>> Groups() const;

  /// Number of distinct entities with at least one record.
  size_t NumEntities() const;

  /// Total number of true matches: sum over groups of g*(g-1)/2.
  uint64_t NumTrueMatches() const;

  /// All true match pairs (complete graph per group). Quadratic in group
  /// size; intended for evaluation and training-pair construction.
  std::vector<RecordPair> AllTruePairs() const;

 private:
  std::vector<EntityId> entity_of_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_DATA_GROUND_TRUTH_H_
