#include "data/ground_truth.h"

#include <algorithm>
#include <string>

#include "common/binary_io.h"

namespace gralmatch {

void WriteRecordPair(const RecordPair& pair, BinaryWriter* writer) {
  writer->WriteI32(pair.a);
  writer->WriteI32(pair.b);
}

Status ReadRecordPair(BinaryReader* reader, size_t num_records,
                      RecordPair* pair) {
  GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair->a));
  GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair->b));
  if (pair->a < 0 || pair->b < 0 ||
      static_cast<size_t>(pair->a) >= num_records ||
      static_cast<size_t>(pair->b) >= num_records) {
    return Status::IOError("corrupted checkpoint: record pair out of range");
  }
  if (pair->a >= pair->b) {
    return Status::IOError("corrupted checkpoint: record pair (" +
                           std::to_string(pair->a) + ", " +
                           std::to_string(pair->b) +
                           ") is not canonical (a < b)");
  }
  return Status::OK();
}

Status ReadSortedPairList(
    BinaryReader* reader, size_t num_records, size_t min_entry_size,
    const std::function<void(size_t)>& reserve,
    const std::function<Status(const RecordPair&)>& read_value) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(min_entry_size, &count));
  reserve(static_cast<size_t>(count));
  RecordPair prev;
  for (uint64_t k = 0; k < count; ++k) {
    RecordPair pair;
    GRALMATCH_RETURN_NOT_OK(ReadRecordPair(reader, num_records, &pair));
    if (k > 0 && !(prev < pair)) {
      return Status::IOError(
          "corrupted checkpoint: pair list not strictly ascending");
    }
    GRALMATCH_RETURN_NOT_OK(read_value(pair));
    prev = pair;
  }
  return Status::OK();
}

void WritePairValues(PairValues values, BinaryWriter* writer) {
  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer->WriteU64(values.size());
  for (const auto& [pair, value] : values) {
    WriteRecordPair(pair, writer);
    writer->WriteU32(value);
  }
}

Status ReadPairValues(BinaryReader* reader, size_t num_records,
                      PairValues* values) {
  values->clear();
  return ReadSortedPairList(
      reader, num_records, 12,
      [values](size_t count) { values->reserve(count); },
      [reader, values](const RecordPair& pair) {
        uint32_t value = 0;
        GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&value));
        if (value == 0) {
          return Status::IOError("corrupted checkpoint: zero pair value");
        }
        values->emplace_back(pair, value);
        return Status::OK();
      });
}

void GroundTruth::Assign(RecordId record, EntityId entity) {
  size_t idx = static_cast<size_t>(record);
  if (idx >= entity_of_.size()) entity_of_.resize(idx + 1, kInvalidEntity);
  entity_of_[idx] = entity;
}

std::unordered_map<EntityId, std::vector<RecordId>> GroundTruth::Groups() const {
  std::unordered_map<EntityId, std::vector<RecordId>> out;
  for (size_t i = 0; i < entity_of_.size(); ++i) {
    if (entity_of_[i] == kInvalidEntity) continue;
    out[entity_of_[i]].push_back(static_cast<RecordId>(i));
  }
  return out;
}

size_t GroundTruth::NumEntities() const {
  auto groups = Groups();
  return groups.size();
}

uint64_t GroundTruth::NumTrueMatches() const {
  uint64_t total = 0;
  for (const auto& [e, members] : Groups()) {
    uint64_t g = members.size();
    total += g * (g - 1) / 2;
  }
  return total;
}

std::vector<RecordPair> GroundTruth::AllTruePairs() const {
  std::vector<RecordPair> out;
  for (const auto& [e, members] : Groups()) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        out.emplace_back(members[i], members[j]);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gralmatch
