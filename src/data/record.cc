#include "data/record.h"

#include <limits>
#include <set>

#include "common/binary_io.h"
#include "common/strings.h"

namespace gralmatch {

void Record::Set(std::string_view name, std::string_view value) {
  for (auto& [n, v] : attrs_) {
    if (n == name) {
      v = std::string(value);
      return;
    }
  }
  attrs_.emplace_back(std::string(name), std::string(value));
}

std::string_view Record::Get(std::string_view name) const {
  for (const auto& [n, v] : attrs_) {
    if (n == name) return v;
  }
  return {};
}

bool Record::Has(std::string_view name) const { return !Get(name).empty(); }

std::vector<std::string> Record::GetMulti(std::string_view name) const {
  std::vector<std::string> out;
  std::string_view raw = Get(name);
  if (raw.empty()) return out;
  for (auto& part : Split(raw, '|')) {
    if (!part.empty()) out.push_back(std::move(part));
  }
  return out;
}

std::string Record::AllText() const {
  std::string out;
  for (const auto& [n, v] : attrs_) {
    if (v.empty() || (!n.empty() && n[0] == '_')) continue;
    if (!out.empty()) out.push_back(' ');
    out.append(v);
  }
  return out;
}

void WriteRecord(const Record& record, BinaryWriter* writer) {
  writer->WriteI32(record.source());
  writer->WriteU8(static_cast<uint8_t>(record.kind()));
  writer->WriteU64(record.attributes().size());
  for (const auto& [name, value] : record.attributes()) {
    writer->WriteString(name);
    writer->WriteString(value);
  }
}

Status ReadRecord(BinaryReader* reader, Record* record) {
  int32_t source = 0;
  uint8_t kind = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&source));
  GRALMATCH_RETURN_NOT_OK(reader->ReadU8(&kind));
  if (source < std::numeric_limits<SourceId>::min() ||
      source > std::numeric_limits<SourceId>::max()) {
    return Status::IOError("corrupted checkpoint: record source " +
                           std::to_string(source) + " out of range");
  }
  if (kind > static_cast<uint8_t>(RecordKind::kProduct)) {
    return Status::IOError("corrupted checkpoint: unknown record kind " +
                           std::to_string(kind));
  }
  *record = Record(static_cast<SourceId>(source), static_cast<RecordKind>(kind));
  uint64_t num_attrs = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(16, &num_attrs));
  for (uint64_t a = 0; a < num_attrs; ++a) {
    std::string name, value;
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&name));
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&value));
    record->Set(name, value);
    if (record->attributes().size() != a + 1) {
      return Status::IOError("corrupted checkpoint: record attribute \"" +
                             name + "\" repeated");
    }
  }
  return Status::OK();
}

RecordId RecordTable::Add(Record record) {
  records_.push_back(std::move(record));
  return static_cast<RecordId>(records_.size() - 1);
}

size_t RecordTable::NumSources() const {
  std::set<SourceId> sources;
  for (const auto& r : records_) sources.insert(r.source());
  return sources.size();
}

}  // namespace gralmatch
