#ifndef GRALMATCH_DATA_RECORD_H_
#define GRALMATCH_DATA_RECORD_H_

/// \file record.h
/// Core data model: multi-source records with ordered string attributes.
/// Records are identified by their index in a RecordTable; every record
/// carries the id of the data source it originates from.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;

/// Index of a record within its RecordTable.
using RecordId = int32_t;
/// Ground-truth entity identifier.
using EntityId = int32_t;
/// Data-source (vendor) identifier.
using SourceId = int16_t;

constexpr RecordId kInvalidRecord = -1;
constexpr EntityId kInvalidEntity = -1;

/// What a record describes.
enum class RecordKind : uint8_t { kCompany, kSecurity, kProduct };

/// \brief One record: a source id plus an ordered list of (name, value)
/// attributes.
///
/// Attribute order is preserved because serialization order matters to the
/// sequence models (leading attributes survive truncation). Multi-valued
/// identifier attributes store their values joined with '|'. Attribute names
/// beginning with '_' are metadata: they are excluded from AllText() and by
/// convention from every matching input (serializers, blockers).
class Record {
 public:
  Record() = default;
  Record(SourceId source, RecordKind kind) : source_(source), kind_(kind) {}

  SourceId source() const { return source_; }
  RecordKind kind() const { return kind_; }

  /// Append or overwrite an attribute. Overwrite keeps the original position.
  void Set(std::string_view name, std::string_view value);

  /// Value of an attribute, or "" if absent.
  std::string_view Get(std::string_view name) const;

  /// True if the attribute exists and is non-empty.
  bool Has(std::string_view name) const;

  /// All attributes in insertion order.
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attrs_;
  }

  /// Values of a '|'-joined multi-valued attribute (empty values dropped).
  std::vector<std::string> GetMulti(std::string_view name) const;

  /// Concatenation of all attribute values, space-separated (for TF-IDF /
  /// token statistics).
  std::string AllText() const;

 private:
  SourceId source_ = 0;
  RecordKind kind_ = RecordKind::kCompany;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

/// Checkpoint encoding of one record: i32 source, u8 kind, u64 attribute
/// count, then each (name, value) as length-prefixed strings in order. Both
/// checkpoint layouts store records through this codec (docs/formats.md).
void WriteRecord(const Record& record, BinaryWriter* writer);

/// Decode one WriteRecord encoding into `record`. An unknown kind, a
/// source outside SourceId's range or a repeated attribute name is
/// corruption (IOError): each would re-encode to different bytes.
Status ReadRecord(BinaryReader* reader, Record* record);

/// \brief A table of records from multiple sources.
class RecordTable {
 public:
  /// Append a record, returning its id.
  RecordId Add(Record record);

  const Record& at(RecordId id) const { return records_[static_cast<size_t>(id)]; }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  const std::vector<Record>& records() const { return records_; }

  /// Number of distinct source ids present.
  size_t NumSources() const;

 private:
  std::vector<Record> records_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_DATA_RECORD_H_
