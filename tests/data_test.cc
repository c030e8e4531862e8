// Tests for the data model: records, ground truth, group-wise splits, CSV
// round-trips and the checkpoint codecs for records and pairs.

#include <set>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/ground_truth.h"
#include "data/record.h"

namespace gralmatch {
namespace {

TEST(RecordTest, SetGetOverwriteKeepsPosition) {
  Record rec(1, RecordKind::kCompany);
  rec.Set("name", "Acme");
  rec.Set("city", "Zurich");
  rec.Set("name", "Acme Corp");
  ASSERT_EQ(rec.attributes().size(), 2u);
  EXPECT_EQ(rec.attributes()[0].first, "name");
  EXPECT_EQ(rec.Get("name"), "Acme Corp");
  EXPECT_EQ(rec.Get("missing"), "");
  EXPECT_TRUE(rec.Has("city"));
  EXPECT_FALSE(rec.Has("missing"));
}

TEST(RecordTest, MultiValuedAttributes) {
  Record rec(0, RecordKind::kSecurity);
  rec.Set("isin", "US1||US2|");  // empty values dropped
  EXPECT_EQ(rec.GetMulti("isin"), (std::vector<std::string>{"US1", "US2"}));
  EXPECT_TRUE(rec.GetMulti("cusip").empty());
}

TEST(RecordTest, AllTextSkipsMetadataAndEmpty) {
  Record rec(0, RecordKind::kCompany);
  rec.Set("name", "Acme");
  rec.Set("_event", "acquisition");
  rec.Set("empty", "");
  rec.Set("city", "Basel");
  EXPECT_EQ(rec.AllText(), "Acme Basel");
}

TEST(RecordTableTest, AddAndSourceCount) {
  RecordTable table;
  EXPECT_TRUE(table.empty());
  RecordId a = table.Add(Record(0, RecordKind::kCompany));
  RecordId b = table.Add(Record(2, RecordKind::kCompany));
  table.Add(Record(2, RecordKind::kCompany));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.NumSources(), 2u);
  EXPECT_EQ(table.at(b).source(), 2);
}

GroundTruth MakeTruth() {
  GroundTruth truth;
  truth.Assign(0, 10);
  truth.Assign(1, 10);
  truth.Assign(2, 10);
  truth.Assign(3, 20);
  truth.Assign(4, 20);
  truth.Assign(5, kInvalidEntity);
  return truth;
}

TEST(GroundTruthTest, MatchSemantics) {
  GroundTruth truth = MakeTruth();
  EXPECT_TRUE(truth.IsMatch(0, 1));
  EXPECT_FALSE(truth.IsMatch(0, 3));
  // Unassigned records never match, not even themselves.
  EXPECT_FALSE(truth.IsMatch(5, 5));
  EXPECT_TRUE(truth.IsMatch(RecordPair(4, 3)));
}

TEST(GroundTruthTest, GroupsAndCounts) {
  GroundTruth truth = MakeTruth();
  auto groups = truth.Groups();
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(truth.NumEntities(), 2u);
  EXPECT_EQ(groups[10].size(), 3u);
  // C(3,2) + C(2,2) = 3 + 1.
  EXPECT_EQ(truth.NumTrueMatches(), 4u);
}

TEST(GroundTruthTest, AllTruePairsCompleteGraphs) {
  GroundTruth truth = MakeTruth();
  auto pairs = truth.AllTruePairs();
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0], RecordPair(0, 1));
  EXPECT_EQ(pairs[3], RecordPair(3, 4));
}

TEST(RecordPairTest, NormalizesOrder) {
  RecordPair p(5, 2);
  EXPECT_EQ(p.a, 2);
  EXPECT_EQ(p.b, 5);
  EXPECT_EQ(p, RecordPair(2, 5));
  EXPECT_LT(RecordPair(1, 9), RecordPair(2, 3));
  RecordPairHash hash;
  EXPECT_EQ(hash(RecordPair(5, 2)), hash(RecordPair(2, 5)));
}

TEST(RecordCodecTest, RoundTripsAndRejectsEncodingsThatWouldNotReencode) {
  Record rec(7, RecordKind::kSecurity);
  rec.Set("name", "acme holdings");
  rec.Set("isin", "XS0000000001");
  BinaryWriter writer;
  WriteRecord(rec, &writer);
  BinaryReader reader(writer.buffer());
  Record decoded;
  ASSERT_TRUE(ReadRecord(&reader, &decoded).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded.source(), rec.source());
  EXPECT_EQ(decoded.kind(), rec.kind());
  EXPECT_EQ(decoded.attributes(), rec.attributes());

  auto encode = [](int32_t source, uint8_t kind,
                   const std::vector<std::string>& names) {
    BinaryWriter w;
    w.WriteI32(source);
    w.WriteU8(kind);
    w.WriteU64(names.size());
    for (const std::string& name : names) {
      w.WriteString(name);
      w.WriteString("v");
    }
    return w.buffer();
  };
  for (const std::string& bad :
       {encode(1, 3, {"name"}), encode(40000, 0, {"name"}),
        encode(1, 0, {"name", "isin", "name"})}) {
    BinaryReader bad_reader(bad);
    Record out;
    const Status status = ReadRecord(&bad_reader, &out);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  }
}

TEST(RecordPairCodecTest, DecodesOnlyCanonicalAscendingPairs) {
  auto encode = [](const std::vector<std::pair<int32_t, int32_t>>& pairs) {
    BinaryWriter w;
    w.WriteU64(pairs.size());
    for (const auto& [a, b] : pairs) {
      w.WriteI32(a);
      w.WriteI32(b);
    }
    return w.buffer();
  };
  auto decode = [](const std::string& bytes, std::vector<RecordPair>* out) {
    BinaryReader reader(bytes);
    out->clear();
    return ReadSortedPairList(
        &reader, 10, 8, [](size_t) {},
        [out](const RecordPair& pair) {
          out->push_back(pair);
          return Status::OK();
        });
  };
  std::vector<RecordPair> pairs;
  ASSERT_TRUE(decode(encode({{0, 1}, {0, 9}, {3, 4}}), &pairs).ok());
  EXPECT_EQ(pairs, (std::vector<RecordPair>{{0, 1}, {0, 9}, {3, 4}}));

  const std::vector<std::vector<std::pair<int32_t, int32_t>>> bad = {
      {{4, 3}},          // swapped
      {{5, 5}},          // self pair
      {{-1, 2}},         // out of range
      {{2, 10}},         // out of range
      {{3, 4}, {0, 1}},  // descending
      {{0, 1}, {0, 1}},  // duplicate
  };
  for (const auto& entries : bad) {
    const Status status = decode(encode(entries), &pairs);
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << entries.front().first << "," << entries.front().second;
  }
}

TEST(SplitTest, FractionsRoughlyRespected) {
  GroundTruth truth;
  for (RecordId r = 0; r < 1000; ++r) {
    truth.Assign(r, r / 4);  // 250 groups of 4
  }
  Rng rng(1);
  GroupSplit split = SplitByGroups(truth, &rng);
  size_t train = split.RecordsIn(SplitPart::kTrain).size();
  size_t val = split.RecordsIn(SplitPart::kValidation).size();
  size_t test = split.RecordsIn(SplitPart::kTest).size();
  EXPECT_EQ(train + val + test, 1000u);
  EXPECT_NEAR(train, 600.0, 40.0);
  EXPECT_NEAR(val, 200.0, 40.0);
  EXPECT_NEAR(test, 200.0, 40.0);
}

TEST(SplitTest, GroupsNeverStraddleSplits) {
  GroundTruth truth;
  Rng seed_rng(3);
  // Variable group sizes.
  RecordId next = 0;
  for (EntityId e = 0; e < 200; ++e) {
    size_t size = 1 + seed_rng.Uniform(6);
    for (size_t k = 0; k < size; ++k) truth.Assign(next++, e);
  }
  Rng rng(2);
  GroupSplit split = SplitByGroups(truth, &rng);
  auto groups = truth.Groups();
  for (const auto& [e, members] : groups) {
    std::set<SplitPart> parts;
    for (RecordId r : members) parts.insert(split.part(r));
    EXPECT_EQ(parts.size(), 1u) << "entity " << e << " straddles splits";
  }
}

TEST(CsvTest, ParseQuotedFields) {
  auto rows = ParseCsv("a,\"b,c\",\"d\"\"e\"\nf,,\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b,c", "d\"e"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"f", "", ""}));
}

TEST(CsvTest, ParseEmbeddedNewline) {
  auto rows = ParseCsv("x,\"line1\nline2\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], "line1\nline2");
}

TEST(CsvTest, ParseRejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a,\"unterminated\n").ok());
}

TEST(CsvTest, WriteQuotesOnlyWhenNeeded) {
  std::string csv = WriteCsv({{"plain", "with,comma", "with\"quote"}});
  EXPECT_EQ(csv, "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(CsvTest, RecordsRoundTrip) {
  RecordTable table;
  GroundTruth truth;
  Record r1(0, RecordKind::kCompany);
  r1.Set("name", "Acme, Inc.");
  r1.Set("city", "Zurich");
  truth.Assign(table.Add(std::move(r1)), 7);
  Record r2(3, RecordKind::kCompany);
  r2.Set("name", "Beta \"B\"");
  r2.Set("region", "Bavaria");
  truth.Assign(table.Add(std::move(r2)), 8);

  std::string path = ::testing::TempDir() + "/records_roundtrip.csv";
  ASSERT_TRUE(WriteRecordsCsv(path, table, &truth).ok());

  RecordTable loaded;
  GroundTruth loaded_truth;
  ASSERT_TRUE(
      ReadRecordsCsv(path, RecordKind::kCompany, &loaded, &loaded_truth).ok());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at(0).Get("name"), "Acme, Inc.");
  EXPECT_EQ(loaded.at(0).source(), 0);
  EXPECT_EQ(loaded.at(1).Get("region"), "Bavaria");
  EXPECT_EQ(loaded.at(1).source(), 3);
  EXPECT_EQ(loaded_truth.entity_of(0), 7);
  EXPECT_EQ(loaded_truth.entity_of(1), 8);
}

TEST(CsvTest, ReadMissingFileFails) {
  RecordTable table;
  EXPECT_FALSE(ReadRecordsCsv("/nonexistent/nope.csv", RecordKind::kCompany,
                              &table, nullptr)
                   .ok());
}

// ---------------------------------------------------------------------------
// CSV edge cases and round-trip properties (streaming ingestion feeds this
// parser, so quoting/CRLF/empty-field handling must be watertight).
// ---------------------------------------------------------------------------

TEST(CsvEdgeCaseTest, CrlfLineEndings) {
  auto rows = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvEdgeCaseTest, CrlfInsideQuotedFieldIsPreserved) {
  auto rows = ParseCsv("x,\"line1\r\nline2\"\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"x", "line1\r\nline2"}));
}

TEST(CsvEdgeCaseTest, BareCarriageReturnIsARowBreak) {
  // Regression: a bare \r (classic-Mac line ending) used to be silently
  // dropped, gluing "a\rb\rc" into one row {"ab c..."}-style. It now
  // terminates the row, like every \r-accepting CSV reader.
  auto rows = ParseCsv("a,b\rc,d\re");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"e"}));
}

TEST(CsvEdgeCaseTest, MixedLineTerminatorsAgree) {
  auto rows = ParseCsv("a\r\nb\rc\nd");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"b"}));
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"c"}));
  EXPECT_EQ((*rows)[3], (std::vector<std::string>{"d"}));
}

TEST(CsvEdgeCaseTest, FinalRowWithCrAndNoNewline) {
  auto rows = ParseCsv("a,b\r");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvEdgeCaseTest, BlankCrlfLinesAreSkipped) {
  auto rows = ParseCsv("a\r\n\r\n\rb\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"b"}));
}

TEST(CsvEdgeCaseTest, FieldsOfBareLineTerminatorsRoundTrip) {
  // The writer quotes \r and \n content, so fields that *are* line
  // terminators survive; on parse the quoted bytes are preserved verbatim.
  const std::vector<std::vector<std::string>> rows = {
      {"\r", "\n"}, {"\r\n"}, {"a\rb", "c\nd"}};
  auto parsed = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvEdgeCaseTest, QuotedFieldWithEmbeddedSeparatorsAndQuotes) {
  auto rows = ParseCsv("\"a,b\n\"\"c\"\"\",plain\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a,b\n\"c\"", "plain"}));
}

TEST(CsvEdgeCaseTest, TrailingEmptyFields) {
  auto rows = ParseCsv("a,,\n,,\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "", ""}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvEdgeCaseTest, MissingTrailingNewlineStillEmitsLastRow) {
  auto rows = ParseCsv("a,b\nc,d");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvEdgeCaseTest, BlankLinesAreSkipped) {
  auto rows = ParseCsv("a\n\n\nb\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"b"}));
}

TEST(CsvEdgeCaseTest, SingleEmptyFieldRowRoundTrips) {
  // A lone empty field must not serialize to a blank line (blank lines are
  // skipped on parse); WriteCsv quotes it.
  const std::vector<std::vector<std::string>> rows = {{""}, {"x"}, {""}};
  const std::string csv = WriteCsv(rows);
  EXPECT_EQ(csv, "\"\"\nx\n\"\"\n");
  auto parsed = ParseCsv(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvEdgeCaseTest, ZeroFieldRowIsNotSilentlyDropped) {
  // CSV cannot distinguish a zero-field row from a single empty field;
  // WriteCsv normalizes the former to the latter instead of emitting a
  // blank line that ParseCsv would skip (which silently lost the row).
  const std::string csv = WriteCsv({{}, {"x"}});
  EXPECT_EQ(csv, "\"\"\nx\n");
  auto parsed = ParseCsv(csv);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (std::vector<std::string>{""}));
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{"x"}));
}

TEST(CsvPropertyTest, RandomRowsRoundTripExactly) {
  // Fields drawn from a charset dense in CSV metacharacters: separators,
  // quotes, both newline conventions, spaces.
  const std::string charset = "ab,\"\n\r ;|";
  Rng rng(20260726);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::vector<std::string>> rows;
    const size_t num_rows = 1 + rng.Uniform(6);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> row(1 + rng.Uniform(5));
      for (auto& field : row) {
        const size_t len = rng.Uniform(8);
        for (size_t k = 0; k < len; ++k) {
          field.push_back(charset[rng.Uniform(charset.size())]);
        }
      }
      rows.push_back(std::move(row));
    }
    auto parsed = ParseCsv(WriteCsv(rows));
    ASSERT_TRUE(parsed.ok()) << "round " << round;
    EXPECT_EQ(*parsed, rows) << "round " << round;
  }
}

}  // namespace
}  // namespace gralmatch
