// Tests for the blocking module: candidate-set provenance, ID Overlap
// (securities and companies modes), Token Overlap and Issuer Match.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "blocking/blocker.h"
#include "blocking/id_overlap.h"
#include "blocking/incremental_index.h"
#include "blocking/issuer_match.h"
#include "blocking/token_overlap.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"

namespace gralmatch {
namespace {

TEST(CandidateSetTest, DeduplicatesAndUnionsProvenance) {
  CandidateSet set;
  set.Add(RecordPair(1, 2), kBlockerIdOverlap);
  set.Add(RecordPair(2, 1), kBlockerTokenOverlap);  // same pair
  set.Add(RecordPair(3, 4), kBlockerTokenOverlap);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.ProvenanceOf(RecordPair(1, 2)),
            kBlockerIdOverlap | kBlockerTokenOverlap);
  EXPECT_EQ(set.ProvenanceOf(RecordPair(3, 4)),
            static_cast<uint32_t>(kBlockerTokenOverlap));
  EXPECT_EQ(set.ProvenanceOf(RecordPair(9, 10)), 0u);

  auto v = set.ToVector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].pair, RecordPair(1, 2));  // deterministic order
}

TEST(CandidateSetTest, MergeCombinesSets) {
  CandidateSet a, b;
  a.Add(RecordPair(0, 1), kBlockerIdOverlap);
  b.Add(RecordPair(0, 1), kBlockerIssuerMatch);
  b.Add(RecordPair(2, 3), kBlockerIdOverlap);
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.ProvenanceOf(RecordPair(0, 1)),
            kBlockerIdOverlap | kBlockerIssuerMatch);
}

Dataset MakeSecuritiesDataset() {
  Dataset ds;
  ds.name = "securities";
  auto add = [&](SourceId src, const char* isin, const char* cusip,
                 EntityId entity) {
    Record rec(src, RecordKind::kSecurity);
    if (isin) rec.Set("isin", isin);
    if (cusip) rec.Set("cusip", cusip);
    RecordId id = ds.records.Add(std::move(rec));
    ds.truth.Assign(id, entity);
    return id;
  };
  add(0, "US1", "C1", 100);      // 0
  add(1, "US1", nullptr, 100);   // 1: shares ISIN with 0
  add(2, nullptr, "C1", 100);    // 2: shares CUSIP with 0
  add(0, "US2", nullptr, 200);   // 3
  add(1, "US2", nullptr, 200);   // 4: shares ISIN with 3
  add(1, "US9", nullptr, 300);   // 5: no overlaps
  return ds;
}

TEST(IdOverlapTest, SecuritiesModeFindsSharedIdentifiers) {
  Dataset ds = MakeSecuritiesDataset();
  CandidateSet out;
  IdOverlapBlocker blocker;
  blocker.AddCandidates(ds, &out);
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 1)),
            static_cast<uint32_t>(kBlockerIdOverlap));
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 2)),
            static_cast<uint32_t>(kBlockerIdOverlap));
  EXPECT_EQ(out.ProvenanceOf(RecordPair(3, 4)),
            static_cast<uint32_t>(kBlockerIdOverlap));
  EXPECT_EQ(out.ProvenanceOf(RecordPair(1, 2)), 0u) << "no shared value";
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 5)), 0u);
}

TEST(IdOverlapTest, SameSourcePairsExcluded) {
  Dataset ds;
  Record a(0, RecordKind::kSecurity);
  a.Set("isin", "X");
  Record b(0, RecordKind::kSecurity);  // same source
  b.Set("isin", "X");
  ds.truth.Assign(ds.records.Add(std::move(a)), 1);
  ds.truth.Assign(ds.records.Add(std::move(b)), 1);
  CandidateSet out;
  IdOverlapBlocker blocker;
  blocker.AddCandidates(ds, &out);
  EXPECT_EQ(out.size(), 0u);
}

TEST(IdOverlapTest, MultiValuedIdentifiersMatch) {
  Dataset ds;
  Record a(0, RecordKind::kSecurity);
  a.Set("isin", "A|B");
  Record b(1, RecordKind::kSecurity);
  b.Set("isin", "B|C");
  ds.truth.Assign(ds.records.Add(std::move(a)), 1);
  ds.truth.Assign(ds.records.Add(std::move(b)), 1);
  CandidateSet out;
  IdOverlapBlocker blocker;
  blocker.AddCandidates(ds, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(IdOverlapTest, CompaniesModeJoinsThroughSecurities) {
  // Companies 0 (src 0) and 1 (src 1) issue securities sharing an ISIN;
  // company 2 (src 2) does not.
  Dataset companies;
  companies.truth.Assign(
      companies.records.Add(Record(0, RecordKind::kCompany)), 1);
  companies.truth.Assign(
      companies.records.Add(Record(1, RecordKind::kCompany)), 1);
  companies.truth.Assign(
      companies.records.Add(Record(2, RecordKind::kCompany)), 2);

  RecordTable securities;
  auto add_sec = [&](SourceId src, const char* isin, RecordId issuer) {
    Record rec(src, RecordKind::kSecurity);
    rec.Set("isin", isin);
    rec.Set("issuer_ref", std::to_string(issuer));
    securities.Add(std::move(rec));
  };
  add_sec(0, "SHARED", 0);
  add_sec(1, "SHARED", 1);
  add_sec(2, "OTHER", 2);

  CandidateSet out;
  IdOverlapBlocker blocker(&securities);
  blocker.AddCandidates(companies, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_NE(out.ProvenanceOf(RecordPair(0, 1)), 0u);
}

Dataset MakeTextDataset() {
  Dataset ds;
  auto add = [&](SourceId src, const char* name, EntityId entity) {
    Record rec(src, RecordKind::kCompany);
    rec.Set("name", name);
    RecordId id = ds.records.Add(std::move(rec));
    ds.truth.Assign(id, entity);
    return id;
  };
  add(0, "Crowd Strike Platforms", 1);   // 0
  add(1, "Crowd Strike Platforms Inc", 1);  // 1
  add(2, "Crowd Street Properties", 2);  // 2
  add(0, "Quantum Energy Resources", 3); // 3
  add(1, "Quantum Energy Resources Ltd", 3);  // 4
  add(2, "Totally Unrelated Newco", 4);  // 5
  return ds;
}

TEST(TokenOverlapTest, FindsTextAlignedPairs) {
  Dataset ds = MakeTextDataset();
  TokenOverlapBlocker::Options opts;
  opts.top_n = 3;
  opts.min_overlap = 2;
  opts.max_token_df = 1.0;  // tiny dataset: keep all tokens
  TokenOverlapBlocker blocker(opts);
  CandidateSet out;
  blocker.AddCandidates(ds, &out);
  EXPECT_NE(out.ProvenanceOf(RecordPair(0, 1)), 0u);
  EXPECT_NE(out.ProvenanceOf(RecordPair(3, 4)), 0u);
  // "Crowd" overlap alone (1 token) must not qualify at min_overlap=2...
  // 0 and 2 share "crowd" only -> excluded.
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 2)), 0u);
  // The isolated record pairs with nothing.
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 5)), 0u);
}

TEST(TokenOverlapTest, TopNLimitsCandidatesPerRecord) {
  // One record overlapping with many others across sources.
  Dataset ds;
  auto add = [&](SourceId src, const std::string& name) {
    Record rec(src, RecordKind::kCompany);
    rec.Set("name", name);
    RecordId id = ds.records.Add(std::move(rec));
    ds.truth.Assign(id, id);
    return id;
  };
  add(0, "alpha beta gamma");
  for (int i = 0; i < 10; ++i) {
    add(1, "alpha beta gamma delta" + std::to_string(i));
  }
  TokenOverlapBlocker::Options opts;
  opts.top_n = 4;
  opts.min_overlap = 2;
  opts.max_token_df = 1.0;
  TokenOverlapBlocker blocker(opts);
  CandidateSet out;
  blocker.AddCandidates(ds, &out);
  // Record 0 keeps at most top_n partners; partners also keep record 0, so
  // the total stays bounded by the union (each of the 10 keeps record 0 as
  // its only cross-source partner).
  size_t with_zero = 0;
  for (const auto& cand : out.ToVector()) {
    if (cand.pair.a == 0) ++with_zero;
  }
  EXPECT_EQ(with_zero, 10u);  // symmetric direction keeps them
}

TEST(TokenOverlapTest, SameSourceNeverPaired) {
  Dataset ds;
  auto add = [&](SourceId src, const char* name, EntityId e) {
    Record rec(src, RecordKind::kCompany);
    rec.Set("name", name);
    ds.truth.Assign(ds.records.Add(std::move(rec)), e);
  };
  add(0, "same tokens here", 1);
  add(0, "same tokens here", 1);
  TokenOverlapBlocker::Options opts;
  opts.max_token_df = 1.0;
  TokenOverlapBlocker blocker(opts);
  CandidateSet out;
  blocker.AddCandidates(ds, &out);
  EXPECT_EQ(out.size(), 0u);
}

TEST(IssuerMatchTest, PairsSecuritiesOfMatchedIssuers) {
  // Companies 0, 1, 2; 0 and 1 are in the same (previously matched) group.
  std::vector<int64_t> company_group = {5, 5, 6};

  Dataset securities;
  auto add_sec = [&](SourceId src, RecordId issuer, EntityId entity) {
    Record rec(src, RecordKind::kSecurity);
    rec.Set("name", "Common Stock");
    rec.Set("issuer_ref", std::to_string(issuer));
    RecordId id = securities.records.Add(std::move(rec));
    securities.truth.Assign(id, entity);
    return id;
  };
  add_sec(0, 0, 100);  // 0 issued by company 0
  add_sec(1, 1, 100);  // 1 issued by company 1 (same group)
  add_sec(2, 2, 200);  // 2 issued by company 2 (other group)

  IssuerMatchBlocker blocker(&company_group);
  CandidateSet out;
  blocker.AddCandidates(securities, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 1)),
            static_cast<uint32_t>(kBlockerIssuerMatch));
}

TEST(IssuerMatchTest, UngroupedAndMissingIssuersSkipped) {
  std::vector<int64_t> company_group = {-1, -1};
  Dataset securities;
  Record a(0, RecordKind::kSecurity);
  a.Set("issuer_ref", "0");
  Record b(1, RecordKind::kSecurity);
  b.Set("issuer_ref", "1");
  Record c(1, RecordKind::kSecurity);  // no issuer_ref at all
  securities.truth.Assign(securities.records.Add(std::move(a)), 1);
  securities.truth.Assign(securities.records.Add(std::move(b)), 1);
  securities.truth.Assign(securities.records.Add(std::move(c)), 1);

  IssuerMatchBlocker blocker(&company_group);
  CandidateSet out;
  blocker.AddCandidates(securities, &out);
  EXPECT_EQ(out.size(), 0u);
}

// ---------------------------------------------------------------------------
// Incremental indexes: after any split schedule, the maintained pair set
// must equal the batch blocker run on the union.
// ---------------------------------------------------------------------------

std::vector<RecordPair> SortedPairs(std::vector<RecordPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<RecordPair> BatchTokenPairs(const RecordTable& records,
                                        TokenOverlapBlocker::Options options) {
  Dataset ds;
  ds.records = records;
  CandidateSet out;
  TokenOverlapBlocker(options).AddCandidates(ds, &out);
  std::vector<RecordPair> pairs;
  for (const auto& cand : out.ToVector()) pairs.push_back(cand.pair);
  return pairs;
}

std::vector<RecordPair> BatchIdPairs(const RecordTable& records) {
  Dataset ds;
  ds.records = records;
  CandidateSet out;
  IdOverlapBlocker().AddCandidates(ds, &out);
  std::vector<RecordPair> pairs;
  for (const auto& cand : out.ToVector()) pairs.push_back(cand.pair);
  return pairs;
}

/// Prefix of a record table as its own table.
RecordTable Prefix(const RecordTable& records, size_t n) {
  RecordTable out;
  for (size_t i = 0; i < n; ++i) out.Add(records.at(static_cast<RecordId>(i)));
  return out;
}

TEST(IncrementalIdOverlapIndexTest, BucketOverflowRetractsItsPairs) {
  // 50 records sharing one identifier: within the cap, pairs exist. Growing
  // the bucket to 70 (> kMaxBucket = 64) must retract every pair, exactly
  // like a from-scratch run on all 70 records would produce none.
  RecordTable records;
  for (int i = 0; i < 70; ++i) {
    Record rec(static_cast<SourceId>(i % 3), RecordKind::kSecurity);
    rec.Set("isin", "SHARED000001");
    records.Add(std::move(rec));
  }

  IncrementalIdOverlapIndex index;
  CandidateDelta first = index.AddRecords(Prefix(records, 50));
  EXPECT_GT(first.added.size(), 0u);
  EXPECT_EQ(first.removed.size(), 0u);
  EXPECT_EQ(index.CurrentPairs(),
            BatchIdPairs(Prefix(records, 50)));

  CandidateDelta second = index.AddRecords(records);
  EXPECT_EQ(second.added.size(), 0u);
  EXPECT_EQ(second.removed.size(), first.added.size());
  EXPECT_TRUE(index.CurrentPairs().empty());
  EXPECT_TRUE(BatchIdPairs(records).empty());
}

TEST(IncrementalIdOverlapIndexTest, RandomSplitsMatchBatch) {
  Rng rng(11);
  RecordTable records;
  for (int i = 0; i < 120; ++i) {
    Record rec(static_cast<SourceId>(i % 4), RecordKind::kSecurity);
    rec.Set("isin", "ISIN" + std::to_string(rng.Uniform(25)));
    if (rng.Bernoulli(0.5)) {
      rec.Set("cusip", "CUSIP" + std::to_string(rng.Uniform(10)));
    }
    records.Add(std::move(rec));
  }
  for (int round = 0; round < 4; ++round) {
    IncrementalIdOverlapIndex index;
    size_t ingested = 0;
    while (ingested < records.size()) {
      ingested += 1 + rng.Uniform(records.size() - ingested < 30
                                      ? records.size() - ingested
                                      : 30);
      index.AddRecords(Prefix(records, ingested));
      EXPECT_EQ(index.CurrentPairs(),
                BatchIdPairs(Prefix(records, ingested)))
          << "round " << round << " after " << ingested << " records";
    }
  }
}

TEST(IncrementalTokenOverlapIndexTest, MaxDfCapReadmitsTokensAsNGrows) {
  // "zephyr" appears in 3 records. At n = 10 the df cap is
  // floor(0.05 * 10) + 1 = 1, so the token is ineligible and produces no
  // pairs; at n = 60 the cap is 4 and the token becomes eligible again —
  // the index must emit the pairs the from-scratch run now finds.
  TokenOverlapBlocker::Options options;
  options.min_overlap = 1;
  RecordTable records;
  for (int i = 0; i < 60; ++i) {
    Record rec(static_cast<SourceId>(i % 3), RecordKind::kCompany);
    std::string name = "filler" + std::to_string(i) + " unique" +
                       std::to_string(i * 7);
    if (i < 3) name = "zephyr dynamics " + std::to_string(i);
    rec.Set("name", name);
    records.Add(std::move(rec));
  }

  IncrementalTokenOverlapIndex index(options);
  index.AddRecords(Prefix(records, 10));
  EXPECT_EQ(index.CurrentPairs(),
            BatchTokenPairs(Prefix(records, 10), options));
  EXPECT_TRUE(index.CurrentPairs().empty());

  CandidateDelta delta = index.AddRecords(records);
  EXPECT_GT(delta.added.size(), 0u);
  EXPECT_EQ(index.CurrentPairs(),
            BatchTokenPairs(records, options));
  EXPECT_FALSE(index.CurrentPairs().empty());
}

TEST(IncrementalTokenOverlapIndexTest, TopNDisplacementRetractsPair) {
  // top_n = 1: A's only slot initially holds B; the later-arriving C
  // overlaps A more and displaces B, so pair (A,B) must be retracted
  // (B's own slot prefers D throughout).
  TokenOverlapBlocker::Options options;
  options.top_n = 1;
  options.min_overlap = 1;
  options.max_token_df = 1.0;  // keep every token eligible

  RecordTable records;
  auto add = [&](SourceId source, const std::string& name) {
    Record rec(source, RecordKind::kCompany);
    rec.Set("name", name);
    return records.Add(std::move(rec));
  };
  RecordId a = add(0, "papaya quartz");
  RecordId b = add(1, "papaya rhubarb saffron");
  add(2, "rhubarb saffron");              // D: B's best partner
  RecordId c = add(2, "papaya quartz");   // arrives last, displaces B from A

  IncrementalTokenOverlapIndex index(options);
  index.AddRecords(Prefix(records, 3));
  std::vector<RecordPair> before = index.CurrentPairs();
  EXPECT_EQ(before, BatchTokenPairs(Prefix(records, 3), options));
  EXPECT_TRUE(std::binary_search(before.begin(), before.end(),
                                 RecordPair(a, b)));

  CandidateDelta delta = index.AddRecords(records);
  EXPECT_EQ(index.CurrentPairs(),
            BatchTokenPairs(records, options));
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.removed[0], RecordPair(a, b));
  EXPECT_TRUE(std::find(delta.added.begin(), delta.added.end(),
                        RecordPair(a, c)) != delta.added.end());
}

TEST(IncrementalTokenOverlapIndexTest, RanksOnlyRecordsWhoseTopNCanChange) {
  // With max_token_df = 1 the cap never binds, so a token flips only by
  // crossing df 2. Mutations that flip nothing must rank exactly the new
  // records, the old records a new one overlaps by >= min_overlap, and the
  // records keeping a removed one.
  TokenOverlapBlocker::Options options;
  options.min_overlap = 2;
  options.max_token_df = 1.0;
  RecordTable records;
  auto add = [&](SourceId source, const std::string& name) {
    Record rec(source, RecordKind::kCompany);
    rec.Set("name", name);
    return records.Add(std::move(rec));
  };
  const RecordId a = add(0, "papaya quartz rhubarb");
  const RecordId b = add(1, "papaya quartz rhubarb");
  add(2, "saffron tamarind");
  add(0, "saffron tamarind");
  const RecordId loner = add(1, "umbrella");
  IncrementalTokenOverlapIndex index(options);
  index.AddRecords(records);
  EXPECT_EQ(index.records_ranked(), records.size());

  // Nobody overlaps the loner: removing it ranks nothing.
  CandidateDelta delta = index.RemoveRecords(records, {loner});
  EXPECT_TRUE(delta.added.empty() && delta.removed.empty());
  EXPECT_EQ(index.records_ranked(), records.size());

  // A new record sharing no eligible token ranks only itself.
  add(2, "vanilla");
  index.AddRecords(records);
  EXPECT_EQ(index.records_ranked(), records.size());

  // A copy of `a` (its tokens stay eligible at df 3) ranks itself plus the
  // two old records it overlaps, which both keep it.
  const RecordId copy = add(2, "papaya quartz rhubarb");
  const size_t before_copy = index.records_ranked();
  delta = index.AddRecords(records);
  EXPECT_EQ(index.records_ranked() - before_copy, 3u);
  EXPECT_EQ(delta.added, (std::vector<RecordPair>{RecordPair(a, copy),
                                                  RecordPair(b, copy)}));

  // Removing it again ranks exactly its two keepers.
  const size_t before_remove = index.records_ranked();
  delta = index.RemoveRecords(records, {copy});
  EXPECT_EQ(index.records_ranked() - before_remove, 2u);
  EXPECT_EQ(delta.removed, (std::vector<RecordPair>{RecordPair(a, copy),
                                                    RecordPair(b, copy)}));
}

TEST(IncrementalTokenOverlapIndexTest, LoadStateRejectsUnsortedPostings) {
  // Removal finds a holder by binary search, so a state whose postings are
  // out of order must not load.
  BinaryWriter writer;
  writer.WriteU64(5);      // top_n
  writer.WriteU64(2);      // min_overlap
  writer.WriteDouble(1.0);  // max_token_df
  writer.WriteU64(2);      // records
  writer.WriteU32(3);      // max_df
  writer.WriteU64(1);      // tokens
  writer.WriteString("papaya");
  writer.WriteU32(2);  // df
  writer.WriteU64(2);  // postings
  writer.WriteI32(1);
  writer.WriteI32(0);
  BinaryReader reader(writer.buffer());
  IncrementalTokenOverlapIndex index;
  const Status status = index.LoadState(&reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ascending"), std::string::npos);
}

TEST(IncrementalTokenOverlapIndexTest, RandomSplitsMatchBatch) {
  Rng rng(13);
  TokenOverlapBlocker::Options options;
  options.top_n = 3;
  options.min_overlap = 2;
  options.max_token_df = 0.2;
  const std::vector<std::string> vocab = {
      "alpha", "bravo", "carbon", "delta",  "ember",  "falcon",
      "grove", "helix", "indigo", "jasper", "krypton"};
  RecordTable records;
  for (int i = 0; i < 100; ++i) {
    Record rec(static_cast<SourceId>(i % 4), RecordKind::kCompany);
    std::string name;
    const size_t words = 2 + rng.Uniform(4);
    for (size_t w = 0; w < words; ++w) {
      if (w) name += " ";
      name += vocab[rng.Uniform(vocab.size())];
    }
    rec.Set("name", name);
    records.Add(std::move(rec));
  }
  for (int round = 0; round < 3; ++round) {
    IncrementalTokenOverlapIndex index(options);
    size_t ingested = 0;
    while (ingested < records.size()) {
      ingested += 1 + rng.Uniform(records.size() - ingested < 20
                                      ? records.size() - ingested
                                      : 20);
      index.AddRecords(Prefix(records, ingested));
      EXPECT_EQ(index.CurrentPairs(),
                BatchTokenPairs(Prefix(records, ingested), options))
          << "round " << round << " after " << ingested << " records";
    }
  }
}

// ---------------------------------------------------------------------------
// Removal differential: seeded Add/Remove/Update schedules driven straight
// through the indexes. After every step the maintained pair set must equal a
// fresh index built over the survivors (ids mapped back), and a
// SaveState -> LoadState round trip mid-schedule must end in the same state
// bytes as the uninterrupted run.
// ---------------------------------------------------------------------------

/// One schedule step: retract `removals`, then append and absorb `adds`. An
/// update is both in one step (a removal plus its replacement), the order
/// in which IncrementalPipeline::Update drives the indexes.
struct IndexStep {
  std::vector<RecordId> removals;
  std::vector<Record> adds;
};

struct IndexSchedule {
  std::vector<Record> initial;
  std::vector<IndexStep> steps;
};

/// Ingest 60% of `pool`, then `num_steps` random steps of 3..10 records
/// each: adds from the rest of the pool, removals of random live ids, and
/// updates of random live ids (replacement payload from the pool, or the
/// old payload with one more name token once the pool runs dry).
IndexSchedule MakeIndexSchedule(const std::vector<Record>& pool,
                                uint64_t seed, size_t num_steps) {
  Rng rng(seed);
  IndexSchedule schedule;
  const size_t n0 = (pool.size() * 3) / 5;
  schedule.initial.assign(pool.begin(), pool.begin() + static_cast<long>(n0));
  size_t reserve_next = n0;
  std::vector<Record> payload(schedule.initial);
  std::vector<RecordId> live;
  for (size_t i = 0; i < n0; ++i) live.push_back(static_cast<RecordId>(i));
  auto kill = [&](IndexStep* step) {
    const size_t at = rng.Uniform(live.size());
    step->removals.push_back(live[at]);
    live[at] = live.back();
    live.pop_back();
    return step->removals.back();
  };
  for (size_t k = 0; k < num_steps; ++k) {
    IndexStep step;
    const size_t count = 3 + rng.Uniform(8);
    size_t kind = rng.Uniform(3);
    if (kind == 0 && reserve_next >= pool.size()) kind = 2;
    if (live.size() < 2 * count) kind = 0;
    std::vector<Record> born;
    for (size_t i = 0; i < count; ++i) {
      if (kind == 0) {
        if (reserve_next >= pool.size()) break;
        born.push_back(pool[reserve_next++]);
      } else if (kind == 1) {
        kill(&step);
      } else {
        const RecordId victim = kill(&step);
        if (rng.Uniform(2) == 0 && reserve_next < pool.size()) {
          born.push_back(pool[reserve_next++]);
        } else {
          Record revised = payload[static_cast<size_t>(victim)];
          revised.Set("name", std::string(revised.Get("name")) + " revised");
          born.push_back(std::move(revised));
        }
      }
    }
    for (Record& rec : born) {
      live.push_back(static_cast<RecordId>(payload.size()));
      payload.push_back(rec);
      step.adds.push_back(std::move(rec));
    }
    schedule.steps.push_back(std::move(step));
  }
  return schedule;
}

/// Pairs of a fresh index over the live records of `table`, mapped back to
/// `table` ids (the survivor->original map is monotone), sorted.
template <typename Index, typename MakeIndex>
std::vector<RecordPair> SurvivorPairs(const RecordTable& table,
                                      const std::vector<char>& alive,
                                      const MakeIndex& make_index) {
  RecordTable survivors;
  std::vector<RecordId> original;
  for (size_t i = 0; i < table.size(); ++i) {
    if (!alive[i]) continue;
    survivors.Add(table.at(static_cast<RecordId>(i)));
    original.push_back(static_cast<RecordId>(i));
  }
  Index fresh = make_index();
  fresh.AddRecords(survivors);
  std::vector<RecordPair> pairs;
  for (const RecordPair& p : fresh.CurrentPairs()) {
    pairs.emplace_back(original[static_cast<size_t>(p.a)],
                       original[static_cast<size_t>(p.b)]);
  }
  return SortedPairs(std::move(pairs));
}

template <typename Index>
std::string StateBytes(const Index& index) {
  BinaryWriter writer;
  index.SaveState(&writer);
  return writer.buffer();
}

/// LoadState leaves the token index's live count at the table size; the
/// owner restores it (the ID index keeps no live count).
void RestoreLiveCount(IncrementalTokenOverlapIndex* index, size_t live) {
  index->SetNumLive(live);
}
void RestoreLiveCount(IncrementalIdOverlapIndex*, size_t) {}

/// Replays `schedule` on one index, checking it against the survivor
/// reference after every step; halfway through, a second index is restored
/// from the first one's state and replays the rest alongside it.
template <typename Index, typename MakeIndex>
void RunIndexSchedule(const IndexSchedule& schedule,
                      const MakeIndex& make_index, const std::string& context) {
  RecordTable table;
  for (const Record& rec : schedule.initial) table.Add(rec);
  std::vector<char> alive(table.size(), 1);
  size_t live = table.size();
  Index index = make_index();
  index.AddRecords(table);
  Index restored = make_index();
  bool have_restored = false;
  for (size_t k = 0; k < schedule.steps.size(); ++k) {
    const IndexStep& step = schedule.steps[k];
    if (!step.removals.empty()) {
      for (RecordId r : step.removals) alive[static_cast<size_t>(r)] = 0;
      live -= step.removals.size();
      index.RemoveRecords(table, step.removals);
      if (have_restored) restored.RemoveRecords(table, step.removals);
    }
    for (const Record& rec : step.adds) table.Add(rec);
    alive.resize(table.size(), 1);
    live += step.adds.size();
    index.AddRecords(table);
    if (have_restored) restored.AddRecords(table);

    EXPECT_EQ(index.CurrentPairs(),
              SurvivorPairs<Index>(table, alive, make_index))
        << context << " after step " << k;
    if (k == schedule.steps.size() / 2) {
      const std::string bytes = StateBytes(index);
      BinaryReader reader(bytes);
      EXPECT_TRUE(restored.LoadState(&reader).ok()) << context;
      RestoreLiveCount(&restored, live);
      have_restored = true;
    }
  }
  EXPECT_TRUE(have_restored) << context;
  EXPECT_EQ(StateBytes(restored), StateBytes(index)) << context;
}

/// Steps of `schedule` whose removal or addition half moves the live count
/// across a multiple of `period` records.
size_t CapMoves(const IndexSchedule& schedule, size_t period) {
  size_t live = schedule.initial.size();
  size_t moves = 0;
  for (const IndexStep& step : schedule.steps) {
    const size_t mid = live - step.removals.size();
    const size_t end = mid + step.adds.size();
    if (mid / period != live / period || end / period != mid / period) {
      ++moves;
    }
    live = end;
  }
  return moves;
}

std::vector<Record> SecuritiesPool(uint64_t seed, size_t num_groups) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_groups = num_groups;
  return FinancialGenerator(config).Generate().securities.records.records();
}

std::vector<Record> WdcProductPool(uint64_t seed, size_t num_entities) {
  WdcConfig config;
  config.seed = seed;
  config.num_entities = num_entities;
  return WdcProductsGenerator(config).Generate().records.records();
}

void TokenRemovalDifferential(const std::vector<Record>& pool,
                              uint64_t seed_base,
                              const std::string& fixture) {
  // top_n = 2 makes displacement common; max_token_df = 1/8 puts the cap
  // near the dfs of entity-level tokens, and moves it by one every eight
  // live records, so the 3..10-record steps move it most of the time.
  for (size_t min_overlap : {1u, 2u}) {
    TokenOverlapBlocker::Options options;
    options.top_n = 2;
    options.min_overlap = min_overlap;
    options.max_token_df = 0.125;
    auto make_index = [&] { return IncrementalTokenOverlapIndex(options); };
    for (uint64_t seed = seed_base; seed < seed_base + 4; ++seed) {
      const IndexSchedule schedule = MakeIndexSchedule(pool, seed, 24);
      RunIndexSchedule<IncrementalTokenOverlapIndex>(
          schedule, make_index,
          fixture + " min_overlap=" + std::to_string(min_overlap) +
              " seed=" + std::to_string(seed));
      EXPECT_GE(2 * CapMoves(schedule, 8), schedule.steps.size()) << fixture;
    }
  }
}

TEST(IncrementalTokenOverlapIndexTest, RemovalDifferentialSecurities) {
  TokenRemovalDifferential(SecuritiesPool(505, 40), 100, "securities");
}

TEST(IncrementalTokenOverlapIndexTest, RemovalDifferentialWdcProducts) {
  TokenRemovalDifferential(WdcProductPool(77, 60), 200, "wdc");
}

TEST(IncrementalIdOverlapIndexTest, RemovalDifferentialSecurities) {
  // A small bucket cap makes overflow and re-admission common.
  const std::vector<Record> pool = SecuritiesPool(505, 40);
  auto make_index = [] { return IncrementalIdOverlapIndex(/*max_bucket=*/4); };
  for (uint64_t seed = 300; seed < 304; ++seed) {
    RunIndexSchedule<IncrementalIdOverlapIndex>(
        MakeIndexSchedule(pool, seed, 24), make_index,
        "securities seed=" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace gralmatch
