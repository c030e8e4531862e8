// The serving subsystem's own cases: concurrent savers to one checkpoint
// path, the checkpoint images an earlier build wrote, and MatchService's
// epoch snapshots — a reader/ingester stress test (run under TSan in CI)
// checks every view is internally consistent and epochs are monotonic
// while ingestion races on. Checkpoint round trips and corruption run with
// every other layout in pipeline_equivalence_test.cc.

#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/checkpoint.h"
#include "serve/framing.h"
#include "serve/match_service.h"
#include "stream/incremental_pipeline.h"
#include "test_support.h"

namespace gralmatch {
namespace {

using testing_support::ExpectEquivalent;
using testing_support::FinancialRecords;
using testing_support::JaccardMatcher;
using testing_support::SurvivorReference;
using testing_support::TightConfig;

/// Ingest records [begin, end) in `batches` batches.
void IngestAll(IncrementalPipeline* pipeline, const std::vector<Record>& records,
               size_t begin, size_t end, size_t batches,
               const PairwiseMatcher& matcher) {
  const size_t span = end - begin;
  const size_t batch_size = (span + batches - 1) / batches;
  for (size_t offset = begin; offset < end; offset += batch_size) {
    const size_t stop = std::min(offset + batch_size, end);
    std::vector<Record> batch(records.begin() + static_cast<long>(offset),
                              records.begin() + static_cast<long>(stop));
    ASSERT_TRUE(pipeline->Ingest(batch, matcher).ok());
  }
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Durable writes
// ---------------------------------------------------------------------------

TEST(CheckpointTest, ConcurrentSaversToOnePathNeverTearTheFile) {
  // Regression test: two threads saving to the same path used to race on
  // one shared `<path>.tmp` staging name — writer A's rename could publish
  // bytes writer B was still appending. With per-call unique temp names
  // every published image is one writer's complete bytes. Run under TSan
  // in CI.
  const std::string path = TempPath("serve_concurrent_save.ckpt");
  std::remove(path.c_str());
  const std::string image_a(1 << 16, 'A');
  const std::string image_b(1 << 16, 'B');
  std::atomic<bool> done{false};

  auto saver = [&path](const std::string& image) {
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(WriteFileAtomically(path, image).ok());
    }
  };
  // A concurrent reader must only ever observe a complete image — the
  // whole point of publish-by-rename.
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto image = ReadWholeFile(path);
      if (!image.ok()) continue;  // not yet published for the first time
      ASSERT_TRUE(*image == image_a || *image == image_b)
          << "torn read of " << image->size() << " bytes";
    }
  });
  std::thread writer_a(saver, image_a);
  std::thread writer_b(saver, image_b);
  writer_a.join();
  writer_b.join();
  done.store(true, std::memory_order_release);
  reader.join();

  auto final_image = ReadWholeFile(path);
  ASSERT_TRUE(final_image.ok()) << final_image.status().ToString();
  EXPECT_TRUE(*final_image == image_a || *final_image == image_b);

  // Every staging file was renamed or unlinked — none linger.
  const size_t slash = path.find_last_of('/');
  const std::string dir = path.substr(0, slash);
  const std::string base = path.substr(slash + 1);
  DIR* handle = opendir(dir.c_str());
  ASSERT_NE(handle, nullptr);
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    EXPECT_FALSE(name.size() > base.size() && name.compare(0, base.size(), base) == 0)
        << "stray staging file: " << name;
  }
  closedir(handle);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Images written by an earlier build (tests/data/checkpoints/README.md)
// ---------------------------------------------------------------------------

std::string FixtureImage(const std::string& name) {
  return ReadWholeFile(std::string(GRALMATCH_CHECKPOINT_FIXTURES) + "/" + name)
      .ValueOrDie();
}

/// Parse checked-in `image`, stamped `version`, and check it against the
/// from-scratch reference on its survivors and the counters it was written
/// with. Null (after a failure) when it does not load.
std::unique_ptr<IncrementalPipeline> LoadPinned(const std::string& image,
                                                const std::string& name,
                                                char version, size_t num_dead,
                                                size_t matcher_calls) {
  EXPECT_EQ(image[8], version) << name;
  JaccardMatcher matcher;
  auto loaded = ParseCheckpoint(image, matcher);
  EXPECT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
  if (!loaded.ok()) return nullptr;
  const IncrementalPipeline& pipeline = **loaded;
  EXPECT_EQ(pipeline.num_dead(), num_dead) << name;
  EXPECT_EQ(pipeline.total_matcher_calls(), matcher_calls) << name;
  EXPECT_EQ(pipeline.total_cache_hits(), 0u) << name;
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline.records(), pipeline.alive(),
                                     pipeline.config(), matcher),
                   name);
  return std::move(loaded).ValueOrDie();
}

/// A legacy image loads to its pinned snapshot, its re-save is version 3,
/// and that re-save reloads to the same snapshot and re-saves byte for
/// byte. Returns the re-save ("" after a failure).
std::string ExpectLegacyImageUpgrades(const std::string& name, char version,
                                      size_t num_dead, size_t matcher_calls) {
  auto legacy =
      LoadPinned(FixtureImage(name), name, version, num_dead, matcher_calls);
  if (legacy == nullptr) return "";
  const std::string resaved = SerializeCheckpoint(*legacy).ValueOrDie();
  EXPECT_EQ(resaved[8], static_cast<char>(kCheckpointVersion)) << name;
  JaccardMatcher matcher;
  auto reloaded = ParseCheckpoint(resaved, matcher);
  EXPECT_TRUE(reloaded.ok()) << name << ": " << reloaded.status().ToString();
  if (!reloaded.ok()) return "";
  ExpectEquivalent((*reloaded)->Snapshot().ValueOrDie(),
                   legacy->Snapshot().ValueOrDie(), name + " re-saved");
  EXPECT_EQ(SerializeCheckpoint(**reloaded).ValueOrDie(), resaved) << name;
  return resaved;
}

TEST(CheckpointTest, CheckedInVersionOneImageLoads) {
  ExpectLegacyImageUpgrades("ingest_v1.grlm", 1, 0, 94);
}

TEST(CheckpointTest, CheckedInVersionTwoImageLoads) {
  // crud_v3.grlm was written by the same schedule: the upgrade is exact.
  EXPECT_EQ(ExpectLegacyImageUpgrades("crud_v2.grlm", 2, 2, 95),
            FixtureImage("crud_v3.grlm"));
}

TEST(CheckpointTest, CheckedInVersionThreeImageLoads) {
  const std::string image = FixtureImage("crud_v3.grlm");
  auto pipeline = LoadPinned(image, "crud_v3.grlm", 3, 2, 95);
  ASSERT_NE(pipeline, nullptr);
  EXPECT_EQ(SerializeCheckpoint(*pipeline).ValueOrDie(), image);
}

// ---------------------------------------------------------------------------
// MatchService
// ---------------------------------------------------------------------------

TEST(MatchServiceTest, EmptyServiceServesEpochZero) {
  MatchService service;
  EXPECT_EQ(service.Stats().epoch, 0u);
  EXPECT_EQ(service.Stats().num_records, 0u);
  EXPECT_EQ(service.GroupOf(0), kNoGroup);
  EXPECT_EQ(service.GroupOf(-1), kNoGroup);
  EXPECT_TRUE(service.Members(0).empty());
  EXPECT_TRUE(service.Members(kNoGroup).empty());
}

TEST(MatchServiceTest, PublishedSnapshotAnswersQueriesConsistently) {
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(TightConfig(1, 0.25));
  IngestAll(&pipeline, records, 0, records.size(), 2, matcher);
  const PipelineResult result = pipeline.Snapshot().ValueOrDie();

  MatchService service;
  EXPECT_EQ(service.Publish(result, records.size()), 1u);
  MatchSnapshotPtr view = service.View();
  EXPECT_EQ(view->epoch(), 1u);
  EXPECT_EQ(view->stats().num_records, records.size());
  EXPECT_EQ(view->stats().num_groups, result.groups.size());
  EXPECT_EQ(view->stats().num_predicted_pairs, result.predicted_pairs.size());

  // Every record maps into exactly the group that contains it.
  const auto reference = result.GroupOfRecord(records.size());
  size_t matched_groups = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    const GroupId gid = view->GroupOf(static_cast<RecordId>(r));
    EXPECT_EQ(gid, reference[r]);
    ASSERT_NE(gid, kNoGroup);
    const auto& members = view->Members(gid);
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                   static_cast<RecordId>(r)));
  }
  for (size_t g = 0; g < view->num_groups(); ++g) {
    const auto& members = view->Members(static_cast<GroupId>(g));
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    if (members.size() >= 2) ++matched_groups;
    for (RecordId r : members) {
      EXPECT_EQ(view->GroupOf(r), static_cast<GroupId>(g));
    }
  }
  EXPECT_EQ(view->stats().num_matched_groups, matched_groups);
  // Out-of-range queries answer cleanly.
  EXPECT_EQ(view->GroupOf(static_cast<RecordId>(records.size())), kNoGroup);
  EXPECT_TRUE(view->Members(static_cast<GroupId>(view->num_groups())).empty());
}

TEST(MatchServiceTest, HeldViewsAreImmutableAcrossPublishes) {
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(TightConfig(1, 0.25));

  MatchService service;
  IngestAll(&pipeline, records, 0, records.size() / 2, 1, matcher);
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  MatchSnapshotPtr old_view = service.View();
  const ServeStats old_stats = old_view->stats();

  IngestAll(&pipeline, records, records.size() / 2, records.size(), 1,
            matcher);
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  EXPECT_EQ(service.Stats().epoch, 2u);
  EXPECT_EQ(service.Stats().num_records, records.size());
  // The old view still answers with its own epoch's data.
  EXPECT_TRUE(old_view->stats() == old_stats);
  EXPECT_EQ(old_view->stats().num_records, records.size() / 2);
}

TEST(MatchServiceTest, ConcurrentReadersAlwaysSeeOneConsistentEpoch) {
  // The TSan-checked stress test: one ingester thread publishing epochs
  // while reader threads hammer queries. Each reader verifies that all the
  // queries it makes against one View agree with each other (no torn
  // epochs) and that epochs never go backwards.
  const std::vector<Record> records = FinancialRecords(30);
  const size_t num_batches = 12;
  const size_t batch_size = (records.size() + num_batches - 1) / num_batches;

  MatchService service;
  std::atomic<bool> done{false};
  std::atomic<size_t> total_queries{0};

  const size_t num_readers = 4;
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (size_t t = 0; t < num_readers; ++t) {
    readers.emplace_back([&service, &done, &total_queries, t] {
      uint64_t last_epoch = 0;
      size_t queries = 0;
      uint32_t rng_state = static_cast<uint32_t>(t + 1);
      while (!done.load(std::memory_order_acquire)) {
        MatchSnapshotPtr view = service.View();
        const ServeStats stats = view->stats();
        ASSERT_GE(stats.epoch, last_epoch);
        last_epoch = stats.epoch;
        // Probe a handful of records: GroupOf and Members must agree with
        // each other inside this one view regardless of concurrent
        // publishes.
        for (int probe = 0; probe < 8; ++probe) {
          rng_state = rng_state * 1664525u + 1013904223u;
          if (stats.num_records == 0) break;
          const RecordId r =
              static_cast<RecordId>(rng_state % stats.num_records);
          const GroupId gid = view->GroupOf(r);
          ASSERT_NE(gid, kNoGroup);
          const auto& members = view->Members(gid);
          ASSERT_TRUE(std::binary_search(members.begin(), members.end(), r));
          for (RecordId member : members) {
            ASSERT_EQ(view->GroupOf(member), gid);
          }
          ++queries;
        }
      }
      total_queries.fetch_add(queries);
    });
  }

  JaccardMatcher matcher;
  IncrementalPipeline pipeline(TightConfig(2, 0.25));
  uint64_t published = 0;
  for (size_t offset = 0; offset < records.size(); offset += batch_size) {
    const size_t stop = std::min(offset + batch_size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(offset),
                              records.begin() + static_cast<long>(stop));
    ASSERT_TRUE(pipeline.Ingest(batch, matcher).ok());
    published =
        service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(published, static_cast<uint64_t>(num_batches));
  EXPECT_EQ(service.Stats().epoch, published);
  EXPECT_EQ(service.Stats().num_records, records.size());
  EXPECT_GT(total_queries.load(), 0u);
}

TEST(FinancialCrud, MatchServiceExcludesTombstonedRecords) {
  // The serving layer needs no tombstone plumbing: dead records are absent
  // from the snapshot's groups, so GroupOf reports kNoGroup for them and
  // group membership lists never contain them.
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(TightConfig(1, 0.25));
  ASSERT_TRUE(pipeline.Ingest(records, matcher).ok());
  MatchService service;
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  const RecordId victim = 0;
  ASSERT_NE(service.GroupOf(victim), kNoGroup);

  ASSERT_TRUE(pipeline.Remove({victim}, matcher).ok());
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  EXPECT_EQ(service.GroupOf(victim), kNoGroup);
  MatchSnapshotPtr view = service.View();
  size_t total_members = 0;
  for (size_t g = 0; g < view->num_groups(); ++g) {
    for (RecordId member : view->Members(static_cast<GroupId>(g))) {
      EXPECT_NE(member, victim);
      ++total_members;
    }
  }
  // Every live record sits in exactly one group (singletons included); the
  // dead one sits in none.
  EXPECT_EQ(total_members, pipeline.num_live());
}

}  // namespace
}  // namespace gralmatch
