// What only the sharded layer has: the content-hash router, the shard-file
// failure modes a single image cannot have (missing, swapped and stale
// shard files, a save onto a regular file), and the sharded directories
// earlier builds wrote. The sharded pipeline's equivalence and checkpoint
// corruption cases run with every other layout in
// pipeline_equivalence_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "serve/sharded_checkpoint.h"
#include "shard/shard_router.h"
#include "shard/sharded_pipeline.h"
#include "test_support.h"

namespace gralmatch {
namespace {

using testing_support::CheckpointFiles;
using testing_support::ExpectEquivalent;
using testing_support::FinancialRecords;
using testing_support::JaccardMatcher;
using testing_support::ReadFileBytes;
using testing_support::Slice;
using testing_support::SurvivorReference;
using testing_support::TightConfig;
using testing_support::WriteFileBytes;

ShardedPipelineConfig TwoShards() {
  ShardedPipelineConfig config;
  config.base = TightConfig(1, 0.25);
  config.num_shards = 2;
  config.router_seed = 17;
  return config;
}

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, RoutesByContentNotByPositionOrMetadata) {
  const std::vector<Record> records = FinancialRecords(20);
  ShardRouter router(4, 99);
  for (const Record& rec : records) {
    const size_t shard = router.ShardOf(rec);
    EXPECT_LT(shard, 4u);
    // Same content -> same shard, wherever/whenever it arrives.
    Record copy = rec;
    EXPECT_EQ(router.ShardOf(copy), shard);
    // Metadata stamps must not move a record between shards.
    copy.Set("_trace_id", "abc123");
    EXPECT_EQ(router.ShardOf(copy), shard);
  }
}

TEST(ShardRouterTest, SeedChangesThePartitionAndSpreadsRecords) {
  const std::vector<Record> records = FinancialRecords(40);
  ShardRouter router_a(4, 1);
  ShardRouter router_b(4, 2);
  std::vector<size_t> count_a(4, 0);
  size_t moved = 0;
  for (const Record& rec : records) {
    const size_t sa = router_a.ShardOf(rec);
    ++count_a[sa];
    if (router_b.ShardOf(rec) != sa) ++moved;
  }
  // A different seed reshuffles a meaningful fraction of the feed.
  EXPECT_GT(moved, records.size() / 8);
  // The content hash spreads a real fixture over every shard.
  for (size_t s = 0; s < 4; ++s) EXPECT_GT(count_a[s], 0u);
}

TEST(ShardRouterTest, KeyOfIsPinned) {
  // The key decides which shard file stores a record, and the sharded
  // loader checks that choice, so it must never change: these values were
  // recorded from the hand-rolled FNV-1a loop the shared Fnv1a64 replaced.
  Record rec(3, RecordKind::kSecurity);
  rec.Set("name", "Acme Holdings AG");
  rec.Set("isin", "CH0012345678");
  rec.Set("_trace_id", "abc123");
  EXPECT_EQ(ShardRouter(4, 7).KeyOf(rec), 16358586823912969069ull);
  EXPECT_EQ(ShardRouter(1, 0).KeyOf(Record(0, RecordKind::kCompany)),
            15589326116826180769ull);
}

TEST(ShardRouterTest, ZeroShardsClampsToOne) {
  ShardRouter router(0, 5);
  EXPECT_EQ(router.num_shards(), 1u);
  EXPECT_EQ(router.ShardOf(Record(1, RecordKind::kCompany)), 0u);
}

// ---------------------------------------------------------------------------
// Shard-file failure modes
// ---------------------------------------------------------------------------

class ShardedCheckpointCorruptionTest : public ::testing::Test {
 protected:
  /// Save a 2-shard checkpoint of the first half of the fixture into `dir`.
  static void SaveFixture(const std::string& dir) {
    const std::vector<Record> records = FinancialRecords(60);
    JaccardMatcher matcher;
    ShardedPipeline sharded(TwoShards());
    ASSERT_TRUE(sharded.Ingest(Slice(records, 0, records.size() / 2), matcher)
                    .ok());
    ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir).ok());
  }
};

TEST_F(ShardedCheckpointCorruptionTest, MissingShardFileFailsCleanly) {
  const std::string dir = TempDirFor("shard_ckpt_missing");
  SaveFixture(dir);
  ASSERT_EQ(
      std::remove(ShardFilePaths(dir).ValueOrDie()[1].c_str()), 0);
  JaccardMatcher matcher;
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("missing shard file"),
            std::string::npos);
}

TEST_F(ShardedCheckpointCorruptionTest, SwappedShardFilesFailCleanly) {
  const std::string dir = TempDirFor("shard_ckpt_swap");
  SaveFixture(dir);
  const std::vector<std::string> paths = ShardFilePaths(dir).ValueOrDie();
  const std::string& a = paths[0];
  const std::string& b = paths[1];
  const std::string tmp = a + ".swap";
  ASSERT_EQ(std::rename(a.c_str(), tmp.c_str()), 0);
  ASSERT_EQ(std::rename(b.c_str(), a.c_str()), 0);
  ASSERT_EQ(std::rename(tmp.c_str(), b.c_str()), 0);
  JaccardMatcher matcher;
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("does not match the manifest"),
            std::string::npos);
}

TEST_F(ShardedCheckpointCorruptionTest, StaleShardFileFailsCleanly) {
  // Two checkpoints of different progress; mixing one checkpoint's shard
  // file into the other must be rejected via the manifest checksums.
  const std::string dir_old = TempDirFor("shard_ckpt_stale_old");
  const std::string dir_new = TempDirFor("shard_ckpt_stale_new");
  const std::vector<Record> records = FinancialRecords(60);
  const size_t half = records.size() / 2;
  JaccardMatcher matcher;
  ShardedPipeline sharded(TwoShards());
  ASSERT_TRUE(sharded.Ingest(Slice(records, 0, half), matcher).ok());
  ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir_old).ok());
  ASSERT_TRUE(
      sharded.Ingest(Slice(records, half, records.size()), matcher).ok());
  ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir_new).ok());
  WriteFileBytes(ShardFilePaths(dir_new).ValueOrDie()[0],
                 ReadFileBytes(ShardFilePaths(dir_old).ValueOrDie()[0]));

  auto restored = LoadShardedCheckpoint(dir_new, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("does not match the manifest"),
            std::string::npos);
}

TEST(ShardedCheckpointTest, SaveOntoARegularFilePathFailsCleanly) {
  // Regression test: mkdir() fails with EEXIST whether the existing path is
  // a directory or a plain file; the save used to treat both as "directory
  // already there" and then fail bizarrely (or clobber) writing
  // "<file>/manifest". It must refuse up front with a clean IOError.
  ShardedPipeline sharded(TwoShards());
  const std::string path = TempDirFor("shard_ckpt_regular_file");
  std::remove(path.c_str());
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a directory";
  }
  Status saved = SaveShardedCheckpoint(sharded, path);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kIoError);
  EXPECT_NE(saved.message().find("not a directory"), std::string::npos);
  // The file is left untouched.
  std::ifstream in(path, std::ios::binary);
  std::string contents{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  EXPECT_EQ(contents, "not a directory");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sharded directories written by earlier builds
// (tests/data/checkpoints/README.md)
// ---------------------------------------------------------------------------

std::string FixtureDir(const std::string& name) {
  return std::string(GRALMATCH_CHECKPOINT_FIXTURES) + "/" + name;
}

/// Load checked-in directory `name`, whose files are stamped `version`, and
/// check it against the from-scratch reference on its survivors and the
/// counters the schedule pins. Null (after a failure) when it does not load.
std::unique_ptr<ShardedPipeline> LoadPinned(const std::string& name,
                                            int version) {
  const std::string dir = FixtureDir(name);
  for (const auto& [file, bytes] : CheckpointFiles(2, dir)) {
    EXPECT_EQ(static_cast<int>(bytes.at(8)), version) << name << "/" << file;
  }
  JaccardMatcher matcher;
  auto loaded = LoadShardedCheckpoint(dir, matcher);
  EXPECT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
  if (!loaded.ok()) return nullptr;
  const ShardedPipeline& sharded = **loaded;
  EXPECT_EQ(sharded.num_shards(), 2u);
  EXPECT_EQ(sharded.records().size(), 81u);
  EXPECT_EQ(sharded.num_dead(), 2u);
  EXPECT_EQ(sharded.ShardRecordCount(0) + sharded.ShardRecordCount(1), 81u);
  EXPECT_EQ(sharded.total_matcher_calls(), 95u);
  EXPECT_EQ(sharded.total_cache_hits(), 0u);
  ExpectEquivalent(sharded.Snapshot().ValueOrDie(),
                   SurvivorReference(sharded.records(), sharded.alive(),
                                     sharded.config().base, matcher),
                   name);
  return std::move(loaded).ValueOrDie();
}

TEST(ShardedCheckpointFixtureTest, CheckedInVersionTwoDirectoryLoads) {
  // That writer split the counters by owner shard (48 + 47 matcher calls);
  // today's writer keeps the total in shard 0. The loader sums the slots,
  // so the old split must restore the same total. A version 2 directory
  // stores no index state, so this load also runs the rebuild.
  auto legacy = LoadPinned("sharded_v2", 2);
  ASSERT_NE(legacy, nullptr);
  const std::string resaved = TempDirFor("shard_fixture_v2_resaved");
  const std::string again = TempDirFor("shard_fixture_v2_again");
  std::filesystem::remove_all(resaved);
  std::filesystem::remove_all(again);
  ASSERT_TRUE(SaveShardedCheckpoint(*legacy, resaved).ok());
  for (const auto& [file, bytes] : CheckpointFiles(2, resaved)) {
    EXPECT_EQ(static_cast<uint32_t>(bytes.at(8)), kShardedCheckpointVersion)
        << file;
  }
  JaccardMatcher matcher;
  auto reloaded = LoadShardedCheckpoint(resaved, matcher);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectEquivalent((*reloaded)->Snapshot().ValueOrDie(),
                   legacy->Snapshot().ValueOrDie(), "re-saved");
  ASSERT_TRUE(SaveShardedCheckpoint(**reloaded, again).ok());
  EXPECT_EQ(CheckpointFiles(2, again), CheckpointFiles(2, resaved));
  // sharded_v3 was written by the same schedule: the rebuilt indexes equal
  // the ones the writer maintained, so the upgrade is exact.
  EXPECT_EQ(CheckpointFiles(2, resaved),
            CheckpointFiles(2, FixtureDir("sharded_v3")));
  std::filesystem::remove_all(resaved);
  std::filesystem::remove_all(again);
}

TEST(ShardedCheckpointFixtureTest, CheckedInVersionThreeDirectoryLoads) {
  auto pipeline = LoadPinned("sharded_v3", 3);
  ASSERT_NE(pipeline, nullptr);
  const std::string resaved = TempDirFor("shard_fixture_v3_resaved");
  std::filesystem::remove_all(resaved);
  ASSERT_TRUE(SaveShardedCheckpoint(*pipeline, resaved).ok());
  EXPECT_EQ(CheckpointFiles(2, resaved),
            CheckpointFiles(2, FixtureDir("sharded_v3")));
  std::filesystem::remove_all(resaved);
}

}  // namespace
}  // namespace gralmatch
