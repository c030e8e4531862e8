// Differential test suite for the sharded matching subsystem. The headline
// contract: ShardedPipeline::Snapshot() at any shard count S and any thread
// count is identical — predicted pairs, pre-cleanup components, groups, and
// all cleanup counters — to the S=1 result, to IncrementalPipeline on the
// same ingest sequence, and to a from-scratch EntityGroupPipeline::Run on
// the union of all batches, on both the financial-securities and
// WDC-products fixtures. The suite also pins the router's determinism, the
// once-per-fingerprint scoring guarantee across shards, the poisoned
// fail-fast, and the sharded manifest checkpoint: Save -> Load -> Snapshot
// bitwise-identical (wall-clock bits included), re-save byte-identical,
// post-restore ingestion equivalent, and every partial/corrupt/mismatched
// manifest case a clean Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/binary_io.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "serve/sharded_checkpoint.h"
#include "shard/shard_router.h"
#include "shard/sharded_pipeline.h"
#include "stream/incremental_pipeline.h"
#include "text/normalize.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// Matchers and fixtures (mirroring stream_test.cc: the equivalence contract
// under test extends the same one)
// ---------------------------------------------------------------------------

/// Deterministic token-Jaccard matcher with a tunable scale that changes its
/// fingerprint (see stream_test.cc).
class JaccardMatcher : public PairwiseMatcher {
 public:
  explicit JaccardMatcher(double scale = 1.0) : scale_(scale) {}

  std::string name() const override { return "jaccard"; }
  std::string Fingerprint() const override {
    return "jaccard#" + std::to_string(scale_);
  }
  double MatchProbability(const Record& a, const Record& b) const override {
    auto ta = Tokens(a);
    auto tb = Tokens(b);
    if (ta.empty() && tb.empty()) return 0.0;
    size_t common = 0;
    size_t ia = 0, ib = 0;
    while (ia < ta.size() && ib < tb.size()) {
      if (ta[ia] < tb[ib]) {
        ++ia;
      } else if (tb[ib] < ta[ia]) {
        ++ib;
      } else {
        ++common;
        ++ia;
        ++ib;
      }
    }
    const size_t total = ta.size() + tb.size() - common;
    double score = scale_ * static_cast<double>(common) /
                   static_cast<double>(total == 0 ? 1 : total);
    return score > 1.0 ? 1.0 : score;
  }

 private:
  static std::vector<std::string> Tokens(const Record& rec) {
    auto toks = TokenizeContentWords(rec.AllText());
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    return toks;
  }

  double scale_;
};

/// Thread-safe call counter proving the once-per-fingerprint guarantee
/// holds pipeline-wide across shards (keyed by the "_uid" stamp).
class CountingMatcher : public PairwiseMatcher {
 public:
  explicit CountingMatcher(const PairwiseMatcher* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }
  double MatchProbability(const Record& a, const Record& b) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_;
      int ua = std::stoi(std::string(a.Get("_uid")));
      int ub = std::stoi(std::string(b.Get("_uid")));
      seen_.insert({std::min(ua, ub), std::max(ua, ub)});
    }
    return inner_->MatchProbability(a, b);
  }

  size_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  size_t distinct_pairs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.size();
  }

 private:
  const PairwiseMatcher* inner_;
  mutable std::mutex mu_;
  mutable size_t calls_ = 0;
  mutable std::set<std::pair<int, int>> seen_;
};

/// Matcher that throws once armed — exercises the sharded poison fail-fast.
class ThrowingMatcher : public PairwiseMatcher {
 public:
  std::string name() const override { return "throwing"; }
  std::string Fingerprint() const override { return "throwing#1"; }
  double MatchProbability(const Record& a, const Record& b) const override {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_) throw std::runtime_error("scorer backend unavailable");
    return JaccardMatcher().MatchProbability(a, b);
  }
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }

 private:
  mutable std::mutex mu_;
  mutable bool armed_ = false;
};

std::vector<Record> WithUids(const RecordTable& table) {
  std::vector<Record> out;
  out.reserve(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    Record rec = table.at(static_cast<RecordId>(i));
    rec.Set("_uid", std::to_string(i));
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<Record> FinancialRecords(size_t num_groups = 60) {
  SyntheticConfig config;
  config.seed = 505;
  config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();
  return WithUids(bench.securities.records);
}

std::vector<Record> WdcRecords() {
  WdcConfig config;
  config.num_entities = 120;
  config.seed = 77;
  return WithUids(WdcProductsGenerator(config).Generate().records);
}

/// Pipeline configuration tightened so every cleanup phase fires on these
/// fixture sizes (as in stream_test.cc).
ShardedPipelineConfig ShardConfig(size_t num_shards, size_t num_threads,
                                  double match_threshold) {
  ShardedPipelineConfig config;
  config.base.pipeline.cleanup.gamma = 6;
  config.base.pipeline.cleanup.mu = 3;
  config.base.pipeline.pre_cleanup_threshold = 9;
  config.base.pipeline.match_threshold = match_threshold;
  config.base.pipeline.num_threads = num_threads;
  config.base.token.top_n = 5;
  config.num_shards = num_shards;
  config.router_seed = 17;
  return config;
}

/// From-scratch reference: the batch pipeline on the full record set.
PipelineResult RunBatchReference(const RecordTable& records,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher) {
  Dataset ds;
  ds.records = records;
  CandidateSet candidates;
  if (config.use_id_blocker) {
    IdOverlapBlocker::Options opts;
    opts.num_threads = config.pipeline.num_threads;
    IdOverlapBlocker(opts).AddCandidates(ds, &candidates);
  }
  if (config.use_token_blocker) {
    TokenOverlapBlocker::Options opts = config.token;
    opts.num_threads = config.pipeline.num_threads;
    TokenOverlapBlocker(opts).AddCandidates(ds, &candidates);
  }
  return EntityGroupPipeline(config.pipeline)
      .Run(ds, candidates.ToVector(), matcher);
}

/// Counters-only equality (reference wall-clock legitimately differs).
void ExpectEquivalent(const PipelineResult& sharded,
                      const PipelineResult& reference,
                      const std::string& context) {
  EXPECT_EQ(sharded.predicted_pairs, reference.predicted_pairs) << context;
  EXPECT_EQ(sharded.pre_cleanup_components, reference.pre_cleanup_components)
      << context;
  EXPECT_EQ(sharded.groups, reference.groups) << context;
  EXPECT_EQ(sharded.cleanup_stats.pre_cleanup_edges_removed,
            reference.cleanup_stats.pre_cleanup_edges_removed)
      << context;
  EXPECT_EQ(sharded.cleanup_stats.min_cut_calls,
            reference.cleanup_stats.min_cut_calls)
      << context;
  EXPECT_EQ(sharded.cleanup_stats.min_cut_edges_removed,
            reference.cleanup_stats.min_cut_edges_removed)
      << context;
  EXPECT_EQ(sharded.cleanup_stats.betweenness_calls,
            reference.cleanup_stats.betweenness_calls)
      << context;
  EXPECT_EQ(sharded.cleanup_stats.betweenness_edges_removed,
            reference.cleanup_stats.betweenness_edges_removed)
      << context;
}

/// Full bitwise equality, wall-clock bits included (checkpoint round trip).
void ExpectBitwiseIdentical(const PipelineResult& a, const PipelineResult& b,
                            const std::string& context) {
  ExpectEquivalent(a, b, context);
  EXPECT_EQ(a.cleanup_stats.seconds, b.cleanup_stats.seconds) << context;
  EXPECT_EQ(a.inference_seconds, b.inference_seconds) << context;
}

/// Reports must match field-for-field between the sharded pipeline and the
/// single incremental pipeline (wall-clock excluded).
void ExpectSameReport(const IngestReport& sharded, const IngestReport& mono,
                      const std::string& context) {
  EXPECT_EQ(sharded.records_added, mono.records_added) << context;
  EXPECT_EQ(sharded.candidates_added, mono.candidates_added) << context;
  EXPECT_EQ(sharded.candidates_removed, mono.candidates_removed) << context;
  EXPECT_EQ(sharded.pairs_scored, mono.pairs_scored) << context;
  EXPECT_EQ(sharded.cache_hits, mono.cache_hits) << context;
  EXPECT_EQ(sharded.components_rebuilt, mono.components_rebuilt) << context;
  EXPECT_EQ(sharded.components_reused, mono.components_reused) << context;
}

std::vector<size_t> EqualBatches(size_t n, size_t k) {
  std::vector<size_t> sizes(k, n / k);
  sizes.back() += n % k;
  return sizes;
}

/// Drive a ShardedPipeline and an IncrementalPipeline through the same
/// schedule, checking report equality on every ingest and snapshot
/// equivalence (against each other and the batch reference) at every
/// `check_every`-th batch and the last.
void RunDifferentialSchedule(const std::vector<Record>& records,
                             const std::vector<size_t>& batch_sizes,
                             const ShardedPipelineConfig& config,
                             const PairwiseMatcher& matcher,
                             size_t check_every = 1) {
  ShardedPipeline sharded(config);
  IncrementalPipeline mono(config.base);
  size_t offset = 0;
  for (size_t b = 0; b < batch_sizes.size(); ++b) {
    const size_t size = batch_sizes[b];
    ASSERT_LE(offset + size, records.size());
    std::vector<Record> batch(
        records.begin() + static_cast<long>(offset),
        records.begin() + static_cast<long>(offset + size));
    Result<IngestReport> sharded_report = sharded.Ingest(batch, matcher);
    Result<IngestReport> mono_report = mono.Ingest(batch, matcher);
    ASSERT_TRUE(sharded_report.ok());
    ASSERT_TRUE(mono_report.ok());
    offset += size;
    const std::string context =
        "after batch " + std::to_string(b + 1) + "/" +
        std::to_string(batch_sizes.size()) +
        " (shards=" + std::to_string(config.num_shards) +
        ", threads=" + std::to_string(config.base.pipeline.num_threads) + ")";
    ExpectSameReport(*sharded_report, *mono_report, context);
    const bool last = b + 1 == batch_sizes.size();
    if (!last && (b + 1) % check_every != 0) continue;
    const PipelineResult snapshot = sharded.Snapshot().ValueOrDie();
    ExpectEquivalent(snapshot, mono.Snapshot().ValueOrDie(),
                     context + " vs incremental");
    ExpectEquivalent(snapshot,
                     RunBatchReference(sharded.records(), config.base, matcher),
                     context + " vs batch reference");
  }
  ASSERT_EQ(offset, records.size());
  EXPECT_EQ(sharded.total_matcher_calls(), mono.total_matcher_calls());
  EXPECT_EQ(sharded.total_cache_hits(), mono.total_cache_hits());
}

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  return dir;
}

void FlipByte(const std::string& path, size_t offset_from_end) {
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(image.size(), offset_from_end);
  image[image.size() - 1 - offset_from_end] ^= 0x40;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
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
// Shard-count invariance (the headline contract)
// ---------------------------------------------------------------------------

class FinancialShard : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<Record>(FinancialRecords());
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }
  static std::vector<Record>* records_;
};

std::vector<Record>* FinancialShard::records_ = nullptr;

TEST_F(FinancialShard, ShardCountInvarianceAcrossThreadCounts) {
  JaccardMatcher matcher;
  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t threads : {1u, 2u, 8u}) {
      RunDifferentialSchedule(*records_, EqualBatches(records_->size(), 5),
                              ShardConfig(shards, threads, 0.25), matcher,
                              /*check_every=*/2);
    }
  }
}

TEST_F(FinancialShard, SingleBatchEqualsFullRun) {
  JaccardMatcher matcher;
  for (size_t shards : {1u, 2u, 4u}) {
    RunDifferentialSchedule(*records_, {records_->size()},
                            ShardConfig(shards, 2, 0.25), matcher);
  }
}

TEST_F(FinancialShard, SingletonBatchesEquivalent) {
  const std::vector<Record> records = FinancialRecords(30);
  JaccardMatcher matcher;
  RunDifferentialSchedule(records, std::vector<size_t>(records.size(), 1),
                          ShardConfig(4, 1, 0.25), matcher,
                          /*check_every=*/50);
}

/// Jaccard wrapper overriding ScoreBatch (the default loops
/// MatchProbability): pins that shard-parallel scoring feeds the matcher
/// real batches and that the batched path is equivalent to per-pair.
class BatchingJaccardMatcher : public PairwiseMatcher {
 public:
  explicit BatchingJaccardMatcher(const JaccardMatcher* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }
  double MatchProbability(const Record& a, const Record& b) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++single_calls_;
    }
    return inner_->MatchProbability(a, b);
  }
  void ScoreBatch(const RecordTable& records, Span<const RecordPair> pairs,
                  Span<double> out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++batch_calls_;
      batched_pairs_ += pairs.size();
      max_batch_ = std::max(max_batch_, pairs.size());
    }
    for (size_t i = 0; i < pairs.size(); ++i) {
      out[i] = inner_->MatchProbability(records.at(pairs[i].a),
                                        records.at(pairs[i].b));
    }
  }

  size_t single_calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return single_calls_;
  }
  size_t batched_pairs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batched_pairs_;
  }
  size_t max_batch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_batch_;
  }

 private:
  const JaccardMatcher* inner_;
  mutable std::mutex mu_;
  mutable size_t single_calls_ = 0;
  mutable size_t batch_calls_ = 0;
  mutable size_t batched_pairs_ = 0;
  mutable size_t max_batch_ = 0;
};

TEST_F(FinancialShard, BatchedScoringEquivalentAcrossThreadsAndBatchSizes) {
  // S=2 sharded pipeline with a ScoreBatch-overriding matcher: every
  // thread count and batch size must reproduce the serial per-pair batch
  // reference exactly, with all scoring routed through the override.
  JaccardMatcher inner;
  ShardedPipelineConfig reference_config = ShardConfig(2, 1, 0.25);
  reference_config.base.pipeline.score_batch_size = 1;

  for (size_t threads : {1u, 2u, 8u}) {
    for (size_t batch_size : {1u, 7u, 64u}) {
      BatchingJaccardMatcher batching(&inner);
      ShardedPipelineConfig config = ShardConfig(2, threads, 0.25);
      config.base.pipeline.score_batch_size = batch_size;
      ShardedPipeline sharded(config);
      size_t offset = 0;
      for (size_t size : EqualBatches(records_->size(), 4)) {
        std::vector<Record> batch(
            records_->begin() + static_cast<long>(offset),
            records_->begin() + static_cast<long>(offset + size));
        ASSERT_TRUE(sharded.Ingest(batch, batching).ok());
        offset += size;
      }
      const std::string context = "threads=" + std::to_string(threads) +
                                  " batch_size=" + std::to_string(batch_size);
      ExpectEquivalent(
          sharded.Snapshot().ValueOrDie(),
          RunBatchReference(sharded.records(), reference_config.base, inner),
          context);
      EXPECT_EQ(batching.single_calls(), 0u) << context;
      EXPECT_EQ(batching.batched_pairs(), sharded.total_matcher_calls())
          << context;
      EXPECT_LE(batching.max_batch(), batch_size) << context;
    }
  }
}

TEST_F(FinancialShard, FingerprintSwapRescoresEveryShardAndStaysEquivalent) {
  JaccardMatcher matcher_v1(1.0);
  JaccardMatcher matcher_v2(1.4);
  ShardedPipelineConfig config = ShardConfig(4, 2, 0.25);
  ShardedPipeline sharded(config);
  const size_t half = records_->size() / 2;
  std::vector<Record> first(records_->begin(),
                            records_->begin() + static_cast<long>(half));
  std::vector<Record> second(records_->begin() + static_cast<long>(half),
                             records_->end());

  ASSERT_TRUE(sharded.Ingest(first, matcher_v1).ok());
  IngestReport swap = sharded.Ingest({}, matcher_v2).ValueOrDie();
  EXPECT_EQ(swap.records_added, 0u);
  EXPECT_GT(swap.pairs_scored, 0u);
  ExpectEquivalent(sharded.Snapshot().ValueOrDie(),
                   RunBatchReference(sharded.records(), config.base,
                                     matcher_v2),
                   "after matcher swap");
  ASSERT_TRUE(sharded.Ingest(second, matcher_v2).ok());
  ExpectEquivalent(sharded.Snapshot().ValueOrDie(),
                   RunBatchReference(sharded.records(), config.base,
                                     matcher_v2),
                   "after matcher swap + second half");
}

TEST_F(FinancialShard, NoPairScoredTwiceAcrossShards) {
  JaccardMatcher inner;
  CountingMatcher counting(&inner);
  ShardedPipeline sharded(ShardConfig(4, 4, 0.25));
  size_t offset = 0;
  for (size_t size : EqualBatches(records_->size(), 8)) {
    std::vector<Record> batch(
        records_->begin() + static_cast<long>(offset),
        records_->begin() + static_cast<long>(offset + size));
    ASSERT_TRUE(sharded.Ingest(batch, counting).ok());
    offset += size;
  }
  // Pair ownership is stable, so the union of shard caches never scores a
  // pair twice per fingerprint — pipeline-wide, not just per shard.
  EXPECT_GT(counting.calls(), 0u);
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
  EXPECT_EQ(counting.calls(), sharded.total_matcher_calls());
  // Every shard actually owns some of the feed.
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_GT(sharded.ShardRecordCount(s), 0u) << "shard " << s;
  }
}

TEST_F(FinancialShard, ThrowingMatcherPoisonsTheShardedPipeline) {
  ShardedPipeline sharded(ShardConfig(2, 2, 0.25));
  ThrowingMatcher matcher;
  const size_t half = records_->size() / 2;
  std::vector<Record> first(records_->begin(),
                            records_->begin() + static_cast<long>(half));
  std::vector<Record> second(records_->begin() + static_cast<long>(half),
                             records_->end());
  ASSERT_TRUE(sharded.Ingest(first, matcher).ok());
  matcher.Arm();
  Result<IngestReport> aborted = sharded.Ingest(second, matcher);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(sharded.status().ok());
  EXPECT_FALSE(sharded.Snapshot().ok());
  EXPECT_FALSE(sharded.Ingest({}, matcher).ok());
  // A poisoned pipeline must never become a checkpoint.
  Status saved =
      SaveShardedCheckpoint(sharded, TempDirFor("shard_poisoned_ckpt"));
  ASSERT_FALSE(saved.ok());
  EXPECT_NE(saved.message().find("poisoned"), std::string::npos);
}

// ---------------------------------------------------------------------------
// WDC products fixture
// ---------------------------------------------------------------------------

TEST(WdcShard, ShardCountInvarianceAcrossThreadCounts) {
  const std::vector<Record> records = WdcRecords();
  JaccardMatcher matcher;
  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t threads : {1u, 2u, 8u}) {
      RunDifferentialSchedule(records, EqualBatches(records.size(), 4),
                              ShardConfig(shards, threads, 0.35), matcher,
                              /*check_every=*/2);
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded manifest checkpoints
// ---------------------------------------------------------------------------

class ShardedCheckpointTest : public FinancialShard {};

TEST_F(ShardedCheckpointTest, RoundTripIsBitwiseIdenticalAndResaveIsStable) {
  JaccardMatcher matcher;
  ShardedPipelineConfig config = ShardConfig(4, 2, 0.25);
  ShardedPipeline sharded(config);
  const size_t half = records_->size() / 2;
  std::vector<Record> first(records_->begin(),
                            records_->begin() + static_cast<long>(half));
  ASSERT_TRUE(sharded.Ingest(first, matcher).ok());

  const std::string dir = TempDirFor("shard_ckpt_roundtrip");
  ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir).ok());
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_shards(), 4u);
  EXPECT_EQ((*restored)->fingerprint(), sharded.fingerprint());
  EXPECT_EQ((*restored)->total_matcher_calls(), sharded.total_matcher_calls());
  ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(),
                         sharded.Snapshot().ValueOrDie(), "restored");

  // Re-saving the restored pipeline reproduces every file byte for byte:
  // equal logical state -> equal checkpoints.
  const std::string dir2 = TempDirFor("shard_ckpt_resave");
  ASSERT_TRUE(SaveShardedCheckpoint(**restored, dir2).ok());
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read_file(ShardedManifestPath(dir)),
            read_file(ShardedManifestPath(dir2)));
  const std::vector<std::string> paths = ShardFilePaths(dir).ValueOrDie();
  const std::vector<std::string> paths2 = ShardFilePaths(dir2).ValueOrDie();
  ASSERT_EQ(paths.size(), 4u);
  ASSERT_EQ(paths2.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    // Same content-addressed names (equal state -> equal addresses)...
    EXPECT_EQ(paths[s].substr(dir.size()), paths2[s].substr(dir2.size()))
        << "shard " << s;
    // ...and the same bytes inside.
    EXPECT_EQ(read_file(paths[s]), read_file(paths2[s])) << "shard " << s;
  }
}

TEST_F(ShardedCheckpointTest, PostRestoreIngestionStaysEquivalent) {
  JaccardMatcher matcher;
  ShardedPipelineConfig config = ShardConfig(4, 2, 0.25);
  ShardedPipeline sharded(config);
  const size_t half = records_->size() / 2;
  std::vector<Record> first(records_->begin(),
                            records_->begin() + static_cast<long>(half));
  std::vector<Record> second(records_->begin() + static_cast<long>(half),
                             records_->end());
  ASSERT_TRUE(sharded.Ingest(first, matcher).ok());

  const std::string dir = TempDirFor("shard_ckpt_resume");
  ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir).ok());
  // Restore with a different thread count: results never depend on it.
  auto restored = LoadShardedCheckpoint(dir, matcher, /*num_threads=*/8);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*restored)->Ingest(second, matcher).ok());
  ExpectEquivalent(
      (*restored)->Snapshot().ValueOrDie(),
      RunBatchReference((*restored)->records(), config.base, matcher),
      "post-restore ingest");
  // The restored pipeline served every cached score from the checkpoint: it
  // scored exactly the pairs the uninterrupted run would have.
  ASSERT_TRUE(sharded.Ingest(second, matcher).ok());
  EXPECT_EQ((*restored)->total_matcher_calls(), sharded.total_matcher_calls());
}

TEST_F(ShardedCheckpointTest, OneBlockerPipelinesRoundTrip) {
  // The single-file loader must accept these too (serve_test's
  // OneBlockerPipelinesRoundTrip); the sharded one rebuilds the enabled
  // index and leaves the disabled one empty.
  const size_t half = records_->size() / 2;
  const std::vector<Record> first(records_->begin(),
                                  records_->begin() + static_cast<long>(half));
  const std::vector<Record> rest(records_->begin() + static_cast<long>(half),
                                 records_->end());
  JaccardMatcher matcher;
  for (const bool id_only : {true, false}) {
    const std::string context = id_only ? "id only" : "token only";
    ShardedPipelineConfig config = ShardConfig(2, 1, 0.25);
    config.base.use_id_blocker = id_only;
    config.base.use_token_blocker = !id_only;
    ShardedPipeline sharded(config);
    ASSERT_TRUE(sharded.Ingest(first, matcher).ok()) << context;
    ASSERT_TRUE(sharded.Remove({3}, matcher).ok()) << context;

    const std::string dir = TempDirFor(id_only ? "shard_id_only"
                                               : "shard_token_only");
    ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir).ok()) << context;
    auto restored = LoadShardedCheckpoint(dir, matcher);
    ASSERT_TRUE(restored.ok()) << context << ": "
                               << restored.status().ToString();
    ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(),
                           sharded.Snapshot().ValueOrDie(), context);

    const std::string dir2 = TempDirFor(id_only ? "shard_id_only_resave"
                                                : "shard_token_only_resave");
    ASSERT_TRUE(SaveShardedCheckpoint(**restored, dir2).ok()) << context;
    auto read_file = [](const std::string& path) {
      std::ifstream in(path, std::ios::binary);
      return std::string(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    };
    EXPECT_EQ(read_file(ShardedManifestPath(dir)),
              read_file(ShardedManifestPath(dir2)))
        << context;
    const std::vector<std::string> paths = ShardFilePaths(dir).ValueOrDie();
    const std::vector<std::string> paths2 = ShardFilePaths(dir2).ValueOrDie();
    ASSERT_EQ(paths.size(), paths2.size()) << context;
    for (size_t s = 0; s < paths.size(); ++s) {
      EXPECT_EQ(read_file(paths[s]), read_file(paths2[s]))
          << context << ", shard " << s;
    }

    auto expected = sharded.Ingest(rest, matcher);
    auto actual = (*restored)->Ingest(rest, matcher);
    ASSERT_TRUE(expected.ok() && actual.ok()) << context;
    ExpectSameReport(*actual, *expected, context);
    ExpectEquivalent((*restored)->Snapshot().ValueOrDie(),
                     sharded.Snapshot().ValueOrDie(), context);
  }
}

TEST_F(ShardedCheckpointTest, PreIngestCheckpointLoadsUnderAnyMatcher) {
  ShardedPipeline sharded(ShardConfig(2, 1, 0.25));
  const std::string dir = TempDirFor("shard_ckpt_empty");
  ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir).ok());
  JaccardMatcher other(2.5);
  auto restored = LoadShardedCheckpoint(dir, other);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->records().size(), 0u);
  EXPECT_TRUE((*restored)->fingerprint().empty());
}

TEST_F(ShardedCheckpointTest, SaveOntoARegularFilePathFailsCleanly) {
  // Regression test: mkdir() fails with EEXIST whether the existing path is
  // a directory or a plain file; the save used to treat both as "directory
  // already there" and then fail bizarrely (or clobber) writing
  // "<file>/manifest". It must refuse up front with a clean IOError.
  ShardedPipeline sharded(ShardConfig(2, 1, 0.25));
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

class ShardedCheckpointCorruptionTest : public FinancialShard {
 protected:
  /// Save a 2-shard checkpoint of the first half of the fixture into `dir`.
  void SaveFixture(const std::string& dir) {
    JaccardMatcher matcher;
    ShardedPipeline sharded(ShardConfig(2, 1, 0.25));
    const size_t half = records_->size() / 2;
    std::vector<Record> first(records_->begin(),
                              records_->begin() + static_cast<long>(half));
    ASSERT_TRUE(sharded.Ingest(first, matcher).ok());
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

TEST_F(ShardedCheckpointCorruptionTest, BitFlippedShardFileFailsCleanly) {
  const std::string dir = TempDirFor("shard_ckpt_flip");
  SaveFixture(dir);
  FlipByte(ShardFilePaths(dir).ValueOrDie()[0], /*offset_from_end=*/321);
  JaccardMatcher matcher;
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("does not match the manifest"),
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
  JaccardMatcher matcher;
  ShardedPipeline sharded(ShardConfig(2, 1, 0.25));
  const size_t half = records_->size() / 2;
  std::vector<Record> first(records_->begin(),
                            records_->begin() + static_cast<long>(half));
  std::vector<Record> second(records_->begin() + static_cast<long>(half),
                             records_->end());
  ASSERT_TRUE(sharded.Ingest(first, matcher).ok());
  ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir_old).ok());
  ASSERT_TRUE(sharded.Ingest(second, matcher).ok());
  ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir_new).ok());

  std::ifstream in(ShardFilePaths(dir_old).ValueOrDie()[0],
                   std::ios::binary);
  std::string stale((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::ofstream out(ShardFilePaths(dir_new).ValueOrDie()[0],
                    std::ios::binary | std::ios::trunc);
  out.write(stale.data(), static_cast<std::streamsize>(stale.size()));
  out.close();

  auto restored = LoadShardedCheckpoint(dir_new, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("does not match the manifest"),
            std::string::npos);
}

TEST_F(ShardedCheckpointCorruptionTest, BitFlippedManifestFailsCleanly) {
  const std::string dir = TempDirFor("shard_ckpt_manifest_flip");
  SaveFixture(dir);
  FlipByte(ShardedManifestPath(dir), /*offset_from_end=*/24);
  JaccardMatcher matcher;
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("checksum"), std::string::npos);
}

TEST_F(ShardedCheckpointCorruptionTest, TruncatedManifestFailsCleanly) {
  const std::string dir = TempDirFor("shard_ckpt_manifest_trunc");
  SaveFixture(dir);
  const std::string path = ShardedManifestPath(dir);
  std::ifstream in(path, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  JaccardMatcher matcher;
  for (const size_t keep : {size_t{0}, size_t{7}, size_t{15}, image.size() / 2,
                            image.size() - 3}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(keep));
    out.close();
    auto restored = LoadShardedCheckpoint(dir, matcher);
    EXPECT_FALSE(restored.ok()) << "kept " << keep << " bytes";
  }
}

TEST_F(ShardedCheckpointCorruptionTest, FingerprintMismatchFailsCleanly) {
  const std::string dir = TempDirFor("shard_ckpt_fingerprint");
  SaveFixture(dir);
  JaccardMatcher other(2.5);
  auto restored = LoadShardedCheckpoint(dir, other);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("fingerprint"),
            std::string::npos);
}

TEST_F(ShardedCheckpointCorruptionTest, FutureManifestVersionFailsCleanly) {
  const std::string dir = TempDirFor("shard_ckpt_version");
  SaveFixture(dir);
  const std::string path = ShardedManifestPath(dir);
  std::ifstream in(path, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  image[8] = 0x7F;  // version u32 little-endian at offset 8
  // Recompute the trailing checksum so only the version is "wrong".
  BinaryWriter fixed;
  fixed.WriteBytes(image.data(), image.size() - 8);
  fixed.WriteU64(
      Fnv1a64(std::string_view(image.data(), image.size() - 8)));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(fixed.buffer().data(),
            static_cast<std::streamsize>(fixed.buffer().size()));
  out.close();
  JaccardMatcher matcher;
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("newer"), std::string::npos);
}

// ---------------------------------------------------------------------------
// A sharded image written by an earlier build
// (tests/data/checkpoints/README.md)
// ---------------------------------------------------------------------------

TEST(ShardedCheckpointFixtureTest, CheckedInVersionTwoDirectoryLoads) {
  // That writer split the counters by owner shard (48 + 47 matcher calls);
  // today's writer keeps the total in shard 0. The loader sums the slots,
  // so the old split must restore the same total.
  JaccardMatcher matcher;
  auto loaded = LoadShardedCheckpoint(
      std::string(GRALMATCH_CHECKPOINT_FIXTURES) + "/sharded_v2", matcher);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ShardedPipeline& sharded = **loaded;
  EXPECT_EQ(sharded.num_shards(), 2u);
  EXPECT_EQ(sharded.records().size(), 81u);
  EXPECT_EQ(sharded.num_dead(), 2u);
  EXPECT_EQ(sharded.ShardRecordCount(0) + sharded.ShardRecordCount(1), 81u);
  EXPECT_EQ(sharded.total_matcher_calls(), 95u);
  EXPECT_EQ(sharded.total_cache_hits(), 0u);

  RecordTable survivors;
  std::vector<NodeId> original;
  for (size_t i = 0; i < sharded.records().size(); ++i) {
    if (!sharded.is_alive(static_cast<RecordId>(i))) continue;
    survivors.Add(sharded.records().at(static_cast<RecordId>(i)));
    original.push_back(static_cast<NodeId>(i));
  }
  PipelineResult ref =
      RunBatchReference(survivors, sharded.config().base, matcher);
  for (RecordPair& pair : ref.predicted_pairs) {
    pair.a = static_cast<RecordId>(original[static_cast<size_t>(pair.a)]);
    pair.b = static_cast<RecordId>(original[static_cast<size_t>(pair.b)]);
  }
  for (auto* sets : {&ref.pre_cleanup_components, &ref.groups}) {
    for (std::vector<NodeId>& nodes : *sets) {
      for (NodeId& u : nodes) u = original[static_cast<size_t>(u)];
    }
  }
  ExpectEquivalent(sharded.Snapshot().ValueOrDie(), ref, "sharded_v2");
}

// ---------------------------------------------------------------------------
// Tombstone sections in sharded checkpoints (format v2): version stamping,
// corruption inside the new section, and version-mix rejection. The
// corruption tests repair every framing layer the loader checks first (the
// file's trailing checksum, its content-addressed name, the manifest's
// recorded checksum, the manifest's trailing checksum) so the patched
// tombstone bytes themselves are all that remains wrong.
// ---------------------------------------------------------------------------

class TombstoneShardedCheckpointTest : public FinancialShard {
 protected:
  /// Save a 2-shard checkpoint of the first half of the fixture with five
  /// records removed, so each shard file carries a tombstone section.
  void SaveTombstonedFixture(const std::string& dir) {
    JaccardMatcher matcher;
    ShardedPipeline sharded(ShardConfig(2, 1, 0.25));
    const size_t half = records_->size() / 2;
    std::vector<Record> first(records_->begin(),
                              records_->begin() + static_cast<long>(half));
    ASSERT_TRUE(sharded.Ingest(first, matcher).ok());
    auto removed = sharded.Remove({3, 14, 25, 36, 47}, matcher);
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    ASSERT_EQ(sharded.num_dead(), 5u);
    ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir).ok());
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::string& path, const std::string& image) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }

  static uint64_t ReadU64At(const std::string& image, size_t pos) {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(image[pos + i]))
           << (8 * i);
    }
    return v;
  }

  static void WriteU64At(std::string* image, size_t pos, uint64_t v) {
    for (size_t i = 0; i < 8; ++i) {
      (*image)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

  static std::string EncodeI32(int32_t v) {
    std::string bytes(4, '\0');
    for (size_t i = 0; i < 4; ++i) {
      bytes[i] = static_cast<char>(
          (static_cast<uint32_t>(v) >> (8 * i)) & 0xff);
    }
    return bytes;
  }

  /// Walk a shard-file image past the record section to the tombstone
  /// section (format v2): returns its byte offset, the decoded tombstone
  /// ids, and the record ids this shard owns.
  static void LocateTombstones(const std::string& image, size_t* offset,
                               std::vector<int32_t>* tombstones,
                               std::vector<int32_t>* owned) {
    size_t pos = 24;  // magic 8, version u32, shard index u32, body size u64
    const uint64_t num_records = ReadU64At(image, pos);
    pos += 8;
    owned->clear();
    for (uint64_t k = 0; k < num_records; ++k) {
      owned->push_back(static_cast<int32_t>(
          static_cast<uint32_t>(ReadU64At(image, pos) & 0xffffffffu)));
      pos += 4 + 4 + 1;  // id i32, source i32, kind u8
      const uint64_t num_attrs = ReadU64At(image, pos);
      pos += 8;
      for (uint64_t a = 0; a < 2 * num_attrs; ++a) {
        pos += 8 + static_cast<size_t>(ReadU64At(image, pos));
      }
      ASSERT_LT(pos, image.size());
    }
    *offset = pos;
    const uint64_t num_dead = ReadU64At(image, pos);
    pos += 8;
    tombstones->clear();
    for (uint64_t k = 0; k < num_dead; ++k) {
      tombstones->push_back(static_cast<int32_t>(
          static_cast<uint32_t>(ReadU64At(image, pos) & 0xffffffffu)));
      pos += 4;
    }
  }

  /// Overwrite `replacement.size()` bytes of shard `s`'s file at `pos`,
  /// then repair the framing: the file's trailing checksum, its
  /// content-addressed name, and the manifest's checksum for the shard.
  static void RewriteShardFile(const std::string& dir, size_t s, size_t pos,
                               const std::string& replacement) {
    const std::vector<std::string> paths = ShardFilePaths(dir).ValueOrDie();
    std::string image = ReadFile(paths[s]);
    ASSERT_LE(pos + replacement.size(), image.size() - 8);
    image.replace(pos, replacement.size(), replacement);
    image.resize(image.size() - 8);
    BinaryWriter fixed;
    fixed.WriteBytes(image.data(), image.size());
    fixed.WriteU64(Fnv1a64(std::string_view(image)));
    const uint64_t checksum = Fnv1a64(fixed.buffer());
    ASSERT_EQ(std::remove(paths[s].c_str()), 0);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(checksum));
    WriteFile(dir + "/shard-" + std::to_string(s) + "-" + hex + ".grlm",
              fixed.buffer());

    // Manifest layout: magic 8, version u32, fingerprint (u64 length +
    // bytes), u64 shard count, then the checksum list.
    std::string manifest = ReadFile(ShardedManifestPath(dir));
    const size_t fingerprint_len = static_cast<size_t>(ReadU64At(manifest, 12));
    WriteU64At(&manifest, 28 + fingerprint_len + 8 * s, checksum);
    manifest.resize(manifest.size() - 8);
    BinaryWriter fixed_manifest;
    fixed_manifest.WriteBytes(manifest.data(), manifest.size());
    fixed_manifest.WriteU64(Fnv1a64(std::string_view(manifest)));
    WriteFile(ShardedManifestPath(dir), fixed_manifest.buffer());
  }
};

TEST_F(TombstoneShardedCheckpointTest, TombstonedFilesStampVersionTwo) {
  const std::string dir = TempDirFor("shard_tomb_version");
  SaveTombstonedFixture(dir);
  EXPECT_EQ(ReadFile(ShardedManifestPath(dir))[8], 2);
  std::vector<int32_t> all_tombstones;
  const std::vector<std::string> paths = ShardFilePaths(dir).ValueOrDie();
  for (const std::string& path : paths) {
    const std::string image = ReadFile(path);
    EXPECT_EQ(image[8], 2);
    size_t offset = 0;
    std::vector<int32_t> tombstones, owned;
    LocateTombstones(image, &offset, &tombstones, &owned);
    all_tombstones.insert(all_tombstones.end(), tombstones.begin(),
                          tombstones.end());
  }
  // Every removed id is tombstoned in exactly its owner shard's file.
  std::sort(all_tombstones.begin(), all_tombstones.end());
  EXPECT_EQ(all_tombstones, (std::vector<int32_t>{3, 14, 25, 36, 47}));

  JaccardMatcher matcher;
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_dead(), 5u);
  EXPECT_FALSE((*restored)->is_alive(25));
}

TEST_F(TombstoneShardedCheckpointTest, TombstoneBitFlipFailsCleanly) {
  const std::string dir = TempDirFor("shard_tomb_flip");
  SaveTombstonedFixture(dir);
  const std::string path = ShardFilePaths(dir).ValueOrDie()[0];
  const std::string image = ReadFile(path);
  size_t offset = 0;
  std::vector<int32_t> tombstones, owned;
  LocateTombstones(image, &offset, &tombstones, &owned);
  ASSERT_FALSE(tombstones.empty());
  // A raw flip inside the tombstone section (no framing repair) is caught
  // by the manifest's recorded checksum before the section is parsed.
  FlipByte(path, image.size() - 1 - (offset + 8));
  JaccardMatcher matcher;
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("does not match the manifest"),
            std::string::npos);
}

TEST_F(TombstoneShardedCheckpointTest,
       StructurallyInvalidTombstonesRejectedPastTheFraming) {
  JaccardMatcher matcher;

  // Duplicate id: copy the first tombstone over the second in a shard
  // whose file holds at least two.
  {
    const std::string dir = TempDirFor("shard_tomb_dup");
    SaveTombstonedFixture(dir);
    for (size_t s = 0; s < 2; ++s) {
      const std::string image =
          ReadFile(ShardFilePaths(dir).ValueOrDie()[s]);
      size_t offset = 0;
      std::vector<int32_t> tombstones, owned;
      LocateTombstones(image, &offset, &tombstones, &owned);
      if (tombstones.size() < 2) continue;
      RewriteShardFile(dir, s, offset + 8 + 4, EncodeI32(tombstones[0]));
      auto restored = LoadShardedCheckpoint(dir, matcher);
      ASSERT_FALSE(restored.ok());
      EXPECT_NE(restored.status().message().find("ascending"),
                std::string::npos);
      break;
    }
  }

  // A tombstone for a record the shard does not store.
  {
    const std::string dir = TempDirFor("shard_tomb_foreign");
    SaveTombstonedFixture(dir);
    const std::string image = ReadFile(ShardFilePaths(dir).ValueOrDie()[0]);
    size_t offset = 0;
    std::vector<int32_t> tombstones, owned;
    LocateTombstones(image, &offset, &tombstones, &owned);
    ASSERT_FALSE(tombstones.empty());
    int32_t foreign = 0;
    while (std::binary_search(owned.begin(), owned.end(), foreign)) ++foreign;
    RewriteShardFile(dir, 0, offset + 8, EncodeI32(foreign));
    auto restored = LoadShardedCheckpoint(dir, matcher);
    ASSERT_FALSE(restored.ok());
    EXPECT_NE(restored.status().message().find("does not store"),
              std::string::npos);
  }
}

TEST_F(TombstoneShardedCheckpointTest, SwappedScorePairRejected) {
  // The scores section follows the tombstones: u64 count, then per entry
  // i32 a, i32 b, f64. Swapping a and b of one entry (framing repaired)
  // must be rejected by the shared pair codec itself.
  JaccardMatcher matcher;
  const std::string dir = TempDirFor("shard_swapped_score");
  SaveTombstonedFixture(dir);
  const std::vector<std::string> paths = ShardFilePaths(dir).ValueOrDie();
  for (size_t s = 0; s < paths.size(); ++s) {
    const std::string image = ReadFile(paths[s]);
    size_t offset = 0;
    std::vector<int32_t> tombstones, owned;
    LocateTombstones(image, &offset, &tombstones, &owned);
    const size_t scores = offset + 8 + 4 * tombstones.size();
    if (ReadU64At(image, scores) == 0) continue;
    const size_t entry = scores + 8;
    const int32_t a = static_cast<int32_t>(
        static_cast<uint32_t>(ReadU64At(image, entry) & 0xffffffffu));
    const int32_t b = static_cast<int32_t>(
        static_cast<uint32_t>(ReadU64At(image, entry + 4) & 0xffffffffu));
    ASSERT_LT(a, b);
    RewriteShardFile(dir, s, entry, EncodeI32(b) + EncodeI32(a));
    auto restored = LoadShardedCheckpoint(dir, matcher);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kIoError);
    EXPECT_NE(restored.status().message().find("not canonical"),
              std::string::npos)
        << restored.status().ToString();
    return;
  }
  FAIL() << "no shard file holds a cached score";
}

TEST_F(TombstoneShardedCheckpointTest, MixedVersionShardFilesRejected) {
  // A version 1 shard file under a version 2 manifest is a stale file, not
  // a layout choice: rejected even with every checksum intact.
  const std::string dir = TempDirFor("shard_tomb_mixed");
  SaveTombstonedFixture(dir);
  RewriteShardFile(dir, 1, 8, std::string(1, '\x01'));
  JaccardMatcher matcher;
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("must share one version"),
            std::string::npos);
}

TEST_F(TombstoneShardedCheckpointTest,
       PreTombstoneCheckpointsStillLoadAndRoundTrip) {
  // A tombstone-free pipeline writes the version 1 layout byte for byte —
  // exactly what a pre-tombstone writer produced — and that checkpoint
  // must load, re-save identically, and accept removals afterwards.
  JaccardMatcher matcher;
  ShardedPipeline sharded(ShardConfig(2, 1, 0.25));
  const size_t half = records_->size() / 2;
  std::vector<Record> first(records_->begin(),
                            records_->begin() + static_cast<long>(half));
  ASSERT_TRUE(sharded.Ingest(first, matcher).ok());
  const std::string dir = TempDirFor("shard_tomb_v1");
  ASSERT_TRUE(SaveShardedCheckpoint(sharded, dir).ok());
  EXPECT_EQ(ReadFile(ShardedManifestPath(dir))[8], 1);
  const std::vector<std::string> paths = ShardFilePaths(dir).ValueOrDie();
  for (const std::string& path : paths) {
    EXPECT_EQ(ReadFile(path)[8], 1);
  }

  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_dead(), 0u);
  const std::string dir2 = TempDirFor("shard_tomb_v1_resave");
  ASSERT_TRUE(SaveShardedCheckpoint(**restored, dir2).ok());
  EXPECT_EQ(ReadFile(ShardedManifestPath(dir)),
            ReadFile(ShardedManifestPath(dir2)));

  ASSERT_TRUE((*restored)->Remove({7}, matcher).ok());
  const std::string dir3 = TempDirFor("shard_tomb_v1_upgraded");
  ASSERT_TRUE(SaveShardedCheckpoint(**restored, dir3).ok());
  EXPECT_EQ(ReadFile(ShardedManifestPath(dir3))[8], 2);
}

}  // namespace
}  // namespace gralmatch