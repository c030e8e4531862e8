// Test suite for the serving subsystem: durable checkpoints and concurrent
// epoch-snapshot serving.
//
// Checkpoints: Save -> Load -> Snapshot() must be bitwise-identical to the
// pre-save Snapshot() on both fixtures and across multi-batch schedules, and
// ingestion *after* a Load must still satisfy the stream_test
// batch-equivalence guarantee at 1/2/8 threads — a restored pipeline is
// indistinguishable from one that never restarted, down to the score cache
// (no pair is rescored after a reload). Corrupted inputs — truncated files,
// bad magic, future versions, bit flips, fingerprint mismatches — must fail
// with a clean Status, never crash (exercised under ASan in CI).
//
// Serving: MatchService publishes immutable epoch snapshots; a
// reader/ingester stress test (run under TSan in CI) checks every view is
// internally consistent and epochs are monotonic while ingestion races on.

#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blocking/id_overlap.h"
#include "common/binary_io.h"
#include "blocking/token_overlap.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "serve/checkpoint.h"
#include "serve/framing.h"
#include "serve/match_service.h"
#include "stream/incremental_pipeline.h"
#include "text/normalize.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// Matcher and fixtures (mirrors stream_test.cc so the equivalence contract
// under test is the same one)
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

IncrementalPipelineConfig ServeConfig(size_t num_threads) {
  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 6;
  config.pipeline.cleanup.mu = 3;
  config.pipeline.pre_cleanup_threshold = 9;
  config.pipeline.match_threshold = 0.25;
  config.pipeline.num_threads = num_threads;
  config.token.top_n = 5;
  return config;
}

std::vector<Record> FinancialRecords(size_t num_groups = 60) {
  SyntheticConfig config;
  config.seed = 505;
  config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();
  return bench.securities.records.records();
}

std::vector<Record> WdcRecords() {
  WdcConfig config;
  config.num_entities = 120;
  config.seed = 77;
  return WdcProductsGenerator(config).Generate().records.records();
}

/// Ingest `records` in `batches` equal batches.
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

/// From-scratch reference over the pipeline's current record set.
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

/// Full bitwise equality, wall-clock fields included: a reloaded pipeline
/// restores the accumulated seconds bit-for-bit.
void ExpectBitwiseIdentical(const PipelineResult& a, const PipelineResult& b,
                            const std::string& context) {
  EXPECT_EQ(a.predicted_pairs, b.predicted_pairs) << context;
  EXPECT_EQ(a.pre_cleanup_components, b.pre_cleanup_components) << context;
  EXPECT_EQ(a.groups, b.groups) << context;
  EXPECT_EQ(a.cleanup_stats.pre_cleanup_edges_removed,
            b.cleanup_stats.pre_cleanup_edges_removed)
      << context;
  EXPECT_EQ(a.cleanup_stats.min_cut_calls, b.cleanup_stats.min_cut_calls)
      << context;
  EXPECT_EQ(a.cleanup_stats.min_cut_edges_removed,
            b.cleanup_stats.min_cut_edges_removed)
      << context;
  EXPECT_EQ(a.cleanup_stats.betweenness_calls,
            b.cleanup_stats.betweenness_calls)
      << context;
  EXPECT_EQ(a.cleanup_stats.betweenness_edges_removed,
            b.cleanup_stats.betweenness_edges_removed)
      << context;
  EXPECT_EQ(a.cleanup_stats.seconds, b.cleanup_stats.seconds) << context;
  EXPECT_EQ(a.inference_seconds, b.inference_seconds) << context;
}

/// Counters only (the reference run's wall-clock legitimately differs).
void ExpectEquivalent(const PipelineResult& incremental,
                      const PipelineResult& reference,
                      const std::string& context) {
  EXPECT_EQ(incremental.predicted_pairs, reference.predicted_pairs) << context;
  EXPECT_EQ(incremental.pre_cleanup_components,
            reference.pre_cleanup_components)
      << context;
  EXPECT_EQ(incremental.groups, reference.groups) << context;
  EXPECT_EQ(incremental.cleanup_stats.pre_cleanup_edges_removed,
            reference.cleanup_stats.pre_cleanup_edges_removed)
      << context;
  EXPECT_EQ(incremental.cleanup_stats.min_cut_calls,
            reference.cleanup_stats.min_cut_calls)
      << context;
  EXPECT_EQ(incremental.cleanup_stats.min_cut_edges_removed,
            reference.cleanup_stats.min_cut_edges_removed)
      << context;
  EXPECT_EQ(incremental.cleanup_stats.betweenness_calls,
            reference.cleanup_stats.betweenness_calls)
      << context;
  EXPECT_EQ(incremental.cleanup_stats.betweenness_edges_removed,
            reference.cleanup_stats.betweenness_edges_removed)
      << context;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Checkpoint round trips
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RoundTripIsBitwiseIdenticalOnFinancialFixture) {
  const std::vector<Record> records = FinancialRecords();
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(ServeConfig(2));
  // Mid-stream and end-of-stream checkpoints both round-trip exactly.
  IngestAll(&pipeline, records, 0, records.size() / 2, 3, matcher);
  for (int phase = 0; phase < 2; ++phase) {
    const std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
    auto restored = ParseCheckpoint(image, matcher);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(), pipeline.Snapshot().ValueOrDie(),
                           "phase " + std::to_string(phase));
    EXPECT_EQ((*restored)->records().size(), pipeline.records().size());
    EXPECT_EQ((*restored)->total_matcher_calls(),
              pipeline.total_matcher_calls());
    EXPECT_EQ((*restored)->total_cache_hits(), pipeline.total_cache_hits());
    EXPECT_EQ((*restored)->fingerprint(), pipeline.fingerprint());
    if (phase == 0) {
      IngestAll(&pipeline, records, records.size() / 2, records.size(), 3,
                matcher);
    }
  }
}

TEST(CheckpointTest, RoundTripIsBitwiseIdenticalOnWdcFixture) {
  const std::vector<Record> records = WdcRecords();
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = ServeConfig(1);
  config.pipeline.match_threshold = 0.35;
  IncrementalPipeline pipeline(config);
  IngestAll(&pipeline, records, 0, records.size(), 5, matcher);
  auto restored = ParseCheckpoint(SerializeCheckpoint(pipeline).ValueOrDie(), matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(), pipeline.Snapshot().ValueOrDie(), "wdc");
}

TEST(CheckpointTest, SerializationIsDeterministic) {
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(ServeConfig(4));
  IngestAll(&pipeline, records, 0, records.size(), 4, matcher);
  const std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
  // Same pipeline, same bytes.
  EXPECT_EQ(SerializeCheckpoint(pipeline).ValueOrDie(), image);
  // Save -> Load -> Save reproduces the image byte for byte (the format has
  // no hash-map iteration order or other incidental state in it).
  auto restored = ParseCheckpoint(image, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SerializeCheckpoint(**restored).ValueOrDie(), image);
}

TEST(CheckpointTest, FileRoundTripViaSaveAndLoad) {
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(ServeConfig(1));
  IngestAll(&pipeline, records, 0, records.size(), 2, matcher);

  const std::string path = TempPath("serve_roundtrip.ckpt");
  ASSERT_TRUE(SaveCheckpoint(pipeline, path).ok());
  // The atomic-rename staging file must not linger.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  auto restored = LoadCheckpoint(path, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(), pipeline.Snapshot().ValueOrDie(), "file");
  std::remove(path.c_str());
}

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

TEST(CheckpointTest, PostLoadIngestionKeepsBatchEquivalenceAtEveryThreadCount) {
  const std::vector<Record> records = FinancialRecords();
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(ServeConfig(2));
  IngestAll(&pipeline, records, 0, records.size() / 2, 3, matcher);
  const std::string image = SerializeCheckpoint(pipeline).ValueOrDie();

  for (size_t threads : {1u, 2u, 8u}) {
    auto restored = ParseCheckpoint(image, matcher, /*num_threads_override=*/
                                    threads);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->config().pipeline.num_threads, threads);
    IngestAll(restored->get(), records, records.size() / 2, records.size(), 4,
              matcher);
    ExpectEquivalent(
        (*restored)->Snapshot().ValueOrDie(),
        RunBatchReference((*restored)->records(), (*restored)->config(),
                          matcher),
        "post-load ingest at threads=" + std::to_string(threads));
  }
}

TEST(CheckpointTest, PostLoadIngestionNeverRescoresCachedPairs) {
  // The matcher-call count of (ingest, reload, ingest) must equal that of
  // an uninterrupted run: the restored score cache serves every pair the
  // first half already scored.
  const std::vector<Record> records = FinancialRecords();
  JaccardMatcher matcher;

  IncrementalPipeline uninterrupted(ServeConfig(1));
  IngestAll(&uninterrupted, records, 0, records.size() / 2, 3, matcher);
  IngestAll(&uninterrupted, records, records.size() / 2, records.size(), 3,
            matcher);

  IncrementalPipeline first_half(ServeConfig(1));
  IngestAll(&first_half, records, 0, records.size() / 2, 3, matcher);
  auto restored = ParseCheckpoint(SerializeCheckpoint(first_half).ValueOrDie(), matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  IngestAll(restored->get(), records, records.size() / 2, records.size(), 3,
            matcher);

  EXPECT_EQ((*restored)->total_matcher_calls(),
            uninterrupted.total_matcher_calls());
  EXPECT_EQ((*restored)->total_cache_hits(), uninterrupted.total_cache_hits());
}

TEST(CheckpointTest, EmptyPipelineRoundTrips) {
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(ServeConfig(1));
  auto restored = ParseCheckpoint(SerializeCheckpoint(pipeline).ValueOrDie(), matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->records().size(), 0u);
  ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(), pipeline.Snapshot().ValueOrDie(),
                         "empty");
}

/// Same-schedule reports must agree field by field (wall clock excluded).
void ExpectSameReport(const IngestReport& a, const IngestReport& b,
                      const std::string& context) {
  EXPECT_EQ(a.records_added, b.records_added) << context;
  EXPECT_EQ(a.records_removed, b.records_removed) << context;
  EXPECT_EQ(a.candidates_added, b.candidates_added) << context;
  EXPECT_EQ(a.candidates_removed, b.candidates_removed) << context;
  EXPECT_EQ(a.pairs_scored, b.pairs_scored) << context;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << context;
  EXPECT_EQ(a.cache_evictions, b.cache_evictions) << context;
  EXPECT_EQ(a.components_rebuilt, b.components_rebuilt) << context;
  EXPECT_EQ(a.components_reused, b.components_reused) << context;
}

TEST(CheckpointTest, OneBlockerPipelinesRoundTrip) {
  // A disabled blocker's index never sees a record, so the image carries
  // it empty; the loader must accept that for either blocker.
  const std::vector<Record> records = FinancialRecords(40);
  const size_t half = records.size() / 2;
  const std::vector<Record> rest(records.begin() + static_cast<long>(half),
                                 records.end());
  JaccardMatcher matcher;
  for (const bool id_only : {true, false}) {
    const std::string context = id_only ? "id only" : "token only";
    IncrementalPipelineConfig config = ServeConfig(1);
    config.use_id_blocker = id_only;
    config.use_token_blocker = !id_only;
    IncrementalPipeline pipeline(config);
    IngestAll(&pipeline, records, 0, half, 2, matcher);
    ASSERT_TRUE(pipeline.Remove({3}, matcher).ok()) << context;
    const std::string image = SerializeCheckpoint(pipeline).ValueOrDie();

    auto restored = ParseCheckpoint(image, matcher);
    ASSERT_TRUE(restored.ok()) << context << ": "
                               << restored.status().ToString();
    ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(),
                           pipeline.Snapshot().ValueOrDie(), context);
    EXPECT_EQ(SerializeCheckpoint(**restored).ValueOrDie(), image) << context;

    auto expected = pipeline.Ingest(rest, matcher);
    auto actual = (*restored)->Ingest(rest, matcher);
    ASSERT_TRUE(expected.ok() && actual.ok()) << context;
    ExpectSameReport(*actual, *expected, context);
    ExpectEquivalent((*restored)->Snapshot().ValueOrDie(),
                     pipeline.Snapshot().ValueOrDie(), context);
  }
}

// ---------------------------------------------------------------------------
// Images written by an earlier build (tests/data/checkpoints/README.md)
// ---------------------------------------------------------------------------

/// From-scratch reference on the surviving records, remapped back to the
/// original ids (the compact -> original map is monotone, so every order
/// the batch pipeline guarantees survives the remap).
PipelineResult SurvivorReference(const IncrementalPipeline& pipeline,
                                 const PairwiseMatcher& matcher) {
  RecordTable survivors;
  std::vector<NodeId> original;
  for (size_t i = 0; i < pipeline.records().size(); ++i) {
    if (!pipeline.alive()[i]) continue;
    survivors.Add(pipeline.records().at(static_cast<RecordId>(i)));
    original.push_back(static_cast<NodeId>(i));
  }
  PipelineResult ref = RunBatchReference(survivors, pipeline.config(), matcher);
  for (RecordPair& pair : ref.predicted_pairs) {
    pair.a = static_cast<RecordId>(original[static_cast<size_t>(pair.a)]);
    pair.b = static_cast<RecordId>(original[static_cast<size_t>(pair.b)]);
  }
  for (auto* sets : {&ref.pre_cleanup_components, &ref.groups}) {
    for (std::vector<NodeId>& nodes : *sets) {
      for (NodeId& u : nodes) u = original[static_cast<size_t>(u)];
    }
  }
  return ref;
}

/// Load a checked-in image, check it against the from-scratch reference on
/// its survivors and the counters it was written with, and re-serialize it:
/// the writer must reproduce the file byte for byte.
void ExpectCheckedInImageLoads(const std::string& name, char version,
                               size_t num_dead, size_t matcher_calls) {
  auto image = ReadWholeFile(std::string(GRALMATCH_CHECKPOINT_FIXTURES) +
                             "/" + name);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ((*image)[8], version);
  JaccardMatcher matcher;
  auto loaded = ParseCheckpoint(*image, matcher);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const IncrementalPipeline& pipeline = **loaded;
  EXPECT_EQ(pipeline.num_dead(), num_dead);
  EXPECT_EQ(pipeline.total_matcher_calls(), matcher_calls);
  EXPECT_EQ(pipeline.total_cache_hits(), 0u);
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline, matcher), name);
  EXPECT_EQ(SerializeCheckpoint(pipeline).ValueOrDie(), *image) << name;
}

TEST(CheckpointTest, CheckedInVersionOneImageLoads) {
  ExpectCheckedInImageLoads("ingest_v1.grlm", 1, 0, 94);
}

TEST(CheckpointTest, CheckedInVersionTwoImageLoads) {
  ExpectCheckedInImageLoads("crud_v2.grlm", 2, 2, 95);
}

// ---------------------------------------------------------------------------
// Corruption and version handling (every case must fail cleanly, not crash;
// CI runs this suite under ASan+UBSan)
// ---------------------------------------------------------------------------

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::vector<Record> records = FinancialRecords(40);
    JaccardMatcher matcher;
    IncrementalPipeline pipeline(ServeConfig(1));
    IngestAll(&pipeline, records, 0, records.size(), 3, matcher);
    image_ = new std::string(SerializeCheckpoint(pipeline).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }

  static std::string* image_;
};

std::string* CheckpointCorruptionTest::image_ = nullptr;

TEST_F(CheckpointCorruptionTest, EmptyInputFailsCleanly) {
  JaccardMatcher matcher;
  auto result = ParseCheckpoint("", matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(CheckpointCorruptionTest, BadMagicRejected) {
  JaccardMatcher matcher;
  std::string image = *image_;
  image[0] ^= 0x5a;
  auto result = ParseCheckpoint(image, matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, TruncationAtAnyPrefixFailsCleanly) {
  JaccardMatcher matcher;
  // Dense sampling through the header, sparse through the body, and the
  // always-interesting last bytes.
  std::vector<size_t> lengths;
  for (size_t k = 0; k < 64 && k < image_->size(); ++k) lengths.push_back(k);
  for (size_t k = 64; k < image_->size(); k += image_->size() / 37 + 1) {
    lengths.push_back(k);
  }
  lengths.push_back(image_->size() - 1);
  for (size_t len : lengths) {
    auto result = ParseCheckpoint(image_->substr(0, len), matcher);
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
  }
}

TEST_F(CheckpointCorruptionTest, FutureVersionRejected) {
  JaccardMatcher matcher;
  std::string image = *image_;
  // Version lives at offset 8 (after the 8-byte magic), little-endian.
  image[8] = static_cast<char>(kCheckpointVersion + 1);
  image[9] = image[10] = image[11] = 0;
  auto result = ParseCheckpoint(image, matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("newer"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, FingerprintMismatchRejected) {
  // The matcher changed between save and load: the cached scores are not
  // its scores, so the checkpoint must be refused, not silently trusted.
  JaccardMatcher retrained(1.4);
  auto result = ParseCheckpoint(*image_, retrained);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("fingerprint"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, BodyBitFlipCaughtByChecksum) {
  JaccardMatcher matcher;
  for (double frac : {0.3, 0.6, 0.9}) {
    std::string image = *image_;
    const size_t pos = 64 + static_cast<size_t>(
                                static_cast<double>(image.size() - 72) * frac);
    image[pos] ^= 0x01;
    auto result = ParseCheckpoint(image, matcher);
    ASSERT_FALSE(result.ok()) << "flip at " << pos;
  }
}

TEST_F(CheckpointCorruptionTest, TrailingGarbageRejected) {
  // Appending bytes shifts the checksum-covered region, so the whole-image
  // checksum catches it.
  JaccardMatcher matcher;
  auto result = ParseCheckpoint(*image_ + "extra", matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(CheckpointCorruptionTest, HeaderFingerprintBitFlipIsCorruptionNotMismatch) {
  // A damaged fingerprint byte must be diagnosed as file corruption — not
  // as "the matcher changed", which would send the operator hunting for a
  // model that never existed. The fingerprint string starts at offset 20
  // (magic 8 + version 4 + u64 length prefix).
  JaccardMatcher matcher;
  std::string image = *image_;
  image[20] ^= 0x01;
  auto result = ParseCheckpoint(image, matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, MissingFileFailsCleanly) {
  JaccardMatcher matcher;
  auto result = LoadCheckpoint("/nonexistent/dir/pipeline.ckpt", matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Tombstone sections (format v2): corruption within the tombstone bytes must
// fail as a clean Status, and pre-tombstone (version 1) images must keep
// loading — a tombstone-free pipeline emits the version 1 layout
// byte-for-byte, so the fixture of the suite above doubles as genuine v1
// coverage; this suite pins the v2 side.
// ---------------------------------------------------------------------------

class TombstoneCheckpointCorruptionTest : public ::testing::Test {
 protected:
  // The removal set {11, 22, 33} makes the serialized tombstone section
  // start with a 16-byte sequence (u64 count 3, i32 ids 11, 22, 33) the
  // fixture asserts is unique in the image, so tests can corrupt tombstone
  // bytes specifically.
  static constexpr size_t kTombstonePatternLength = 20;

  static void SetUpTestSuite() {
    const std::vector<Record> records = FinancialRecords(40);
    JaccardMatcher matcher;
    IncrementalPipeline pipeline(ServeConfig(1));
    IngestAll(&pipeline, records, 0, records.size(), 3, matcher);
    pipeline.Remove({11, 22, 33}, matcher).ValueOrDie();
    image_ = new std::string(SerializeCheckpoint(pipeline).ValueOrDie());

    BinaryWriter pattern;
    pattern.WriteU64(3);
    pattern.WriteI32(11);
    pattern.WriteI32(22);
    pattern.WriteI32(33);
    const size_t first = image_->find(pattern.buffer());
    ASSERT_NE(first, std::string::npos);
    ASSERT_EQ(image_->find(pattern.buffer(), first + 1), std::string::npos)
        << "tombstone byte pattern is not unique; pick different ids";
    tombstone_offset_ = first;
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }

  /// Recompute the trailing whole-image checksum after a deliberate patch,
  /// so the corruption reaches the structural validators instead of being
  /// masked by the checksum check.
  static std::string WithFixedChecksum(std::string image) {
    image.resize(image.size() - 8);
    BinaryWriter fixed;
    fixed.WriteBytes(image.data(), image.size());
    fixed.WriteU64(Fnv1a64(std::string_view(image)));
    return fixed.buffer();
  }

  static std::string* image_;
  static size_t tombstone_offset_;
};

std::string* TombstoneCheckpointCorruptionTest::image_ = nullptr;
size_t TombstoneCheckpointCorruptionTest::tombstone_offset_ = 0;

TEST_F(TombstoneCheckpointCorruptionTest, TombstonedImagesStampVersionTwo) {
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>((*image_)[8])),
            kCheckpointVersion);
  JaccardMatcher matcher;
  auto restored = ParseCheckpoint(*image_, matcher).ValueOrDie();
  EXPECT_EQ(restored->num_dead(), 3u);
  EXPECT_FALSE(restored->is_alive(11));
  EXPECT_FALSE(restored->is_alive(22));
  EXPECT_FALSE(restored->is_alive(33));
  EXPECT_EQ(SerializeCheckpoint(*restored).ValueOrDie(), *image_);
}

TEST_F(TombstoneCheckpointCorruptionTest, TruncationAtAnyPrefixFailsCleanly) {
  JaccardMatcher matcher;
  std::vector<size_t> lengths;
  for (size_t k = 0; k < 64 && k < image_->size(); ++k) lengths.push_back(k);
  for (size_t k = 64; k < image_->size(); k += image_->size() / 37 + 1) {
    lengths.push_back(k);
  }
  // Cuts inside the tombstone section itself.
  for (size_t k = 0; k <= kTombstonePatternLength; k += 3) {
    lengths.push_back(tombstone_offset_ + k);
  }
  lengths.push_back(image_->size() - 1);
  for (size_t len : lengths) {
    auto result = ParseCheckpoint(image_->substr(0, len), matcher);
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
  }
}

TEST_F(TombstoneCheckpointCorruptionTest, TombstoneBitFlipCaughtByChecksum) {
  JaccardMatcher matcher;
  for (size_t k = 0; k < kTombstonePatternLength; k += 2) {
    std::string image = *image_;
    image[tombstone_offset_ + k] ^= 0x01;
    auto result = ParseCheckpoint(image, matcher);
    ASSERT_FALSE(result.ok()) << "flip at tombstone byte " << k;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
}

TEST_F(TombstoneCheckpointCorruptionTest,
       StructurallyInvalidTombstonesRejectedPastTheChecksum) {
  // With the checksum recomputed, the patch must be caught by the tombstone
  // section's own validation: ids strictly ascending and in range.
  JaccardMatcher matcher;

  std::string reordered = *image_;
  reordered[tombstone_offset_ + 12] = 11;  // second id 22 -> 11 (duplicate)
  auto result = ParseCheckpoint(WithFixedChecksum(reordered), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("ascending"), std::string::npos);

  std::string out_of_range = *image_;
  out_of_range[tombstone_offset_ + 16] = 0x7f;  // third id 33 -> huge
  out_of_range[tombstone_offset_ + 17] = 0x7f;
  result = ParseCheckpoint(WithFixedChecksum(out_of_range), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(TombstoneCheckpointCorruptionTest,
       PreTombstoneCheckpointsStillLoadAndRoundTrip) {
  // A tombstone-free pipeline serializes the version 1 layout byte for
  // byte — exactly what a pre-tombstone writer produced — and a v1 image
  // must load, round-trip, and accept removals (restamping v2) afterwards.
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(ServeConfig(1));
  IngestAll(&pipeline, records, 0, records.size(), 3, matcher);
  const std::string v1_image = SerializeCheckpoint(pipeline).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(v1_image[8])), 1u);

  auto restored = ParseCheckpoint(v1_image, matcher).ValueOrDie();
  EXPECT_EQ(restored->num_dead(), 0u);
  EXPECT_EQ(SerializeCheckpoint(*restored).ValueOrDie(), v1_image);

  ASSERT_TRUE(restored->Remove({0}, matcher).ok());
  const std::string v2_image = SerializeCheckpoint(*restored).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(v2_image[8])), 2u);
}

// ---------------------------------------------------------------------------
// Pair canonicality: every pair field decodes through one codec that
// requires a < b. The fixture is three security records sharing one
// identifier (a triangle component, ids 5-7) after five unrelated records.
// Pair (5, 7) is an ID-blocker candidate only, stored in exactly five pair
// fields — the ID index's refcounts, candidate provenance, the score
// cache, the positive set and the component's edge list — and its bytes
// occur nowhere else (the rewrite counts them). Rewriting all five
// consistently keeps every cross-field check satisfied; only the pair
// codec can tell the pair is not canonical.
// ---------------------------------------------------------------------------

class PairCanonicalityTest : public ::testing::Test {
 protected:
  static std::string TriangleImage() {
    auto security = [](SourceId source, const std::string& name,
                       const std::string& isin) {
      Record rec(source, RecordKind::kSecurity);
      rec.Set("name", name);
      rec.Set("isin", isin);
      return rec;
    };
    IncrementalPipeline pipeline(ServeConfig(1));
    JaccardMatcher matcher;
    const std::vector<std::string> unrelated = {
        "zeta mining", "omega foods", "delta shipping", "sigma textiles",
        "kappa energy"};
    std::vector<Record> batch;
    for (size_t k = 0; k < unrelated.size(); ++k) {
      batch.push_back(security(static_cast<SourceId>(k), unrelated[k],
                               "ZZ000000000" + std::to_string(k)));
    }
    batch.push_back(security(1, "acme holdings", "XS0000000001"));
    batch.push_back(security(2, "acme holdings group", "XS0000000001"));
    batch.push_back(security(3, "acme holdings group", "XS0000000001"));
    EXPECT_TRUE(pipeline.Ingest(batch, matcher).ok());
    const std::vector<RecordPair> expected = {{5, 6}, {5, 7}, {6, 7}};
    EXPECT_EQ(pipeline.Snapshot().ValueOrDie().predicted_pairs, expected);
    std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
    auto unchanged = ParseCheckpoint(image, matcher);
    EXPECT_TRUE(unchanged.ok()) << unchanged.status().ToString();
    return image;
  }

  static std::string EncodePair(int32_t a, int32_t b) {
    BinaryWriter writer;
    writer.WriteI32(a);
    writer.WriteI32(b);
    return writer.buffer();
  }

  /// Replace every stored (5, 7) with (a, b) and recompute the trailing
  /// checksum, so the rewrite reaches the body decoders.
  static std::string RewritePair57(int32_t a, int32_t b) {
    std::string image = TriangleImage();
    const std::string from = EncodePair(5, 7);
    const std::string to = EncodePair(a, b);
    size_t rewritten = 0;
    for (size_t pos = image.find(from); pos != std::string::npos;
         pos = image.find(from, pos + from.size())) {
      image.replace(pos, from.size(), to);
      ++rewritten;
    }
    EXPECT_EQ(rewritten, 5u) << "pair (5, 7) is no longer stored in exactly "
                                "the five pair fields";
    image.resize(image.size() - 8);
    BinaryWriter fixed;
    fixed.WriteBytes(image.data(), image.size());
    fixed.WriteU64(Fnv1a64(image));
    return fixed.buffer();
  }
};

TEST_F(PairCanonicalityTest, SwappedPairIsRejected) {
  JaccardMatcher matcher;
  auto result = ParseCheckpoint(RewritePair57(7, 5), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("not canonical"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(PairCanonicalityTest, SelfPairIsRejected) {
  JaccardMatcher matcher;
  auto result = ParseCheckpoint(RewritePair57(5, 5), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("not canonical"),
            std::string::npos)
      << result.status().ToString();
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
  IncrementalPipeline pipeline(ServeConfig(1));
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
  IncrementalPipeline pipeline(ServeConfig(1));

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
  IncrementalPipeline pipeline(ServeConfig(2));
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

}  // namespace
}  // namespace gralmatch
