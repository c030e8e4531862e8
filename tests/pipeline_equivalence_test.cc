// One equivalence harness for both pipelines and both checkpoint layouts.
//
// GraLMatch's group assignment must be a function of the surviving records
// alone: not of arrival order, not of the shard layout, not of a save and
// load in between. Every case below is written once against
// LayoutPipeline (test_support.h) and runs on a grid of instances:
//
//   layout   IncrementalPipeline (checkpoint: one GRLMCKPT image) or
//            ShardedPipeline with S in {1, 2, 4} (checkpoint: a manifest
//            directory of shard files)
//   fixture  financial securities or WDC product offers
//   threads  1, 2 or 8
//
// A registered test runs one case on one fixture over one slice of the
// layouts, every thread count included; the ctest names are the ones the
// per-pipeline suites used before they were merged here, and slices those
// suites never ran carry names in the same scheme. The schedule cases
// check each snapshot against a from-scratch batch run (on the survivors,
// after removals), and a sharded layout's reports against the engine's on
// the same schedule.
//
// The second half is the checkpoint corruption suite, parameterized over
// the layout (image, or a two-shard directory): every truncated,
// bit-flipped, version-mixed or structurally invalid checkpoint must fail
// to load with a clean Status (run under ASan+UBSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/score_batching.h"
#include "serve/checkpoint.h"
#include "serve/sharded_checkpoint.h"
#include "test_support.h"

namespace gralmatch {
namespace {

using testing_support::BatchingMatcher;
using testing_support::CheckpointFiles;
using testing_support::CountingMatcher;
using testing_support::DecodeI32;
using testing_support::DecodeU64;
using testing_support::EncodeI32;
using testing_support::EncodeU64;
using testing_support::EqualBatches;
using testing_support::ExpectEqualReports;
using testing_support::ExpectEquivalent;
using testing_support::FramingFile;
using testing_support::JaccardMatcher;
using testing_support::LayoutPipeline;
using testing_support::ReadFileBytes;
using testing_support::RewriteFramingFile;
using testing_support::RewriteStateFile;
using testing_support::RunBatchReference;
using testing_support::Slice;
using testing_support::StateFiles;
using testing_support::SurvivorReference;
using testing_support::ThrowingMatcher;
using testing_support::TightConfig;
using testing_support::WithFixedChecksum;
using testing_support::WriteFileBytes;

// ---------------------------------------------------------------------------
// The grid
// ---------------------------------------------------------------------------

enum class Fixture { kFinancial, kWdc };

/// One cell of the grid. `shards == 0` is the IncrementalPipeline.
struct Instance {
  size_t shards;
  Fixture fixture;
  size_t threads;
};

std::string Describe(const Instance& in) {
  return std::string(in.shards == 0 ? "incremental"
                                    : "S=" + std::to_string(in.shards)) +
         (in.fixture == Fixture::kFinancial ? " financial" : " wdc") +
         " threads=" + std::to_string(in.threads);
}

/// The schedule fixture: 60 security groups, or 120 product entities.
const std::vector<Record>& Records(Fixture fixture) {
  static const std::vector<Record> financial =
      testing_support::FinancialRecords(60);
  static const std::vector<Record> wdc = testing_support::WdcRecords(120);
  return fixture == Fixture::kFinancial ? financial : wdc;
}

/// The CRUD and checkpoint pool: 40 security groups, or 80 entities.
const std::vector<Record>& Pool(Fixture fixture) {
  static const std::vector<Record> financial =
      testing_support::FinancialRecords(40);
  static const std::vector<Record> wdc = testing_support::WdcRecords(80);
  return fixture == Fixture::kFinancial ? financial : wdc;
}

/// Replacement payloads from other entities (different blocking keys).
const std::vector<Record>& OtherPool(Fixture fixture) {
  static const std::vector<Record> financial =
      testing_support::FinancialRecords(12, 909);
  static const std::vector<Record> wdc = testing_support::WdcRecords(12, 909);
  return fixture == Fixture::kFinancial ? financial : wdc;
}

IncrementalPipelineConfig ConfigFor(const Instance& in) {
  return TightConfig(in.threads,
                     in.fixture == Fixture::kFinancial ? 0.25 : 0.35);
}

std::unique_ptr<LayoutPipeline> MakePipeline(const Instance& in,
                                             uint64_t router_seed = 17) {
  return std::make_unique<LayoutPipeline>(in.shards, ConfigFor(in),
                                          router_seed);
}

/// A checkpoint path private to this test and instance, removed (with
/// everything a save put there) when it goes out of scope.
class TempCheckpoint {
 public:
  TempCheckpoint(const Instance& in, const std::string& tag) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "equivalence_" + info->test_suite_name() +
            "_" + info->name() + "_" + std::to_string(in.shards) + "_" +
            std::to_string(static_cast<int>(in.fixture)) + "_" +
            std::to_string(in.threads) + "_" + tag;
    std::filesystem::remove_all(path_);
  }
  ~TempCheckpoint() { std::filesystem::remove_all(path_); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Save `pipeline` at `path` and load it back.
std::unique_ptr<LayoutPipeline> Reload(const LayoutPipeline& pipeline,
                                       const PairwiseMatcher& matcher,
                                       const std::string& path,
                                       size_t num_threads_override = 0) {
  const Status saved = pipeline.Save(path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  auto loaded = LayoutPipeline::Load(pipeline.shards(), path, matcher,
                                     num_threads_override);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? std::move(loaded).ValueOrDie() : nullptr;
}

/// Ingest records [begin, end) in `batches` equal batches.
void IngestBatches(LayoutPipeline* pipeline, const std::vector<Record>& records,
                   size_t begin, size_t end, size_t batches,
                   const PairwiseMatcher& matcher) {
  size_t offset = begin;
  for (size_t size : EqualBatches(end - begin, batches)) {
    ASSERT_TRUE(
        pipeline->Ingest(Slice(records, offset, offset + size), matcher).ok());
    offset += size;
  }
}

using CaseFn = void (*)(const Instance&);

/// Runs one case on every instance of its slice, each under a trace naming
/// the instance; a fatal failure stops the slice.
class PipelineEquivalence : public ::testing::Test {
 public:
  PipelineEquivalence(CaseFn run, std::vector<Instance> grid)
      : run_(run), grid_(std::move(grid)) {}

  void TestBody() override {
    for (const Instance& in : grid_) {
      SCOPED_TRACE(Describe(in));
      run_(in);
      if (HasFatalFailure()) return;
    }
  }

 private:
  CaseFn run_;
  std::vector<Instance> grid_;
};

const std::vector<size_t> kIncremental = {0};
const std::vector<size_t> kSharded = {1, 2, 4};
const std::vector<size_t> kEveryLayout = {0, 1, 2, 4};
const std::vector<size_t> kEveryThreadCount = {1, 2, 8};

/// Register `suite.name`: case `run` on `fixture` over `layouts` x
/// `threads`.
void Register(const char* suite, const char* name, CaseFn run,
              Fixture fixture, const std::vector<size_t>& layouts,
              const std::vector<size_t>& threads = kEveryThreadCount) {
  std::vector<Instance> grid;
  for (size_t shards : layouts) {
    for (size_t t : threads) grid.push_back({shards, fixture, t});
  }
  ::testing::RegisterTest(
      suite, name, nullptr, nullptr, __FILE__, __LINE__,
      [run, grid]() -> PipelineEquivalence* {
        return new PipelineEquivalence(run, grid);
      });
}

// ---------------------------------------------------------------------------
// Schedule differentials
// ---------------------------------------------------------------------------

/// Ingest `records` in batches of the given sizes. Every `check_every`-th
/// snapshot (and the last) must equal the from-scratch reference; on a
/// sharded layout every report, and those snapshots, must also equal an
/// IncrementalPipeline's on the same schedule.
void RunSchedule(const Instance& in, const std::vector<Record>& records,
                 const std::vector<size_t>& batch_sizes,
                 const PairwiseMatcher& matcher, size_t check_every = 1) {
  auto pipeline = MakePipeline(in);
  std::unique_ptr<IncrementalPipeline> engine;
  if (in.shards > 0) {
    engine = std::make_unique<IncrementalPipeline>(ConfigFor(in));
  }
  size_t offset = 0;
  for (size_t b = 0; b < batch_sizes.size(); ++b) {
    const std::vector<Record> batch =
        Slice(records, offset, offset + batch_sizes[b]);
    offset += batch_sizes[b];
    const std::string context = "after batch " + std::to_string(b + 1) + "/" +
                                std::to_string(batch_sizes.size());
    Result<IngestReport> report = pipeline->Ingest(batch, matcher);
    ASSERT_TRUE(report.ok()) << context;
    if (engine != nullptr) {
      Result<IngestReport> expected = engine->Ingest(batch, matcher);
      ASSERT_TRUE(expected.ok()) << context;
      ExpectEqualReports(*report, *expected, context);
    }
    if (b + 1 != batch_sizes.size() && (b + 1) % check_every != 0) continue;
    const PipelineResult snapshot = pipeline->Snapshot().ValueOrDie();
    if (engine != nullptr) {
      ExpectEquivalent(snapshot, engine->Snapshot().ValueOrDie(),
                       context + " vs incremental");
    }
    ExpectEquivalent(snapshot,
                     RunBatchReference(pipeline->records(), pipeline->config(),
                                       matcher),
                     context + " vs batch reference");
  }
  ASSERT_EQ(offset, records.size());
  if (engine != nullptr) {
    EXPECT_EQ(pipeline->total_matcher_calls(), engine->total_matcher_calls());
    EXPECT_EQ(pipeline->total_cache_hits(), engine->total_cache_hits());
  }
}

void SingleBatch(const Instance& in) {
  const std::vector<Record>& records = Records(in.fixture);
  RunSchedule(in, records, {records.size()}, JaccardMatcher());
}

void KBatches(const Instance& in) {
  const std::vector<Record>& records = Records(in.fixture);
  RunSchedule(in, records,
              EqualBatches(records.size(),
                           in.fixture == Fixture::kFinancial ? 6 : 5),
              JaccardMatcher());
}

void SingletonBatches(const Instance& in) {
  // Every record its own batch: the maximal-churn schedule (document
  // frequencies, the max-df cap and bucket sizes shift on every ingest).
  const std::vector<Record>& records = Pool(in.fixture);
  RunSchedule(in, records, std::vector<size_t>(records.size(), 1),
              JaccardMatcher(), /*check_every=*/40);
}

void RandomizedSchedules(const Instance& in) {
  const std::vector<Record>& records = Records(in.fixture);
  Rng rng(in.fixture == Fixture::kFinancial ? 2026 : 7);
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> sizes;
    for (size_t remaining = records.size(); remaining > 0;) {
      const size_t size = 1 + rng.Uniform(std::min<size_t>(remaining, 90));
      sizes.push_back(size);
      remaining -= size;
    }
    RunSchedule(in, records, sizes, JaccardMatcher(), /*check_every=*/2);
  }
}

void InterleavedSourceArrival(const Instance& in) {
  // Sources drip-feed round-robin (vendor A's file, then vendor B's, ...):
  // the union is a reordering of the fixture, and equivalence must hold for
  // that arrival order too.
  const std::vector<Record>& records = Records(in.fixture);
  std::vector<std::vector<size_t>> by_source;
  for (size_t i = 0; i < records.size(); ++i) {
    const size_t source = static_cast<size_t>(records[i].source());
    if (by_source.size() <= source) by_source.resize(source + 1);
    by_source[source].push_back(i);
  }
  std::vector<Record> interleaved;
  for (size_t k = 0; interleaved.size() < records.size(); ++k) {
    for (const std::vector<size_t>& ids : by_source) {
      if (k < ids.size()) interleaved.push_back(records[ids[k]]);
    }
  }
  RunSchedule(in, interleaved, EqualBatches(interleaved.size(), 5),
              JaccardMatcher());
}

void BatchedScoring(const Instance& in) {
  // A ScoreBatch-overriding matcher: every score goes through a batch of at
  // most kScoreBatchSize pairs, and the result equals the reference scored
  // pair by pair.
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher inner;
  BatchingMatcher batching(&inner);
  auto pipeline = MakePipeline(in);
  IngestBatches(pipeline.get(), records, 0, records.size(), 4, batching);
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   RunBatchReference(pipeline->records(), ConfigFor(in), inner),
                   "batched");
  EXPECT_EQ(batching.single_calls(), 0u);
  EXPECT_EQ(batching.batched_pairs(), pipeline->total_matcher_calls());
  EXPECT_LE(batching.max_batch(), kScoreBatchSize);
}

void ScoreBatchCallAccounting(const Instance& in) {
  // Serial scoring (one thread) cuts each wave into ceil(n/kScoreBatchSize)
  // ScoreBatch calls: far fewer calls than pairs.
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher inner;
  BatchingMatcher batching(&inner);
  auto pipeline = MakePipeline(in);
  size_t expected_calls = 0;
  size_t offset = 0;
  for (size_t size : EqualBatches(records.size(), 5)) {
    const size_t pairs_before = batching.batched_pairs();
    const IngestReport report =
        pipeline->Ingest(Slice(records, offset, offset + size), batching)
            .ValueOrDie();
    offset += size;
    EXPECT_EQ(batching.batched_pairs() - pairs_before, report.pairs_scored);
    expected_calls +=
        (report.pairs_scored + kScoreBatchSize - 1) / kScoreBatchSize;
  }
  EXPECT_EQ(batching.batch_calls(), expected_calls);
  EXPECT_GT(batching.batched_pairs(), batching.batch_calls());
  EXPECT_EQ(batching.batched_pairs(), pipeline->total_matcher_calls());
}

void FingerprintSwap(const Instance& in) {
  // Swapping the matcher (empty batch) rescores every current candidate, and
  // the snapshot tracks the new matcher's from-scratch result.
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher matcher_v1(1.0);
  JaccardMatcher matcher_v2(1.4);
  ASSERT_NE(matcher_v1.Fingerprint(), matcher_v2.Fingerprint());
  auto pipeline = MakePipeline(in);
  const size_t half = records.size() / 2;
  ASSERT_TRUE(pipeline->Ingest(Slice(records, 0, half), matcher_v1).ok());
  EXPECT_GT(pipeline->total_matcher_calls(), 0u);

  const IngestReport swap = pipeline->Ingest({}, matcher_v2).ValueOrDie();
  EXPECT_EQ(swap.records_added, 0u);
  EXPECT_GT(swap.pairs_scored, 0u);
  ExpectEquivalent(
      pipeline->Snapshot().ValueOrDie(),
      RunBatchReference(pipeline->records(), ConfigFor(in), matcher_v2),
      "after matcher swap");
  ASSERT_TRUE(
      pipeline->Ingest(Slice(records, half, records.size()), matcher_v2).ok());
  ExpectEquivalent(
      pipeline->Snapshot().ValueOrDie(),
      RunBatchReference(pipeline->records(), ConfigFor(in), matcher_v2),
      "after matcher swap + second half");
}

void ScoreCache(const Instance& in) {
  // No pair is ever scored twice per fingerprint — pipeline-wide on every
  // layout, since pair ownership is stable.
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher inner;
  CountingMatcher counting(&inner);
  auto pipeline = MakePipeline(in);
  IngestBatches(pipeline.get(), records, 0, records.size(), 8, counting);
  EXPECT_GT(counting.calls(), 0u);
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
  EXPECT_EQ(counting.calls(), pipeline->total_matcher_calls());
  const PipelineResult result = pipeline->Snapshot().ValueOrDie();
  EXPECT_GT(result.predicted_pairs.size(), 0u);
  EXPECT_GT(result.groups.size(), 0u);
  if (pipeline->sharded() != nullptr) {
    // Every shard owns some of the feed.
    for (size_t s = 0; s < pipeline->shards(); ++s) {
      EXPECT_GT(pipeline->sharded()->ShardRecordCount(s), 0u) << "shard " << s;
    }
  }
}

void EmptyBatch(const Instance& in) {
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(records, matcher).ok());
  const PipelineResult before = pipeline->Snapshot().ValueOrDie();
  const size_t calls = pipeline->total_matcher_calls();

  const IngestReport report = pipeline->Ingest({}, matcher).ValueOrDie();
  EXPECT_EQ(report.records_added, 0u);
  EXPECT_EQ(report.pairs_scored, 0u);
  EXPECT_EQ(report.candidates_added, 0u);
  EXPECT_EQ(report.candidates_removed, 0u);
  EXPECT_EQ(report.components_rebuilt, 0u);
  EXPECT_EQ(pipeline->total_matcher_calls(), calls);
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(), before,
                   "after empty batch");
}

void ReportsObserveScoping(const Instance& in) {
  // Later batches splice untouched components through unchanged — the
  // point of dirty-component scoping.
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  size_t reused_total = 0;
  size_t offset = 0;
  for (size_t size : EqualBatches(records.size(), 6)) {
    const IngestReport report =
        pipeline->Ingest(Slice(records, offset, offset + size), matcher)
            .ValueOrDie();
    offset += size;
    EXPECT_EQ(report.records_added, size);
    reused_total += report.components_reused;
  }
  EXPECT_GT(reused_total, 0u);
}

// ---------------------------------------------------------------------------
// Poisoned-pipeline fail-fast
// ---------------------------------------------------------------------------

/// The error every call returns once a mutation aborted as `verb_phrase`.
std::string PoisonMessage(const std::string& verb_phrase) {
  return "incremental pipeline is poisoned (" + verb_phrase +
         " aborted mid-way: scorer backend unavailable); its state is "
         "inconsistent — discard this instance and restore from a checkpoint";
}

/// `aborted` (a mutation whose matcher threw) and every later
/// state-observing call fail with the poison error, and the poisoned
/// pipeline never becomes a checkpoint.
void ExpectPoisoned(const Instance& in, LayoutPipeline* pipeline,
                    const Result<IngestReport>& aborted,
                    const std::string& verb_phrase,
                    const PairwiseMatcher& matcher) {
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kInternal);
  EXPECT_EQ(aborted.status().message(), PoisonMessage(verb_phrase));
  EXPECT_EQ(pipeline->status().message(), PoisonMessage(verb_phrase));
  const Result<IngestReport> again = pipeline->Ingest({}, matcher);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), PoisonMessage(verb_phrase));
  const Result<PipelineResult> snapshot = pipeline->Snapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(snapshot.status().message().find("poisoned"), std::string::npos);
  TempCheckpoint checkpoint(in, "poisoned");
  const Status saved = pipeline->Save(checkpoint.path());
  ASSERT_FALSE(saved.ok());
  EXPECT_NE(saved.message().find("poisoned"), std::string::npos);
}

void PoisonedByIngest(const Instance& in) {
  // A healthy ingest, then one whose matcher dies mid-scoring: records and
  // blocking indexes are already updated when the throw happens, so the
  // pipeline is poisoned rather than pretending the ingest succeeded.
  const std::vector<Record>& records = Records(in.fixture);
  ThrowingMatcher matcher;
  auto pipeline = MakePipeline(in);
  const size_t half = records.size() / 2;
  ASSERT_TRUE(pipeline->Ingest(Slice(records, 0, half), matcher).ok());
  ASSERT_TRUE(pipeline->status().ok());
  matcher.ArmAfter(3);
  ExpectPoisoned(in, pipeline.get(),
                 pipeline->Ingest(Slice(records, half, records.size()),
                                  matcher),
                 "an ingest", matcher);
}

void PoisonedByFirstIngest(const Instance& in) {
  ThrowingMatcher matcher;
  matcher.ArmAfter(0);
  auto pipeline = MakePipeline(in);
  ExpectPoisoned(in, pipeline.get(),
                 pipeline->Ingest(Records(in.fixture), matcher), "an ingest",
                 matcher);
}

void PoisonedByRemove(const Instance& in) {
  // A removal under a new fingerprint rescores every surviving candidate,
  // so the scorer dies inside Remove.
  const std::vector<Record>& records = Pool(in.fixture);
  ThrowingMatcher healthy("throwing#1");
  ThrowingMatcher dying("throwing#2");
  dying.ArmAfter(0);
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(records, healthy).ok());
  ExpectPoisoned(in, pipeline.get(), pipeline->Remove({1, 2, 3}, dying),
                 "a removal", dying);
}

void PoisonedByUpdate(const Instance& in) {
  // One end of a predicted pair rewritten with its own payload: the
  // replacement (a new id) pairs with the other end again, a pair never
  // scored before.
  const std::vector<Record>& records = Pool(in.fixture);
  ThrowingMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(records, matcher).ok());
  const PipelineResult result = pipeline->Snapshot().ValueOrDie();
  ASSERT_FALSE(result.predicted_pairs.empty());
  matcher.ArmAfter(0);
  std::vector<RecordUpdate> update(1);
  update[0].id = result.predicted_pairs[0].a;
  update[0].record = records[static_cast<size_t>(update[0].id)];
  ExpectPoisoned(in, pipeline.get(), pipeline->Update(update, matcher),
                 "an update", matcher);
}

// ---------------------------------------------------------------------------
// CRUD schedules
// ---------------------------------------------------------------------------

/// One mutation round. Ids are concrete: the generator simulates id
/// assignment (contiguous, never recycled), so one schedule replays
/// identically on every layout.
struct CrudOp {
  std::vector<Record> adds;
  std::vector<RecordId> removals;
  std::vector<RecordUpdate> updates;
};

struct CrudSchedule {
  std::vector<Record> initial;
  std::vector<CrudOp> ops;
  /// Liveness after the whole schedule; the runner asserts the pipeline
  /// agrees.
  std::vector<char> final_alive;
};

/// An initial ingest of 60% of `pool`, then `num_ops` rounds of adds (from
/// the pool's reserve), removals of random live ids, or updates of random
/// live ids — half the update payloads from the reserve (entirely new
/// blocking keys), half the current payload with a name token appended.
CrudSchedule MakeSchedule(const std::vector<Record>& pool, uint64_t seed,
                          size_t num_ops) {
  Rng rng(seed);
  CrudSchedule schedule;
  const size_t n0 = (pool.size() * 3) / 5;
  schedule.initial = Slice(pool, 0, n0);
  size_t reserve_next = n0;

  // Mirror of the pipeline's state: payload per id, live id list.
  std::vector<Record> payload(schedule.initial);
  std::vector<RecordId> live;
  for (size_t i = 0; i < n0; ++i) live.push_back(static_cast<RecordId>(i));
  std::vector<char> alive(n0, 1);

  auto kill = [&](size_t live_index) {
    const RecordId id = live[live_index];
    alive[static_cast<size_t>(id)] = 0;
    live[live_index] = live.back();
    live.pop_back();
    return id;
  };

  for (size_t k = 0; k < num_ops; ++k) {
    CrudOp op;
    const size_t count = 1 + rng.Uniform(4);
    size_t kind = rng.Uniform(3);
    if (live.empty()) kind = 0;                        // nothing to mutate
    if (kind != 1 && reserve_next >= pool.size()) kind = 1;  // reserve dry
    if (kind == 0) {
      for (size_t i = 0; i < count && reserve_next < pool.size(); ++i) {
        live.push_back(static_cast<RecordId>(payload.size()));
        op.adds.push_back(pool[reserve_next]);
        payload.push_back(pool[reserve_next++]);
        alive.push_back(1);
      }
    } else if (kind == 1) {
      for (size_t i = 0; i < count && !live.empty(); ++i) {
        op.removals.push_back(kill(rng.Uniform(live.size())));
      }
    } else {
      // One Update batch operates on the pre-batch state: the replacement
      // records become targetable only after the round.
      std::vector<RecordId> born;
      for (size_t i = 0; i < count && !live.empty(); ++i) {
        RecordUpdate update;
        update.id = kill(rng.Uniform(live.size()));
        if (rng.Uniform(2) == 0 && reserve_next < pool.size()) {
          update.record = pool[reserve_next++];
        } else {
          update.record = payload[static_cast<size_t>(update.id)];
          update.record.Set(
              "name", std::string(update.record.Get("name")) + " revised");
        }
        born.push_back(static_cast<RecordId>(payload.size()));
        payload.push_back(update.record);
        alive.push_back(1);
        op.updates.push_back(std::move(update));
      }
      live.insert(live.end(), born.begin(), born.end());
    }
    schedule.ops.push_back(std::move(op));
  }
  schedule.final_alive = std::move(alive);
  return schedule;
}

/// Apply one schedule round (removals, then adds, then updates), calling
/// `step` with each mutation's label and result.
void ApplyOp(
    LayoutPipeline* pipeline, const CrudOp& op, const PairwiseMatcher& matcher,
    const std::function<void(const std::string&, Result<IngestReport>)>& step) {
  if (!op.removals.empty()) {
    step("remove", pipeline->Remove(op.removals, matcher));
  }
  if (!op.adds.empty()) step("add", pipeline->Ingest(op.adds, matcher));
  if (!op.updates.empty()) {
    step("update", pipeline->Update(op.updates, matcher));
  }
}

/// Replay `schedule` and check the final snapshot (and every
/// `check_every`-th round's) against the survivor reference.
void RunCrudSchedule(LayoutPipeline* pipeline, const CrudSchedule& schedule,
                     const PairwiseMatcher& matcher, const std::string& context,
                     size_t check_every = 0) {
  ASSERT_TRUE(pipeline->Ingest(schedule.initial, matcher).ok()) << context;
  for (size_t k = 0; k < schedule.ops.size(); ++k) {
    const std::string round = context + " op " + std::to_string(k + 1);
    ApplyOp(pipeline, schedule.ops[k], matcher,
            [&](const std::string& what, Result<IngestReport> result) {
              EXPECT_TRUE(result.ok()) << round << " " << what << ": "
                                       << result.status().ToString();
            });
    if (check_every != 0 && (k + 1) % check_every == 0) {
      ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                       SurvivorReference(pipeline->records(), pipeline->alive(),
                                         pipeline->config(), matcher),
                       round);
    }
  }
  ASSERT_EQ(pipeline->alive(), schedule.final_alive) << context;
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     pipeline->config(), matcher),
                   context + " (final)");
}

void CrudFuzz(const Instance& in) {
  // Nine seeded schedules per instance: 216 over the whole grid.
  JaccardMatcher matcher;
  const uint64_t base = 1000 * (1 + static_cast<uint64_t>(in.fixture)) +
                        100 * in.shards + 10 * in.threads;
  for (uint64_t seed = base; seed < base + 9; ++seed) {
    auto pipeline = MakePipeline(in, /*router_seed=*/seed);
    RunCrudSchedule(pipeline.get(), MakeSchedule(Pool(in.fixture), seed, 8),
                    matcher, "seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void MidScheduleChecks(const Instance& in) {
  // A handful of schedules checked after every round, not just at the end.
  JaccardMatcher matcher;
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto pipeline = MakePipeline(in);
    RunCrudSchedule(pipeline.get(), MakeSchedule(Pool(in.fixture), seed, 6),
                    matcher, "seed=" + std::to_string(seed),
                    /*check_every=*/1);
  }
}

void ChurnReportsMatchTheEngine(const Instance& in) {
  // Field for field, removal and eviction counters included.
  JaccardMatcher matcher;
  const CrudSchedule schedule = MakeSchedule(Pool(in.fixture), 404, 12);
  auto pipeline = MakePipeline(in);
  LayoutPipeline engine(0, ConfigFor(in));
  ExpectEqualReports(pipeline->Ingest(schedule.initial, matcher).ValueOrDie(),
                     engine.Ingest(schedule.initial, matcher).ValueOrDie(),
                     "initial");
  std::vector<IngestReport> expected;
  for (const CrudOp& op : schedule.ops) {
    ApplyOp(&engine, op, matcher,
            [&](const std::string&, Result<IngestReport> result) {
              expected.push_back(result.ValueOrDie());
            });
  }
  size_t evictions = 0;
  size_t step = 0;
  for (size_t k = 0; k < schedule.ops.size(); ++k) {
    ApplyOp(pipeline.get(), schedule.ops[k], matcher,
            [&](const std::string& what, Result<IngestReport> result) {
              ASSERT_LT(step, expected.size());
              ExpectEqualReports(result.ValueOrDie(), expected[step],
                                 "op " + std::to_string(k) + " " + what);
              evictions += expected[step++].cache_evictions;
            });
  }
  EXPECT_EQ(step, expected.size());
  EXPECT_GT(evictions, 0u);
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   engine.Snapshot().ValueOrDie(), "final snapshots");
}

void RemoveSubset(const Instance& in) {
  // Every 4th record dies, in three waves.
  const std::vector<Record>& pool = Pool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, matcher).ok());
  std::vector<RecordId> doomed;
  for (size_t i = 0; i < pool.size(); i += 4) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  const size_t third = doomed.size() / 3;
  for (size_t wave = 0; wave < 3; ++wave) {
    const size_t begin = wave * third;
    const size_t end = wave == 2 ? doomed.size() : begin + third;
    const std::vector<RecordId> ids(doomed.begin() + static_cast<long>(begin),
                                    doomed.begin() + static_cast<long>(end));
    const IngestReport report = pipeline->Remove(ids, matcher).ValueOrDie();
    EXPECT_EQ(report.records_removed, ids.size());
    EXPECT_EQ(report.records_added, 0u);
    ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                     SurvivorReference(pipeline->records(), pipeline->alive(),
                                       pipeline->config(), matcher),
                     "wave " + std::to_string(wave));
  }
  EXPECT_EQ(pipeline->num_dead(), doomed.size());
  EXPECT_EQ(pipeline->num_live() + pipeline->num_dead(),
            pipeline->records().size());
}

void UpdateChangingBlockingKeys(const Instance& in) {
  // New payloads from other entities: the old blocking keys retract and the
  // new ones admit, moving each record exactly as a from-scratch run would.
  const std::vector<Record>& pool = Pool(in.fixture);
  const std::vector<Record>& other = OtherPool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, matcher).ok());
  std::vector<RecordUpdate> batch;
  std::set<RecordId> ids;  // ids inside one Update must be unique
  for (size_t k = 0; k < 12 && k < other.size(); ++k) {
    RecordUpdate update;
    update.id = static_cast<RecordId>(k * 7 % pool.size());
    update.record = other[k];
    if (ids.insert(update.id).second) batch.push_back(std::move(update));
  }
  const IngestReport report = pipeline->Update(batch, matcher).ValueOrDie();
  EXPECT_EQ(report.records_removed, batch.size());
  EXPECT_EQ(report.records_added, batch.size());
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     pipeline->config(), matcher),
                   "after update");
}

void DeleteThenReadd(const Instance& in) {
  // Deleting the TAIL and re-adding the same payloads in the same order
  // restores the same groups (under new ids; identity via "_uid"). Blocking
  // is a function of the record sequence, so scattered deletions re-added
  // at the end form a different sequence: that half only checks
  // equivalence to the from-scratch run on the new survivors.
  const std::vector<Record>& pool = Pool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, matcher).ok());
  auto uid_groups = [&](const PipelineResult& result) {
    std::set<std::vector<std::string>> groups;
    for (const std::vector<NodeId>& group : result.groups) {
      std::vector<std::string> uids;
      for (NodeId u : group) {
        uids.emplace_back(
            pipeline->records().at(static_cast<RecordId>(u)).Get("_uid"));
      }
      std::sort(uids.begin(), uids.end());
      groups.insert(std::move(uids));
    }
    return groups;
  };
  const auto before = uid_groups(pipeline->Snapshot().ValueOrDie());

  const size_t cut = (pool.size() * 4) / 5;
  std::vector<RecordId> doomed;
  for (size_t i = cut; i < pool.size(); ++i) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline->Remove(doomed, matcher).ok());
  ASSERT_TRUE(pipeline->Ingest(Slice(pool, cut, pool.size()), matcher).ok());
  EXPECT_EQ(uid_groups(pipeline->Snapshot().ValueOrDie()), before);

  std::vector<RecordId> scattered;
  std::vector<Record> payloads;
  for (size_t i = 3; i < cut; i += 5) {
    scattered.push_back(static_cast<RecordId>(i));
    payloads.push_back(pool[i]);
  }
  ASSERT_TRUE(pipeline->Remove(scattered, matcher).ok());
  ASSERT_TRUE(pipeline->Ingest(payloads, matcher).ok());
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     pipeline->config(), matcher),
                   "delete-then-readd");
}

void DeleteEverything(const Instance& in) {
  // Two waves remove every record: the snapshot becomes empty. A rebuild
  // from the same payloads is equivalent again.
  const std::vector<Record>& pool = Pool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, matcher).ok());
  std::vector<RecordId> first_half, second_half;
  for (size_t i = 0; i < pool.size(); ++i) {
    (i < pool.size() / 2 ? first_half : second_half)
        .push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline->Remove(first_half, matcher).ok());
  ASSERT_TRUE(pipeline->Remove(second_half, matcher).ok());
  const PipelineResult empty = pipeline->Snapshot().ValueOrDie();
  EXPECT_TRUE(empty.predicted_pairs.empty());
  EXPECT_TRUE(empty.pre_cleanup_components.empty());
  EXPECT_TRUE(empty.groups.empty());
  EXPECT_EQ(pipeline->num_live(), 0u);

  ASSERT_TRUE(pipeline->Ingest(pool, matcher).ok());
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     pipeline->config(), matcher),
                   "rebuild after delete-everything");
}

void DeletionNeverRescores(const Instance& in) {
  // The cache is keyed by record id and ids never recycle, so under one
  // fingerprint no id pair is scored twice however records come and go
  // ("_uid" stamps are unique per record instance; re-adds get fresh ones).
  const std::vector<Record>& pool = Pool(in.fixture);
  JaccardMatcher inner;
  CountingMatcher counting(&inner);
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, counting).ok());
  const size_t calls_after_ingest = counting.calls();
  ASSERT_GT(calls_after_ingest, 0u);

  // A removal spends calls only on pairs retraction newly admits (a bucket
  // dropping back under its cap exposes never-scored survivor pairs).
  std::vector<RecordId> doomed;
  std::vector<Record> readd;
  for (size_t i = 0; i < pool.size(); i += 6) {
    doomed.push_back(static_cast<RecordId>(i));
    Record rec = pool[i];
    rec.Set("_uid", std::to_string(10000 + i));
    readd.push_back(std::move(rec));
  }
  const IngestReport report = pipeline->Remove(doomed, counting).ValueOrDie();
  EXPECT_EQ(counting.calls() - calls_after_ingest, report.pairs_scored);
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
  EXPECT_GT(report.cache_evictions, 0u);

  ASSERT_TRUE(pipeline->Ingest(readd, counting).ok());
  std::vector<RecordId> more;
  for (size_t i = 1; i < pool.size(); i += 9) {
    more.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline->Remove(more, counting).ok());
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
}

void InvalidRemovals(const Instance& in) {
  // Out of range, negative, duplicate and double-delete ids are each an
  // InvalidArgument that mutates (and routes) nothing and poisons nothing.
  const std::vector<Record>& pool = Pool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, matcher).ok());
  const RecordId n = static_cast<RecordId>(pool.size());
  for (const std::vector<RecordId>& bad :
       {std::vector<RecordId>{n}, std::vector<RecordId>{-1},
        std::vector<RecordId>{0, 1, 0}}) {
    const Result<IngestReport> result = pipeline->Remove(bad, matcher);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(pipeline->status().ok());
  }
  ASSERT_TRUE(pipeline->Remove({2}, matcher).ok());
  const PipelineResult before = pipeline->Snapshot().ValueOrDie();
  const Result<IngestReport> twice = pipeline->Remove({2}, matcher);
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(twice.status().message().find("tombstoned"), std::string::npos);

  // An Update validates its ids the same way before changing anything —
  // including a batch whose first id is fine and whose second is dead.
  RecordUpdate ok_update;
  ok_update.id = 4;
  ok_update.record = pool[5];
  RecordUpdate dead_update;
  dead_update.id = 2;
  dead_update.record = pool[6];
  const Result<IngestReport> mixed =
      pipeline->Update({ok_update, dead_update}, matcher);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(pipeline->status().ok());
  EXPECT_TRUE(pipeline->is_alive(4));
  EXPECT_FALSE(pipeline->is_alive(-1));
  EXPECT_FALSE(pipeline->is_alive(n));
  if (pipeline->sharded() != nullptr) {
    size_t routed = 0;
    for (size_t s = 0; s < pipeline->shards(); ++s) {
      routed += pipeline->sharded()->ShardRecordCount(s);
    }
    EXPECT_EQ(routed, pipeline->records().size());
  }
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(), before,
                   "after rejected calls");
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     pipeline->config(), matcher),
                   "vs survivors");
}

/// One Update batch over the live records: every `stride`-th live id from
/// `offset` is rewritten, alternately with a payload from `other` (new
/// blocking keys) and with its own payload plus a name token. Both kinds
/// move identifier buckets and token dfs, so one pass retracts and admits.
std::vector<RecordUpdate> StridedUpdates(const LayoutPipeline& pipeline,
                                         const std::vector<Record>& other,
                                         size_t stride, size_t offset) {
  std::vector<RecordUpdate> batch;
  size_t live_index = 0;
  for (size_t i = 0; i < pipeline.records().size(); ++i) {
    if (!pipeline.alive()[i]) continue;
    if (live_index++ % stride != offset % stride) continue;
    RecordUpdate update;
    update.id = static_cast<RecordId>(i);
    if (batch.size() % 2 == 0) {
      update.record = other[batch.size() % other.size()];
    } else {
      update.record = pipeline.records().at(update.id);
      update.record.Set("name",
                        std::string(update.record.Get("name")) + " revised");
    }
    batch.push_back(std::move(update));
  }
  return batch;
}

void FingerprintChangeAfterUpdate(const Instance& in) {
  // Updates under `first`, then one more under `second` (every candidate is
  // rescored). `second` scales scores up so nearly any scored pair turns
  // positive: a rescored non-candidate would show as a predicted pair.
  const std::vector<Record>& pool = Pool(in.fixture);
  JaccardMatcher first(1.0);
  JaccardMatcher second(3.0);
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, first).ok());
  for (size_t round = 0; round < 3; ++round) {
    ASSERT_TRUE(pipeline
                    ->Update(StridedUpdates(*pipeline, OtherPool(in.fixture),
                                            4, round),
                             first)
                    .ok());
  }
  ASSERT_TRUE(
      pipeline
          ->Update(StridedUpdates(*pipeline, OtherPool(in.fixture), 9, 0),
                   second)
          .ok());
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     pipeline->config(), second),
                   "after the rescoring update");
}

// ---------------------------------------------------------------------------
// Checkpoint round trips
// ---------------------------------------------------------------------------

/// Thread count to restore with: a different one, since results never
/// depend on it.
size_t OtherThreadCount(size_t threads) { return threads == 8 ? 1 : 8; }

void ExpectSameCheckpoint(const Instance& in, const std::string& a,
                          const std::string& b, const std::string& context) {
  // Equal logical state -> equal files, shard-file names included (they
  // embed the content checksum).
  EXPECT_EQ(CheckpointFiles(in.shards, a), CheckpointFiles(in.shards, b))
      << context;
}

void CheckpointRoundTrip(const Instance& in) {
  // Mid-stream and end-of-stream checkpoints restore bitwise, counters
  // included.
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  const size_t half = records.size() / 2;
  IngestBatches(pipeline.get(), records, 0, half, 3, matcher);
  for (int phase = 0; phase < 2; ++phase) {
    const std::string context = "phase " + std::to_string(phase);
    TempCheckpoint checkpoint(in, std::to_string(phase));
    auto restored = Reload(*pipeline, matcher, checkpoint.path(),
                           OtherThreadCount(in.threads));
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->config().pipeline.num_threads,
              OtherThreadCount(in.threads));
    ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                     pipeline->Snapshot().ValueOrDie(), context);
    EXPECT_EQ(restored->records().size(), pipeline->records().size());
    EXPECT_EQ(restored->total_matcher_calls(), pipeline->total_matcher_calls());
    EXPECT_EQ(restored->total_cache_hits(), pipeline->total_cache_hits());
    EXPECT_EQ(restored->fingerprint(), pipeline->fingerprint());
    if (restored->sharded() != nullptr) {
      EXPECT_EQ(restored->sharded()->num_shards(), in.shards);
    }
    if (phase == 0) {
      IngestBatches(pipeline.get(), records, half, records.size(), 3, matcher);
    }
  }
}

void SerializationIsDeterministic(const Instance& in) {
  // Same pipeline, same bytes; Save -> Load -> Save reproduces every file
  // byte for byte (no hash-map order or other incidental state).
  const std::vector<Record>& records = Pool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  IngestBatches(pipeline.get(), records, 0, records.size(), 4, matcher);
  TempCheckpoint first(in, "first");
  TempCheckpoint again(in, "again");
  TempCheckpoint resaved(in, "resaved");
  ASSERT_TRUE(pipeline->Save(first.path()).ok());
  ASSERT_TRUE(pipeline->Save(again.path()).ok());
  ExpectSameCheckpoint(in, first.path(), again.path(), "saved twice");
  auto restored = Reload(*pipeline, matcher, first.path());
  ASSERT_NE(restored, nullptr);
  ASSERT_TRUE(restored->Save(resaved.path()).ok());
  ExpectSameCheckpoint(in, first.path(), resaved.path(), "re-saved");
}

void TwoRunsWriteIdenticalCheckpoints(const Instance& in) {
  // Nothing that differs between two runs (wall clock, hash-map order,
  // thread timing) reaches a checkpoint: two runs of one CRUD schedule
  // write identical files, content-addressed shard-file names included.
  const CrudSchedule schedule = MakeSchedule(Pool(in.fixture), 31, 8);
  JaccardMatcher matcher;
  TempCheckpoint first(in, "run1");
  TempCheckpoint second(in, "run2");
  for (const std::string& path : {first.path(), second.path()}) {
    auto pipeline = MakePipeline(in);
    RunCrudSchedule(pipeline.get(), schedule, matcher, path);
    ASSERT_TRUE(pipeline->Save(path).ok());
  }
  ExpectSameCheckpoint(in, first.path(), second.path(), "two runs");
}

void SaveLeavesNoStagingFiles(const Instance& in) {
  // Files are published by rename; no staging file may linger next to the
  // image or inside the directory.
  const std::vector<Record>& records = Pool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  IngestBatches(pipeline.get(), records, 0, records.size(), 2, matcher);
  TempCheckpoint checkpoint(in, "file");
  auto restored = Reload(*pipeline, matcher, checkpoint.path());
  ASSERT_NE(restored, nullptr);
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline->Snapshot().ValueOrDie(), "file");
  const std::filesystem::path path(checkpoint.path());
  const std::filesystem::path dir =
      in.shards == 0 ? path.parent_path() : path;
  const std::string prefix = in.shards == 0 ? path.filename().string() : "";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    EXPECT_EQ(name.find(".tmp"), std::string::npos)
        << "stray staging file: " << name;
  }
}

void PostRestoreIngestion(const Instance& in) {
  // A checkpoint taken at 2 threads restores at the instance's thread
  // count, and ingestion after it stays batch-equivalent.
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = ConfigFor(in);
  config.pipeline.num_threads = 2;
  LayoutPipeline pipeline(in.shards, config);
  const size_t half = records.size() / 2;
  IngestBatches(&pipeline, records, 0, half, 3, matcher);
  TempCheckpoint checkpoint(in, "resume");
  auto restored = Reload(pipeline, matcher, checkpoint.path(), in.threads);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->config().pipeline.num_threads, in.threads);
  IngestBatches(restored.get(), records, half, records.size(), 4, matcher);
  ExpectEquivalent(
      restored->Snapshot().ValueOrDie(),
      RunBatchReference(restored->records(), restored->config(), matcher),
      "post-restore ingest");
}

void NeverRescoresAfterRestore(const Instance& in) {
  // (ingest, reload, ingest) makes exactly the matcher calls of an
  // uninterrupted run: the restored cache serves every scored pair.
  const std::vector<Record>& records = Records(in.fixture);
  JaccardMatcher matcher;
  auto uninterrupted = MakePipeline(in);
  auto first_half = MakePipeline(in);
  const size_t half = records.size() / 2;
  IngestBatches(uninterrupted.get(), records, 0, half, 3, matcher);
  IngestBatches(uninterrupted.get(), records, half, records.size(), 3, matcher);
  IngestBatches(first_half.get(), records, 0, half, 3, matcher);
  TempCheckpoint checkpoint(in, "resume");
  auto restored = Reload(*first_half, matcher, checkpoint.path());
  ASSERT_NE(restored, nullptr);
  IngestBatches(restored.get(), records, half, records.size(), 3, matcher);
  EXPECT_EQ(restored->total_matcher_calls(),
            uninterrupted->total_matcher_calls());
  EXPECT_EQ(restored->total_cache_hits(), uninterrupted->total_cache_hits());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   uninterrupted->Snapshot().ValueOrDie(), "restored");
}

void EmptyRoundTrip(const Instance& in) {
  // A pre-ingest checkpoint has no fingerprint: it loads under any matcher.
  auto pipeline = MakePipeline(in);
  TempCheckpoint checkpoint(in, "empty");
  ASSERT_TRUE(pipeline->Save(checkpoint.path()).ok());
  JaccardMatcher other(2.5);
  auto restored = LayoutPipeline::Load(in.shards, checkpoint.path(), other);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->records().size(), 0u);
  EXPECT_TRUE((*restored)->fingerprint().empty());
  ExpectEquivalent((*restored)->Snapshot().ValueOrDie(),
                   pipeline->Snapshot().ValueOrDie(), "empty");
}

void OneBlockerRoundTrip(const Instance& in) {
  // A disabled blocker's index never sees a record: the image stores it
  // empty, the directory loader leaves it empty, and both restore.
  const std::vector<Record>& records = Pool(in.fixture);
  const size_t half = records.size() / 2;
  JaccardMatcher matcher;
  for (const bool id_only : {true, false}) {
    const std::string context = id_only ? "id only" : "token only";
    IncrementalPipelineConfig config = ConfigFor(in);
    config.use_id_blocker = id_only;
    config.use_token_blocker = !id_only;
    LayoutPipeline pipeline(in.shards, config);
    IngestBatches(&pipeline, records, 0, half, 2, matcher);
    ASSERT_TRUE(pipeline.Remove({3}, matcher).ok()) << context;
    TempCheckpoint checkpoint(in, id_only ? "id_only" : "token_only");
    TempCheckpoint resaved(in, id_only ? "id_only_2" : "token_only_2");
    auto restored = Reload(pipeline, matcher, checkpoint.path());
    ASSERT_NE(restored, nullptr) << context;
    ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                     pipeline.Snapshot().ValueOrDie(), context);
    ASSERT_TRUE(restored->Save(resaved.path()).ok()) << context;
    ExpectSameCheckpoint(in, checkpoint.path(), resaved.path(), context);

    const std::vector<Record> rest = Slice(records, half, records.size());
    const Result<IngestReport> expected = pipeline.Ingest(rest, matcher);
    const Result<IngestReport> actual = restored->Ingest(rest, matcher);
    ASSERT_TRUE(expected.ok() && actual.ok()) << context;
    ExpectEqualReports(*actual, *expected, context);
    ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                     pipeline.Snapshot().ValueOrDie(), context);
  }
}

/// The version every file of a checkpoint of layout `in.shards` carries.
int CurrentVersion(const Instance& in) {
  return static_cast<int>(in.shards == 0 ? kCheckpointVersion
                                         : kShardedCheckpointVersion);
}

/// Format version stamped at byte 8 of a checkpoint file.
int VersionOf(const std::string& file) {
  const std::string bytes = ReadFileBytes(file);
  return bytes.size() > 8 ? static_cast<uint8_t>(bytes[8]) : -1;
}

/// The version stamps of every file of a checkpoint.
std::vector<int> Versions(const Instance& in, const std::string& path) {
  std::vector<int> versions = {VersionOf(FramingFile(in.shards, path))};
  for (const std::string& file : StateFiles(in.shards, path)) {
    versions.push_back(VersionOf(file));
  }
  return versions;
}

void TombstonesRoundTrip(const Instance& in) {
  // Every file of a checkpoint carries the current version, before and
  // after the first removal; the tombstones survive the round trip.
  const std::vector<Record>& pool = Pool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, matcher).ok());
  TempCheckpoint clean(in, "clean");
  ASSERT_TRUE(pipeline->Save(clean.path()).ok());
  for (int version : Versions(in, clean.path())) {
    EXPECT_EQ(version, CurrentVersion(in));
  }

  std::vector<RecordId> doomed;
  for (size_t i = 0; i < pool.size(); i += 3) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline->Remove(doomed, matcher).ok());
  TempCheckpoint tombstoned(in, "tombstoned");
  TempCheckpoint resaved(in, "resaved");
  auto restored = Reload(*pipeline, matcher, tombstoned.path());
  ASSERT_NE(restored, nullptr);
  for (int version : Versions(in, tombstoned.path())) {
    EXPECT_EQ(version, CurrentVersion(in));
  }
  EXPECT_EQ(restored->num_dead(), doomed.size());
  EXPECT_EQ(restored->alive(), pipeline->alive());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline->Snapshot().ValueOrDie(), "restored");
  ASSERT_TRUE(restored->Save(resaved.path()).ok());
  ExpectSameCheckpoint(in, tombstoned.path(), resaved.path(), "re-saved");

  // The restored pipeline keeps mutating exactly like the original.
  std::vector<RecordUpdate> update(1);
  update[0].id = 2;
  update[0].record = pool[5];
  for (LayoutPipeline* p : {pipeline.get(), restored.get()}) {
    ASSERT_TRUE(p->Remove({1, 4}, matcher).ok());
    ASSERT_TRUE(p->Ingest({pool[0]}, matcher).ok());
    ASSERT_TRUE(p->Update(update, matcher).ok());
  }
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline->Snapshot().ValueOrDie(), "after mutations");
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   SurvivorReference(restored->records(), restored->alive(),
                                     restored->config(), matcher),
                   "vs survivors");
}

void RoundTripAfterUpdate(const Instance& in) {
  // An Update removes and adds in one pass, so one index delta can add a
  // pair another retracts; such a pair must not linger with empty
  // provenance, or the loader would reject every checkpoint saved after it.
  const std::vector<Record>& pool = Pool(in.fixture);
  JaccardMatcher matcher;
  auto pipeline = MakePipeline(in);
  ASSERT_TRUE(pipeline->Ingest(pool, matcher).ok());
  for (size_t round = 0; round < 4; ++round) {
    const std::string context = "round " + std::to_string(round);
    ASSERT_TRUE(pipeline
                    ->Update(StridedUpdates(*pipeline, OtherPool(in.fixture),
                                            4, round),
                             matcher)
                    .ok())
        << context;
    TempCheckpoint checkpoint(in, "round" + std::to_string(round));
    TempCheckpoint resaved(in, "round" + std::to_string(round) + "_2");
    auto restored = Reload(*pipeline, matcher, checkpoint.path());
    ASSERT_NE(restored, nullptr) << context;
    ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                     pipeline->Snapshot().ValueOrDie(), context);
    ASSERT_TRUE(restored->Save(resaved.path()).ok());
    ExpectSameCheckpoint(in, checkpoint.path(), resaved.path(), context);
  }
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     pipeline->config(), matcher),
                   "after updates");
}

void EvictionCountsSurviveRestore(const Instance& in) {
  // Churn, save and reload half-way, then apply every mutation to both
  // copies, ending with a full rescore and a removal under the new
  // fingerprint. Eviction walks per-record partner lists that are never
  // serialized (the restore rebuilds them), so every report — evictions
  // included — and every snapshot must agree.
  JaccardMatcher matcher;
  JaccardMatcher rescoring(1.5);
  const CrudSchedule schedule = MakeSchedule(Pool(in.fixture), 77, 12);
  auto original = MakePipeline(in);
  std::unique_ptr<LayoutPipeline> restored;
  TempCheckpoint checkpoint(in, "churn");
  size_t evictions = 0;
  // Applies one mutation to the original and, once it exists, the copy.
  auto apply = [&](const std::function<Result<IngestReport>(LayoutPipeline*)>&
                       mutate,
                   const std::string& step) {
    const IngestReport report = mutate(original.get()).ValueOrDie();
    if (restored == nullptr) return report;
    ExpectEqualReports(report, mutate(restored.get()).ValueOrDie(), step);
    ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                     original->Snapshot().ValueOrDie(), step);
    evictions += report.cache_evictions;
    return report;
  };

  apply([&](LayoutPipeline* p) { return p->Ingest(schedule.initial, matcher); },
        "initial");
  for (size_t k = 0; k < schedule.ops.size(); ++k) {
    if (k == schedule.ops.size() / 2) {
      restored = Reload(*original, matcher, checkpoint.path());
      ASSERT_NE(restored, nullptr);
    }
    const CrudOp& op = schedule.ops[k];
    const std::string step = "op " + std::to_string(k);
    if (!op.removals.empty()) {
      apply([&](LayoutPipeline* p) { return p->Remove(op.removals, matcher); },
            step + " remove");
    }
    if (!op.adds.empty()) {
      apply([&](LayoutPipeline* p) { return p->Ingest(op.adds, matcher); },
            step + " add");
    }
    if (!op.updates.empty()) {
      apply([&](LayoutPipeline* p) { return p->Update(op.updates, matcher); },
            step + " update");
    }
  }
  EXPECT_GT(evictions, 0u);

  apply([&](LayoutPipeline* p) { return p->Ingest({}, rescoring); },
        "rescore");
  std::vector<RecordId> doomed;
  for (size_t i = 0; i < original->records().size(); i += 5) {
    if (original->is_alive(static_cast<RecordId>(i))) {
      doomed.push_back(static_cast<RecordId>(i));
    }
  }
  const IngestReport removal =
      apply([&](LayoutPipeline* p) { return p->Remove(doomed, rescoring); },
            "remove after rescore");
  EXPECT_GT(removal.cache_evictions, 0u);
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   SurvivorReference(restored->records(), restored->alive(),
                                     restored->config(), rescoring),
                   "vs survivors");
}

// ---------------------------------------------------------------------------
// Checkpoint corruption, per layout: the image (layout 0) or a two-shard
// directory (layout 2). Every case must fail cleanly, never crash.
// ---------------------------------------------------------------------------

/// Removed from the tombstoned fixture.
const std::vector<RecordId> kDoomed = {11, 22, 33};

/// Save the financial pool (three batches, one thread) in the instance's
/// layout; with `tombstoned`, records kDoomed removed first.
void SaveFixture(const Instance& in, bool tombstoned, const std::string& path) {
  const std::vector<Record>& pool = Pool(Fixture::kFinancial);
  JaccardMatcher matcher;
  LayoutPipeline pipeline(in.shards, TightConfig(1, 0.25));
  IngestBatches(&pipeline, pool, 0, pool.size(), 3, matcher);
  if (tombstoned) {
    ASSERT_TRUE(pipeline.Remove(kDoomed, matcher).ok());
  }
  ASSERT_TRUE(pipeline.Save(path).ok());
}

Status LoadStatus(const Instance& in, const std::string& path,
                  const PairwiseMatcher& matcher = JaccardMatcher()) {
  return LayoutPipeline::Load(in.shards, path, matcher).status();
}

// Checkpoint layouts, as far as the cases below patch them
// (docs/formats.md). Strings and id lists are u64-length-prefixed.

/// The pipeline config section: eight u64/f64 fields and two u8 flags.
constexpr size_t kConfigBytes = 8 * 8 + 2;

size_t SkipString(const std::string& bytes, size_t pos) {
  return pos + 8 + static_cast<size_t>(DecodeU64(bytes, pos));
}

/// A u64 count, then `entry_bytes` per entry.
size_t SkipList(const std::string& bytes, size_t pos, size_t entry_bytes) {
  return pos + 8 + entry_bytes * static_cast<size_t>(DecodeU64(bytes, pos));
}

/// A record list: u64 count, then per record (shard files: its global id
/// first) the i32 source, u8 kind and u64-counted name/value strings.
size_t SkipRecords(const std::string& bytes, size_t pos, bool with_ids) {
  const uint64_t count = DecodeU64(bytes, pos);
  pos += 8;
  for (uint64_t k = 0; k < count; ++k) {
    pos += (with_ids ? 4 : 0) + 4 + 1;
    const uint64_t num_attrs = DecodeU64(bytes, pos);
    pos += 8;
    for (uint64_t a = 0; a < 2 * num_attrs; ++a) pos = SkipString(bytes, pos);
  }
  return pos;
}

/// Offset of an image's tombstone section: magic 8, version 4, the
/// fingerprint, the u64 body length, then the body's config and records.
size_t ImageTombstones(const std::string& image) {
  return SkipRecords(image, SkipString(image, 12) + 8 + kConfigBytes, false);
}

/// Offset of the blocking-state section in a framing file. In the image it
/// follows the tombstones and the body's copy of the fingerprint; in the
/// manifest the S shard checksums, then the body's config, shard count,
/// router seed, fingerprint, record count and next component id.
size_t BlockingStateOffset(const Instance& in, const std::string& bytes) {
  if (in.shards == 0) {
    return SkipString(bytes, SkipList(bytes, ImageTombstones(bytes), 4));
  }
  const size_t body = SkipList(bytes, SkipString(bytes, 12), 8) + 8;
  return SkipString(bytes, body + kConfigBytes + 16) + 8 + 4;
}

/// Byte offsets inside the blocking-state section.
struct BlockingSections {
  size_t id_records = 0;  // the ID index's u64 record count
  size_t postings = 0;    // the first token postings list of >= 2 holders
  size_t provenance = 0;  // u64 count, then per entry i32 a, i32 b, u32 bits
  size_t end = 0;
};

BlockingSections ParseBlockingState(const std::string& bytes, size_t pos) {
  BlockingSections sections;
  // ID index: max bucket, record count, (value, holders) buckets,
  // refcounts.
  sections.id_records = pos + 8;
  pos += 16;
  const uint64_t buckets = DecodeU64(bytes, pos);
  pos += 8;
  for (uint64_t k = 0; k < buckets; ++k) {
    pos = SkipList(bytes, SkipString(bytes, pos), 4);
  }
  pos = SkipList(bytes, pos, 12);
  // Token index: top_n, min_overlap, max_token_df, record count, max df,
  // (text, df, postings) tokens, per-record token rows, kept-list rows,
  // refcounts.
  pos += 8 + 8 + 8 + 8 + 4;
  const uint64_t tokens = DecodeU64(bytes, pos);
  pos += 8;
  for (uint64_t k = 0; k < tokens; ++k) {
    pos = SkipString(bytes, pos) + 4;
    if (sections.postings == 0 && DecodeU64(bytes, pos) >= 2) {
      sections.postings = pos;
    }
    pos = SkipList(bytes, pos, 4);
  }
  for (int table = 0; table < 2; ++table) {
    const uint64_t rows = DecodeU64(bytes, pos);
    pos += 8;
    for (uint64_t r = 0; r < rows; ++r) pos = SkipList(bytes, pos, 4);
  }
  sections.provenance = SkipList(bytes, pos, 12);
  sections.end = SkipList(bytes, sections.provenance, 12);
  return sections;
}

/// Byte offsets of the tombstone and score sections inside one state file.
struct Sections {
  size_t tombstones = 0;  // u64 count, then the ids
  std::vector<int32_t> dead;
  size_t scores = 0;  // u64 count, then per entry i32 a, i32 b, f64
  uint64_t num_scores = 0;
};

Sections Locate(const Instance& in, const std::string& file) {
  const std::string bytes = ReadFileBytes(file);
  Sections sections;
  // Image: the tombstones follow the records, the score list the blocking
  // state. Shard file: magic 8, version 4, shard index 4, body length 8,
  // then the records with their global ids, the tombstones, the scores.
  sections.tombstones =
      in.shards == 0 ? ImageTombstones(bytes) : SkipRecords(bytes, 24, true);
  const uint64_t num_dead = DecodeU64(bytes, sections.tombstones);
  for (uint64_t k = 0; k < num_dead; ++k) {
    sections.dead.push_back(
        DecodeI32(bytes, sections.tombstones + 8 + 4 * static_cast<size_t>(k)));
  }
  sections.scores =
      in.shards == 0
          ? ParseBlockingState(bytes, BlockingStateOffset(in, bytes)).end
          : SkipList(bytes, sections.tombstones, 4);
  sections.num_scores = DecodeU64(bytes, sections.scores);
  return sections;
}

/// Every load of `path` fails; for a directory, with `dir_message` (when
/// given) in the error.
void ExpectLoadFails(const Instance& in, const std::string& path,
                     const std::string& context,
                     const std::string& dir_message = "") {
  const Status status = LoadStatus(in, path);
  EXPECT_FALSE(status.ok()) << context;
  if (in.shards > 0 && !dir_message.empty()) {
    EXPECT_NE(status.message().find(dir_message), std::string::npos)
        << context << ": " << status.ToString();
  }
}

/// Overwrite `file` with `image` cut to each of `lengths` and load.
void ExpectEveryPrefixFails(const Instance& in, const std::string& path,
                            const std::string& file,
                            std::vector<size_t> lengths) {
  const std::string image = ReadFileBytes(file);
  // Dense through the header, sparse through the body, and the last byte.
  for (size_t k = 0; k < 64 && k < image.size(); ++k) lengths.push_back(k);
  for (size_t k = 64; k < image.size(); k += image.size() / 37 + 1) {
    lengths.push_back(k);
  }
  lengths.push_back(image.size() - 1);
  for (size_t length : lengths) {
    WriteFileBytes(file, image.substr(0, length));
    ExpectLoadFails(in, path, "prefix length " + std::to_string(length));
  }
}

void EmptyInput(const Instance& in) {
  TempCheckpoint checkpoint(in, "empty");
  SaveFixture(in, false, checkpoint.path());
  WriteFileBytes(FramingFile(in.shards, checkpoint.path()), "");
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

void BadMagic(const Instance& in) {
  TempCheckpoint checkpoint(in, "magic");
  SaveFixture(in, false, checkpoint.path());
  const std::string file = FramingFile(in.shards, checkpoint.path());
  std::string image = ReadFileBytes(file);
  image[0] ^= 0x5a;
  WriteFileBytes(file, image);
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

void TruncatedCheckpoint(const Instance& in) {
  TempCheckpoint checkpoint(in, "truncated");
  SaveFixture(in, false, checkpoint.path());
  ExpectEveryPrefixFails(in, checkpoint.path(),
                         FramingFile(in.shards, checkpoint.path()), {});
}

void FutureVersion(const Instance& in) {
  // Only the version is wrong: the checksum is recomputed around it.
  TempCheckpoint checkpoint(in, "version");
  SaveFixture(in, false, checkpoint.path());
  const std::string file = FramingFile(in.shards, checkpoint.path());
  std::string image = ReadFileBytes(file);
  image.replace(8, 4, EncodeU64(std::max(kCheckpointVersion,
                                         kShardedCheckpointVersion) + 1)
                          .substr(0, 4));
  WriteFileBytes(file, WithFixedChecksum(image));
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("newer"), std::string::npos);
}

void FingerprintMismatch(const Instance& in) {
  // The matcher changed between save and load: the cached scores are not
  // its scores, so the checkpoint is refused, not silently trusted.
  TempCheckpoint checkpoint(in, "fingerprint");
  SaveFixture(in, false, checkpoint.path());
  const Status status =
      LoadStatus(in, checkpoint.path(), JaccardMatcher(1.4));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
}

void BodyBitFlip(const Instance& in) {
  // A flipped body bit in any state file: the image's checksum catches it,
  // a shard file no longer matches the checksum its manifest recorded.
  TempCheckpoint checkpoint(in, "flip");
  SaveFixture(in, false, checkpoint.path());
  for (const std::string& file : StateFiles(in.shards, checkpoint.path())) {
    const std::string image = ReadFileBytes(file);
    for (double frac : {0.3, 0.6, 0.9}) {
      std::string flipped = image;
      const size_t pos =
          64 + static_cast<size_t>(static_cast<double>(image.size() - 72) *
                                   frac);
      flipped[pos] ^= 0x01;
      WriteFileBytes(file, flipped);
      ExpectLoadFails(in, checkpoint.path(),
                      "flip at " + std::to_string(pos),
                      "does not match the manifest");
    }
    WriteFileBytes(file, image);
  }
}

void FramingBitFlip(const Instance& in) {
  TempCheckpoint checkpoint(in, "framing_flip");
  SaveFixture(in, false, checkpoint.path());
  const std::string file = FramingFile(in.shards, checkpoint.path());
  std::string image = ReadFileBytes(file);
  image[image.size() - 25] ^= 0x40;
  WriteFileBytes(file, image);
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

void TrailingGarbage(const Instance& in) {
  // Appending bytes shifts the checksum-covered region.
  TempCheckpoint checkpoint(in, "garbage");
  SaveFixture(in, false, checkpoint.path());
  const std::string file = FramingFile(in.shards, checkpoint.path());
  WriteFileBytes(file, ReadFileBytes(file) + "extra");
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

void HeaderFingerprintBitFlip(const Instance& in) {
  // A damaged fingerprint byte is file corruption, not "the matcher
  // changed" (which would send an operator hunting for a model that never
  // existed). The fingerprint string starts at offset 20 in both framing
  // files (magic 8, version 4, u64 length).
  TempCheckpoint checkpoint(in, "header_flip");
  SaveFixture(in, false, checkpoint.path());
  const std::string file = FramingFile(in.shards, checkpoint.path());
  std::string image = ReadFileBytes(file);
  image[20] ^= 0x01;
  WriteFileBytes(file, image);
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

void MissingCheckpoint(const Instance& in) {
  const Status status = LoadStatus(in, "/nonexistent/dir/pipeline.ckpt");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

void TombstonedStampCurrentVersion(const Instance& in) {
  // Every removed id is tombstoned in exactly one state file (its owner
  // shard's), and the checkpoint restores and re-saves identically.
  TempCheckpoint checkpoint(in, "stamp");
  TempCheckpoint resaved(in, "stamp_2");
  SaveFixture(in, true, checkpoint.path());
  for (int version : Versions(in, checkpoint.path())) {
    EXPECT_EQ(version, CurrentVersion(in));
  }
  std::vector<int32_t> dead;
  for (const std::string& file : StateFiles(in.shards, checkpoint.path())) {
    const Sections sections = Locate(in, file);
    dead.insert(dead.end(), sections.dead.begin(), sections.dead.end());
  }
  std::sort(dead.begin(), dead.end());
  EXPECT_EQ(dead, std::vector<int32_t>(kDoomed.begin(), kDoomed.end()));

  JaccardMatcher matcher;
  auto restored = LayoutPipeline::Load(in.shards, checkpoint.path(), matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_dead(), kDoomed.size());
  for (RecordId id : kDoomed) EXPECT_FALSE((*restored)->is_alive(id));
  ASSERT_TRUE((*restored)->Save(resaved.path()).ok());
  ExpectSameCheckpoint(in, checkpoint.path(), resaved.path(), "re-saved");
}

/// The first state file whose tombstone section holds at least `min_dead`
/// ids, with its sections.
std::pair<size_t, Sections> TombstonedFile(const Instance& in,
                                           const std::string& path,
                                           size_t min_dead) {
  const std::vector<std::string> files = StateFiles(in.shards, path);
  for (size_t k = 0; k < files.size(); ++k) {
    Sections sections = Locate(in, files[k]);
    if (sections.dead.size() >= min_dead) return {k, sections};
  }
  ADD_FAILURE() << "no state file holds " << min_dead << " tombstones";
  return {0, Sections()};
}

void TruncatedTombstones(const Instance& in) {
  // Cuts anywhere, and inside the tombstone section itself.
  TempCheckpoint checkpoint(in, "tomb_truncated");
  SaveFixture(in, true, checkpoint.path());
  const auto [index, sections] = TombstonedFile(in, checkpoint.path(), 1);
  std::vector<size_t> lengths;
  for (size_t k = 0; k <= 8 + 4 * sections.dead.size(); k += 3) {
    lengths.push_back(sections.tombstones + k);
  }
  ExpectEveryPrefixFails(in, checkpoint.path(),
                         StateFiles(in.shards, checkpoint.path())[index],
                         lengths);
}

void TombstoneBitFlip(const Instance& in) {
  // A raw flip inside the tombstone section (no framing repair) is caught
  // by the checksum before the section is parsed.
  TempCheckpoint checkpoint(in, "tomb_flip");
  SaveFixture(in, true, checkpoint.path());
  const auto [index, sections] = TombstonedFile(in, checkpoint.path(), 1);
  const std::string file = StateFiles(in.shards, checkpoint.path())[index];
  const std::string image = ReadFileBytes(file);
  for (size_t k = 0; k < 8 + 4 * sections.dead.size(); k += 2) {
    std::string flipped = image;
    flipped[sections.tombstones + k] ^= 0x01;
    WriteFileBytes(file, flipped);
    const Status status = LoadStatus(in, checkpoint.path());
    ASSERT_FALSE(status.ok()) << "flip at tombstone byte " << k;
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    if (in.shards > 0) {
      EXPECT_NE(status.message().find("does not match the manifest"),
                std::string::npos);
    }
  }
}

void InvalidTombstones(const Instance& in) {
  // With the framing repaired, the tombstone section's own validation must
  // catch a duplicate id, an out-of-range id and (directory) an id the
  // shard file does not store.
  {
    TempCheckpoint checkpoint(in, "tomb_duplicate");
    SaveFixture(in, true, checkpoint.path());
    const auto [index, sections] = TombstonedFile(in, checkpoint.path(), 2);
    RewriteStateFile(in.shards, checkpoint.path(), index,
                     sections.tombstones + 8 + 4, 4,
                     EncodeI32(sections.dead[0]));
    const Status status = LoadStatus(in, checkpoint.path());
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_NE(status.message().find("ascending"), std::string::npos)
        << status.ToString();
  }
  {
    TempCheckpoint checkpoint(in, "tomb_range");
    SaveFixture(in, true, checkpoint.path());
    const auto [index, sections] = TombstonedFile(in, checkpoint.path(), 1);
    RewriteStateFile(in.shards, checkpoint.path(), index,
                     sections.tombstones + 8 + 4 * (sections.dead.size() - 1),
                     4, EncodeI32(0x7f7f0000));
    const Status status = LoadStatus(in, checkpoint.path());
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIoError);
  }
  if (in.shards > 0) {
    TempCheckpoint checkpoint(in, "tomb_foreign");
    SaveFixture(in, true, checkpoint.path());
    const auto [index, sections] = TombstonedFile(in, checkpoint.path(), 1);
    // The other shard file's first record id (after the 24-byte header and
    // the u64 record count): in range, but not stored here.
    const int32_t foreign = DecodeI32(
        ReadFileBytes(StateFiles(in.shards, checkpoint.path())[1 - index]),
        32);
    RewriteStateFile(in.shards, checkpoint.path(), index,
                     sections.tombstones + 8, 4, EncodeI32(foreign));
    const Status status = LoadStatus(in, checkpoint.path());
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("does not store"), std::string::npos)
        << status.ToString();
  }
}

void PreTombstoneCheckpoints(const Instance& in) {
  // A checkpoint taken before any removal (an empty tombstone section)
  // loads, re-saves identically, and accepts removals. Legacy images and
  // directories are the checked-in fixtures' job (serve_test, shard_test).
  TempCheckpoint checkpoint(in, "v1");
  TempCheckpoint resaved(in, "v1_resaved");
  TempCheckpoint upgraded(in, "v1_upgraded");
  SaveFixture(in, false, checkpoint.path());
  for (int version : Versions(in, checkpoint.path())) {
    EXPECT_EQ(version, CurrentVersion(in));
  }
  JaccardMatcher matcher;
  auto restored = LayoutPipeline::Load(in.shards, checkpoint.path(), matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_dead(), 0u);
  ASSERT_TRUE((*restored)->Save(resaved.path()).ok());
  ExpectSameCheckpoint(in, checkpoint.path(), resaved.path(), "re-saved");
  ASSERT_TRUE((*restored)->Remove({0}, matcher).ok());
  ASSERT_TRUE((*restored)->Save(upgraded.path()).ok());
  for (int version : Versions(in, upgraded.path())) {
    EXPECT_EQ(version, CurrentVersion(in));
  }
  auto upgraded_pipeline =
      LayoutPipeline::Load(in.shards, upgraded.path(), matcher);
  ASSERT_TRUE(upgraded_pipeline.ok()) << upgraded_pipeline.status().ToString();
  EXPECT_EQ((*upgraded_pipeline)->num_dead(), 1u);
}

/// Rewrite the first cached score's pair as (first, second) of its
/// original (a, b), framing repaired: only the pair codec can tell.
Status LoadWithRewrittenScorePair(const Instance& in, bool self_pair) {
  TempCheckpoint checkpoint(in, self_pair ? "self_pair" : "swapped_pair");
  SaveFixture(in, true, checkpoint.path());
  const std::vector<std::string> files =
      StateFiles(in.shards, checkpoint.path());
  for (size_t k = 0; k < files.size(); ++k) {
    const Sections sections = Locate(in, files[k]);
    if (sections.num_scores == 0) continue;
    const std::string bytes = ReadFileBytes(files[k]);
    const size_t entry = sections.scores + 8;
    const int32_t a = DecodeI32(bytes, entry);
    const int32_t b = DecodeI32(bytes, entry + 4);
    EXPECT_LT(a, b);
    RewriteStateFile(in.shards, checkpoint.path(), k, entry, 8,
                     self_pair ? EncodeI32(a) + EncodeI32(a)
                               : EncodeI32(b) + EncodeI32(a));
    return LoadStatus(in, checkpoint.path());
  }
  ADD_FAILURE() << "no state file holds a cached score";
  return Status::OK();
}

void SwappedScorePair(const Instance& in) {
  const Status status = LoadWithRewrittenScorePair(in, false);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("not canonical"), std::string::npos)
      << status.ToString();
}

void SelfScorePair(const Instance& in) {
  const Status status = LoadWithRewrittenScorePair(in, true);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("not canonical"), std::string::npos)
      << status.ToString();
}

void MixedVersion(const Instance& in) {
  // A version stamp that disagrees with the rest of the checkpoint, every
  // checksum intact: a version 2 shard file under a version 3 manifest is a
  // stale file; a version 2 stamp on a version 3 image reads the
  // fingerprint as index state.
  TempCheckpoint checkpoint(in, "mixed");
  SaveFixture(in, true, checkpoint.path());
  if (in.shards > 0) {
    RewriteStateFile(in.shards, checkpoint.path(), 1, 8, 1, "\x02");
  } else {
    const std::string image = ReadFileBytes(checkpoint.path());
    WriteFileBytes(checkpoint.path(),
                   WithFixedChecksum(image.substr(0, 8) + "\x02" +
                                     image.substr(9)));
  }
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  if (in.shards > 0) {
    EXPECT_NE(status.message().find("must share one version"),
              std::string::npos)
        << status.ToString();
  }
}

void MisplacedScores(const Instance& in) {
  // The two shard files' score lists trade places, framing repaired: each
  // file now holds scores for pairs the other shard owns.
  TempCheckpoint checkpoint(in, "misplaced");
  SaveFixture(in, true, checkpoint.path());
  std::vector<std::string> lists;
  std::vector<Sections> sections;
  for (const std::string& file : StateFiles(in.shards, checkpoint.path())) {
    sections.push_back(Locate(in, file));
    lists.push_back(ReadFileBytes(file).substr(
        sections.back().scores, 8 + 16 * sections.back().num_scores));
  }
  ASSERT_EQ(lists.size(), 2u);
  ASSERT_GT(sections[0].num_scores + sections[1].num_scores, 0u);
  for (size_t k = 0; k < 2; ++k) {
    RewriteStateFile(in.shards, checkpoint.path(), k, sections[k].scores,
                     lists[k].size(), lists[1 - k]);
  }
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cached score for a pair another shard owns"),
            std::string::npos)
      << status.ToString();
}

/// Save the tombstoned fixture, hand `patch` its framing file's bytes and
/// parsed blocking state, apply the (position, length, replacement) it
/// returns with the framing repaired, and expect the load to fail with an
/// IOError naming `message`. The image and the manifest share the section,
/// so both layouts reach the same decoder and checks.
void ExpectPatchedBlockingStateRejected(
    const Instance& in, const std::string& tag, const std::string& message,
    const std::function<std::tuple<size_t, size_t, std::string>(
        const std::string&, const BlockingSections&)>& patch) {
  TempCheckpoint checkpoint(in, tag);
  SaveFixture(in, true, checkpoint.path());
  const std::string bytes =
      ReadFileBytes(FramingFile(in.shards, checkpoint.path()));
  const auto [pos, length, replacement] =
      patch(bytes, ParseBlockingState(bytes, BlockingStateOffset(in, bytes)));
  RewriteFramingFile(in.shards, checkpoint.path(), pos, length, replacement);
  const Status status = LoadStatus(in, checkpoint.path());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find(message), std::string::npos)
      << status.ToString();
}

void PostingsNotAscending(const Instance& in) {
  // Two holders of one token swap places: removal binary-searches the
  // postings, so the load must refuse them.
  ExpectPatchedBlockingStateRejected(
      in, "postings", "postings not ascending",
      [](const std::string& bytes, const BlockingSections& sections) {
        EXPECT_NE(sections.postings, 0u);
        const size_t first = sections.postings + 8;
        return std::make_tuple(first, size_t{8},
                               bytes.substr(first + 4, 4) +
                                   bytes.substr(first, 4));
      });
}

void IndexRecordCountDisagrees(const Instance& in) {
  // The ID index claims one record more than the record table holds.
  ExpectPatchedBlockingStateRejected(
      in, "index_count", "record counts disagree",
      [](const std::string& bytes, const BlockingSections& sections) {
        return std::make_tuple(
            sections.id_records, size_t{8},
            EncodeU64(DecodeU64(bytes, sections.id_records) + 1));
      });
}

void IndexPairSetDisagreesWithProvenance(const Instance& in) {
  // The first candidate's provenance bits name the other blocker (or drop
  // one of two). They still name configured blockers and the pair keeps
  // its score, so only comparing each index's pair set with the
  // provenance can tell.
  ExpectPatchedBlockingStateRejected(
      in, "provenance", "pair set disagrees with the candidate provenance",
      [](const std::string& bytes, const BlockingSections& sections) {
        EXPECT_GT(DecodeU64(bytes, sections.provenance), 0u);
        const size_t bits_at = sections.provenance + 8 + 8;
        const uint32_t bits = static_cast<uint32_t>(DecodeI32(bytes, bits_at));
        const uint32_t flipped = bits == 3 ? 1 : bits ^ 3;
        return std::make_tuple(bits_at, size_t{4},
                               EncodeI32(static_cast<int32_t>(flipped)));
      });
}

void TokenDfDisagreesWithPostings(const Instance& in) {
  // A token's stored document frequency falls one below its postings
  // count. The df is its postings count, so the load must refuse the copy.
  ExpectPatchedBlockingStateRejected(
      in, "token_df", "document frequency disagrees with the postings",
      [](const std::string& bytes, const BlockingSections& sections) {
        EXPECT_NE(sections.postings, 0u);
        const size_t df_at = sections.postings - 4;
        const uint32_t df = static_cast<uint32_t>(DecodeI32(bytes, df_at));
        EXPECT_EQ(df, DecodeU64(bytes, sections.postings));
        return std::make_tuple(df_at, size_t{4},
                               EncodeI32(static_cast<int32_t>(df - 1)));
      });
}

void ComponentEdgeMissing(const Instance& in) {
  // The first stored component's edge list drops its last pair, framing
  // repaired. The pair is still positive, so only deriving the edge list
  // from the positive set can tell.
  TempCheckpoint checkpoint(in, "component_edges");
  SaveFixture(in, true, checkpoint.path());
  const std::vector<std::string> files =
      StateFiles(in.shards, checkpoint.path());
  for (size_t k = 0; k < files.size(); ++k) {
    const std::string bytes = ReadFileBytes(files[k]);
    // Image: positives, the membership map, the components. Shard file:
    // positives, the two counters, the components.
    const Sections sections = Locate(in, files[k]);
    size_t pos = SkipList(bytes, sections.scores, 16);
    pos = in.shards == 0 ? SkipList(bytes, SkipList(bytes, pos, 8), 4)
                         : SkipList(bytes, pos, 8) + 16;
    if (DecodeU64(bytes, pos) == 0) continue;
    // The first component: its id, then its node list, then its edges.
    const size_t edges = SkipList(bytes, pos + 8 + 4, 4);
    const uint64_t num_edges = DecodeU64(bytes, edges);
    ASSERT_GT(num_edges, 0u);
    RewriteStateFile(in.shards, checkpoint.path(), k, edges,
                     8 + 8 * static_cast<size_t>(num_edges),
                     EncodeU64(num_edges - 1) +
                         bytes.substr(edges + 8, 8 * (num_edges - 1)));
    const Status status = LoadStatus(in, checkpoint.path());
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_NE(status.message().find("component edge list disagrees"),
              std::string::npos)
        << status.ToString();
    return;
  }
  ADD_FAILURE() << "no state file holds a component";
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

/// `case` on both fixtures and both pipeline families, in the suites the
/// stream and shard differentials used: {Financial,Wdc}{Stream,Shard}.
void RegisterStreamAndShard(const char* stream_name, const char* shard_name,
                            CaseFn run) {
  Register("FinancialStream", stream_name, run, Fixture::kFinancial,
           kIncremental);
  Register("WdcStream", stream_name, run, Fixture::kWdc, kIncremental);
  Register("FinancialShard", shard_name, run, Fixture::kFinancial, kSharded);
  Register("WdcShard", shard_name, run, Fixture::kWdc, kSharded);
}

/// `case` on both fixtures over every layout, in {Financial,Wdc}Crud.
void RegisterCrud(const char* name, CaseFn run) {
  Register("FinancialCrud", name, run, Fixture::kFinancial, kEveryLayout);
  Register("WdcCrud", name, run, Fixture::kWdc, kEveryLayout);
}

/// `case` on both fixtures, the image layout in `image_suite`, the
/// directory layouts in `directory_suite`.
void RegisterCheckpoint(const char* image_suite, const char* image_financial,
                        const char* image_wdc, const char* directory_suite,
                        const char* directory_financial,
                        const char* directory_wdc, CaseFn run) {
  Register(image_suite, image_financial, run, Fixture::kFinancial,
           kIncremental);
  Register(image_suite, image_wdc, run, Fixture::kWdc, kIncremental);
  Register(directory_suite, directory_financial, run, Fixture::kFinancial,
           kSharded);
  Register(directory_suite, directory_wdc, run, Fixture::kWdc, kSharded);
}

/// Corruption `case` on the image (in `image_suite`) and on a two-shard
/// directory (in `directory_suite`); `directory_name` null skips the
/// directory, `image_name` null the image.
void RegisterCorruption(const char* image_suite, const char* image_name,
                        const char* directory_suite,
                        const char* directory_name, CaseFn run) {
  if (image_name != nullptr) {
    Register(image_suite, image_name, run, Fixture::kFinancial, {0}, {1});
  }
  if (directory_name != nullptr) {
    Register(directory_suite, directory_name, run, Fixture::kFinancial, {2},
             {1});
  }
}

bool RegisterAll() {
  RegisterStreamAndShard("SingleBatchEqualsFullRun", "SingleBatchEqualsFullRun",
                         SingleBatch);
  RegisterStreamAndShard("KBatchesEquivalentAtEveryThreadCount",
                         "ShardCountInvarianceAcrossThreadCounts", KBatches);
  RegisterStreamAndShard("SingletonBatchesEquivalent",
                         "SingletonBatchesEquivalent", SingletonBatches);
  RegisterStreamAndShard("RandomizedSchedulesEquivalent",
                         "RandomizedSchedulesEquivalent", RandomizedSchedules);
  RegisterStreamAndShard("InterleavedSourceArrivalEquivalent",
                         "InterleavedSourceArrivalEquivalent",
                         InterleavedSourceArrival);
  RegisterStreamAndShard("BatchedScoringEquivalentAcrossThreadsAndBatchSizes",
                         "BatchedScoringEquivalentAcrossThreadsAndBatchSizes",
                         BatchedScoring);
  RegisterStreamAndShard("FingerprintChangeInvalidatesCacheAndStaysEquivalent",
                         "FingerprintSwapRescoresEveryShardAndStaysEquivalent",
                         FingerprintSwap);
  RegisterStreamAndShard("EmptyBatchIsANoOp", "EmptyBatchIsANoOp", EmptyBatch);
  RegisterStreamAndShard("ReportsObserveIncrementalScoping",
                         "ReportsObserveIncrementalScoping",
                         ReportsObserveScoping);
  RegisterStreamAndShard("ThrowingMatcherPoisonsThePipeline",
                         "ThrowingMatcherPoisonsTheShardedPipeline",
                         PoisonedByIngest);
  RegisterStreamAndShard("MatcherThrowOnFirstIngestAlsoPoisons",
                         "MatcherThrowOnFirstIngestAlsoPoisons",
                         PoisonedByFirstIngest);
  RegisterStreamAndShard("ThrowingMatcherPoisonsRemove",
                         "ThrowingMatcherPoisonsRemove", PoisonedByRemove);
  RegisterStreamAndShard("ThrowingMatcherPoisonsUpdate",
                         "ThrowingMatcherPoisonsUpdate", PoisonedByUpdate);
  // The call accounting pins the serial chunk layout: one thread only.
  const char* accounting = "ScoreBatchCallAccountingReflectsChunking";
  Register("FinancialStream", accounting, ScoreBatchCallAccounting,
           Fixture::kFinancial, kIncremental, {1});
  Register("WdcStream", accounting, ScoreBatchCallAccounting, Fixture::kWdc,
           kIncremental, {1});
  Register("FinancialShard", accounting, ScoreBatchCallAccounting,
           Fixture::kFinancial, kSharded, {1});
  Register("WdcShard", accounting, ScoreBatchCallAccounting, Fixture::kWdc,
           kSharded, {1});
  Register("FinancialStream", "ScoreCachePreventsMatcherReinvocation",
           ScoreCache, Fixture::kFinancial, kIncremental);
  Register("WdcStream", "ScoreCacheOnProductsNeverRescores", ScoreCache,
           Fixture::kWdc, kIncremental);
  Register("FinancialShard", "NoPairScoredTwiceAcrossShards", ScoreCache,
           Fixture::kFinancial, kSharded);
  Register("WdcShard", "NoPairScoredTwiceAcrossShards", ScoreCache,
           Fixture::kWdc, kSharded);

  // The CRUD fuzzer: one case, split by family to bound each test's time.
  Register("FinancialCrud", "FuzzIncrementalSchedules", CrudFuzz,
           Fixture::kFinancial, kIncremental);
  Register("FinancialCrud", "FuzzShardedSchedules", CrudFuzz,
           Fixture::kFinancial, kSharded);
  Register("WdcCrud", "FuzzIncrementalSchedules", CrudFuzz, Fixture::kWdc,
           kIncremental);
  Register("WdcCrud", "FuzzShardedSchedules", CrudFuzz, Fixture::kWdc,
           kSharded);
  Register("FinancialCrud", "ReportsIdenticalBetweenIncrementalAndSharded",
           ChurnReportsMatchTheEngine, Fixture::kFinancial, kSharded);
  Register("WdcCrud", "ReportsIdenticalBetweenIncrementalAndSharded",
           ChurnReportsMatchTheEngine, Fixture::kWdc, kSharded);
  RegisterCrud("MidScheduleChecksStayEquivalent", MidScheduleChecks);
  RegisterCrud("RemoveSubsetEquivalentAtEveryThreadCount", RemoveSubset);
  RegisterCrud("UpdateChangingBlockingKeysEquivalent",
               UpdateChangingBlockingKeys);
  RegisterCrud("DeleteThenReaddRestoresTheSameGroups", DeleteThenReadd);
  RegisterCrud("DeleteEverythingThenRebuild", DeleteEverything);
  RegisterCrud("DeletionNeverRescoresUnaffectedPairs", DeletionNeverRescores);
  RegisterCrud("InvalidRemovalsAreCleanErrorsWithoutPoisoning",
               InvalidRemovals);
  RegisterCrud("FingerprintChangeAfterUpdateMatchesSurvivors",
               FingerprintChangeAfterUpdate);
  RegisterCrud("EvictionCountsSurviveRestoreAndRescoring",
               EvictionCountsSurviveRestore);
  RegisterCrud("CheckpointRoundTripAfterUpdate", RoundTripAfterUpdate);
  Register("FinancialCrud", "CheckpointRoundTripCarriesTombstones",
           TombstonesRoundTrip, Fixture::kFinancial, kIncremental);
  Register("FinancialCrud", "ShardedCheckpointRoundTripCarriesTombstones",
           TombstonesRoundTrip, Fixture::kFinancial, kSharded);
  Register("WdcCrud", "CheckpointRoundTripCarriesTombstones",
           TombstonesRoundTrip, Fixture::kWdc, kIncremental);
  Register("WdcCrud", "ShardedCheckpointRoundTripCarriesTombstones",
           TombstonesRoundTrip, Fixture::kWdc, kSharded);

  RegisterCheckpoint("CheckpointTest",
                     "RoundTripIsBitwiseIdenticalOnFinancialFixture",
                     "RoundTripIsBitwiseIdenticalOnWdcFixture",
                     "ShardedCheckpointTest",
                     "RoundTripIsBitwiseIdenticalAndResaveIsStable",
                     "RoundTripIsBitwiseIdenticalOnWdcFixture",
                     CheckpointRoundTrip);
  RegisterCheckpoint("CheckpointTest", "SerializationIsDeterministic",
                     "SerializationIsDeterministicOnWdcFixture",
                     "ShardedCheckpointTest", "SerializationIsDeterministic",
                     "SerializationIsDeterministicOnWdcFixture",
                     SerializationIsDeterministic);
  RegisterCrud("TwoRunsWriteIdenticalCheckpoints",
               TwoRunsWriteIdenticalCheckpoints);
  RegisterCheckpoint("CheckpointTest", "FileRoundTripViaSaveAndLoad",
                     "FileRoundTripViaSaveAndLoadOnWdcFixture",
                     "ShardedCheckpointTest", "SaveLeavesNoStagingFiles",
                     "SaveLeavesNoStagingFilesOnWdcFixture",
                     SaveLeavesNoStagingFiles);
  RegisterCheckpoint(
      "CheckpointTest",
      "PostLoadIngestionKeepsBatchEquivalenceAtEveryThreadCount",
      "PostLoadIngestionKeepsBatchEquivalenceOnWdcFixture",
      "ShardedCheckpointTest", "PostRestoreIngestionStaysEquivalent",
      "PostRestoreIngestionStaysEquivalentOnWdcFixture", PostRestoreIngestion);
  RegisterCheckpoint("CheckpointTest",
                     "PostLoadIngestionNeverRescoresCachedPairs",
                     "PostLoadIngestionNeverRescoresCachedPairsOnWdcFixture",
                     "ShardedCheckpointTest",
                     "PostRestoreIngestionNeverRescoresCachedPairs",
                     "PostRestoreIngestionNeverRescoresCachedPairsOnWdcFixture",
                     NeverRescoresAfterRestore);
  RegisterCheckpoint("CheckpointTest", "EmptyPipelineRoundTrips",
                     "EmptyPipelineRoundTripsOnWdcConfig",
                     "ShardedCheckpointTest",
                     "PreIngestCheckpointLoadsUnderAnyMatcher",
                     "PreIngestCheckpointLoadsUnderAnyMatcherOnWdcConfig",
                     EmptyRoundTrip);
  RegisterCheckpoint("CheckpointTest", "OneBlockerPipelinesRoundTrip",
                     "OneBlockerPipelinesRoundTripOnWdcFixture",
                     "ShardedCheckpointTest", "OneBlockerPipelinesRoundTrip",
                     "OneBlockerPipelinesRoundTripOnWdcFixture",
                     OneBlockerRoundTrip);

  RegisterCorruption("CheckpointCorruptionTest", "EmptyInputFailsCleanly",
                     "ShardedCheckpointCorruptionTest",
                     "EmptyManifestFailsCleanly", EmptyInput);
  RegisterCorruption("CheckpointCorruptionTest", "BadMagicRejected",
                     "ShardedCheckpointCorruptionTest", "BadMagicRejected",
                     BadMagic);
  RegisterCorruption("CheckpointCorruptionTest",
                     "TruncationAtAnyPrefixFailsCleanly",
                     "ShardedCheckpointCorruptionTest",
                     "TruncatedManifestFailsCleanly", TruncatedCheckpoint);
  RegisterCorruption("CheckpointCorruptionTest", "FutureVersionRejected",
                     "ShardedCheckpointCorruptionTest",
                     "FutureManifestVersionFailsCleanly", FutureVersion);
  RegisterCorruption("CheckpointCorruptionTest", "FingerprintMismatchRejected",
                     "ShardedCheckpointCorruptionTest",
                     "FingerprintMismatchFailsCleanly", FingerprintMismatch);
  RegisterCorruption("CheckpointCorruptionTest", "BodyBitFlipCaughtByChecksum",
                     "ShardedCheckpointCorruptionTest",
                     "BitFlippedShardFileFailsCleanly", BodyBitFlip);
  RegisterCorruption("CheckpointCorruptionTest",
                     "TrailerBitFlipCaughtByChecksum",
                     "ShardedCheckpointCorruptionTest",
                     "BitFlippedManifestFailsCleanly", FramingBitFlip);
  RegisterCorruption("CheckpointCorruptionTest", "TrailingGarbageRejected",
                     "ShardedCheckpointCorruptionTest",
                     "TrailingGarbageRejected", TrailingGarbage);
  RegisterCorruption("CheckpointCorruptionTest",
                     "HeaderFingerprintBitFlipIsCorruptionNotMismatch",
                     "ShardedCheckpointCorruptionTest",
                     "HeaderFingerprintBitFlipIsCorruptionNotMismatch",
                     HeaderFingerprintBitFlip);
  RegisterCorruption("CheckpointCorruptionTest", "MissingFileFailsCleanly",
                     "ShardedCheckpointCorruptionTest",
                     "MissingDirectoryFailsCleanly", MissingCheckpoint);
  RegisterCorruption("TombstoneCheckpointCorruptionTest",
                     "TombstonedImagesStampTheCurrentVersion",
                     "TombstoneShardedCheckpointTest",
                     "TombstonedFilesStampTheCurrentVersion",
                     TombstonedStampCurrentVersion);
  RegisterCorruption("TombstoneCheckpointCorruptionTest",
                     "TruncationAtAnyPrefixFailsCleanly",
                     "TombstoneShardedCheckpointTest",
                     "TruncationAtAnyPrefixFailsCleanly", TruncatedTombstones);
  RegisterCorruption("TombstoneCheckpointCorruptionTest",
                     "TombstoneBitFlipCaughtByChecksum",
                     "TombstoneShardedCheckpointTest",
                     "TombstoneBitFlipFailsCleanly", TombstoneBitFlip);
  RegisterCorruption("TombstoneCheckpointCorruptionTest",
                     "StructurallyInvalidTombstonesRejectedPastTheChecksum",
                     "TombstoneShardedCheckpointTest",
                     "StructurallyInvalidTombstonesRejectedPastTheFraming",
                     InvalidTombstones);
  RegisterCorruption("TombstoneCheckpointCorruptionTest",
                     "PreTombstoneCheckpointsStillLoadAndRoundTrip",
                     "TombstoneShardedCheckpointTest",
                     "PreTombstoneCheckpointsStillLoadAndRoundTrip",
                     PreTombstoneCheckpoints);
  RegisterCorruption("PairCanonicalityTest", "SwappedPairIsRejected",
                     "TombstoneShardedCheckpointTest",
                     "SwappedScorePairRejected", SwappedScorePair);
  RegisterCorruption("PairCanonicalityTest", "SelfPairIsRejected",
                     "TombstoneShardedCheckpointTest", "SelfScorePairRejected",
                     SelfScorePair);
  RegisterCorruption("TombstoneCheckpointCorruptionTest",
                     "MixedVersionImageRejected",
                     "TombstoneShardedCheckpointTest",
                     "MixedVersionShardFilesRejected", MixedVersion);
  RegisterCorruption(nullptr, nullptr, "ShardedCheckpointCorruptionTest",
                     "MisplacedScoresRejected", MisplacedScores);
  RegisterCorruption("BlockingStateCorruptionTest",
                     "ImagePostingsNotAscendingRejected",
                     "BlockingStateCorruptionTest",
                     "DirectoryPostingsNotAscendingRejected",
                     PostingsNotAscending);
  RegisterCorruption("BlockingStateCorruptionTest",
                     "ImageIndexRecordCountMismatchRejected",
                     "BlockingStateCorruptionTest",
                     "DirectoryIndexRecordCountMismatchRejected",
                     IndexRecordCountDisagrees);
  RegisterCorruption("BlockingStateCorruptionTest",
                     "ImageIndexPairSetMismatchRejected",
                     "BlockingStateCorruptionTest",
                     "DirectoryIndexPairSetMismatchRejected",
                     IndexPairSetDisagreesWithProvenance);
  RegisterCorruption("BlockingStateCorruptionTest",
                     "ImageTokenDfMismatchRejected",
                     "BlockingStateCorruptionTest",
                     "DirectoryTokenDfMismatchRejected",
                     TokenDfDisagreesWithPostings);
  RegisterCorruption("ComponentStoreCorruptionTest",
                     "ImageComponentEdgeMissingRejected",
                     "ComponentStoreCorruptionTest",
                     "DirectoryComponentEdgeMissingRejected",
                     ComponentEdgeMissing);
  return true;
}

const bool kRegistered = RegisterAll();

}  // namespace
}  // namespace gralmatch
