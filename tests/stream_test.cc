// Differential test suite for the incremental matching subsystem: after any
// sequence of Ingest() calls, IncrementalPipeline::Snapshot() must be
// identical — predicted pairs, pre-cleanup components, groups, and all
// cleanup counters — to a from-scratch EntityGroupPipeline::Run on the union
// of all batches with the same blockers and matcher, at any thread count.
// Schedules cover: one batch (== full run), K equal batches, singleton
// batches, random split points, and source-interleaved arrival order, on
// both the financial-securities and WDC-products fixtures. The suite also
// proves the pair-score cache prevents matcher re-invocation (a counting
// matcher asserts every scored pair is scored exactly once per fingerprint)
// and that a fingerprint change invalidates the cache, and pins the
// canonical emission order when groups of one component interleave with
// another component and with tombstoned records.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "stream/incremental_pipeline.h"
#include "text/normalize.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// Matchers
// ---------------------------------------------------------------------------

/// Deterministic text matcher (token Jaccard of AllText, scaled): avoids
/// transcendental math so scores are bit-identical everywhere, and carries a
/// tunable `scale` that changes its fingerprint.
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

/// Wrapper proving cache effectiveness: counts calls and the distinct pairs
/// seen (via the "_uid" metadata attribute the fixtures stamp on every
/// record). Thread-safe, as the pipeline requires.
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

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Records of `table` as a vector, each stamped with a unique "_uid"
/// metadata attribute (excluded from matching inputs by convention).
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

/// From-scratch reference: the same blockers and pipeline configuration the
/// incremental pipeline maintains, run on the full record set.
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

/// Ingest `records` in batches of the given sizes and differential-check
/// every `check_every`-th ingest (and always the last) against the
/// from-scratch reference.
void RunSchedule(const std::vector<Record>& records,
                 const std::vector<size_t>& batch_sizes,
                 const IncrementalPipelineConfig& config,
                 const PairwiseMatcher& matcher, size_t check_every = 1) {
  IncrementalPipeline pipeline(config);
  size_t offset = 0;
  for (size_t b = 0; b < batch_sizes.size(); ++b) {
    const size_t size = batch_sizes[b];
    ASSERT_LE(offset + size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(offset),
                              records.begin() +
                                  static_cast<long>(offset + size));
    ASSERT_TRUE(pipeline.Ingest(batch, matcher).ok());
    offset += size;
    const bool last = b + 1 == batch_sizes.size();
    if (!last && (b + 1) % check_every != 0) continue;
    const std::string context = "after batch " + std::to_string(b + 1) + "/" +
                                std::to_string(batch_sizes.size()) +
                                " (threads=" +
                                std::to_string(config.pipeline.num_threads) +
                                ")";
    ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                     RunBatchReference(pipeline.records(), config, matcher),
                     context);
  }
  ASSERT_EQ(offset, records.size());
}

std::vector<size_t> EqualBatches(size_t n, size_t k) {
  std::vector<size_t> sizes(k, n / k);
  sizes.back() += n % k;
  return sizes;
}

/// Pipeline configuration tightened so every cleanup phase actually fires
/// on these fixture sizes (pre-cleanup edge removal, min-cut splits and
/// betweenness trims all have nonzero counters — verified by the counter
/// comparison in ExpectEquivalent being non-vacuous).
IncrementalPipelineConfig StreamConfig(size_t num_threads,
                                       double match_threshold) {
  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 6;
  config.pipeline.cleanup.mu = 3;
  config.pipeline.pre_cleanup_threshold = 9;
  config.pipeline.match_threshold = match_threshold;
  config.pipeline.num_threads = num_threads;
  config.token.top_n = 5;
  return config;
}

// ---------------------------------------------------------------------------
// Financial fixture
// ---------------------------------------------------------------------------

class FinancialStream : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig config;
    config.seed = 505;
    config.num_groups = 60;
    FinancialBenchmark bench = FinancialGenerator(config).Generate();
    records_ = new std::vector<Record>(WithUids(bench.securities.records));
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }

  static std::vector<Record>* records_;
};

std::vector<Record>* FinancialStream::records_ = nullptr;

TEST_F(FinancialStream, SingleBatchEqualsFullRun) {
  JaccardMatcher matcher;
  RunSchedule(*records_, {records_->size()}, StreamConfig(1, 0.25), matcher);
}

TEST_F(FinancialStream, KBatchesEquivalentAtEveryThreadCount) {
  JaccardMatcher matcher;
  for (size_t threads : {1u, 2u, 8u}) {
    RunSchedule(*records_, EqualBatches(records_->size(), 6),
                StreamConfig(threads, 0.25), matcher);
  }
}

TEST_F(FinancialStream, SingletonBatchesEquivalent) {
  // Every record its own batch: the maximal-churn schedule (document
  // frequencies, the max-df cap, and bucket sizes shift on every ingest).
  SyntheticConfig config;
  config.seed = 505;
  config.num_groups = 40;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();
  std::vector<Record> records = WithUids(bench.securities.records);
  JaccardMatcher matcher;
  RunSchedule(records, std::vector<size_t>(records.size(), 1),
              StreamConfig(1, 0.25), matcher, /*check_every=*/40);
}

TEST_F(FinancialStream, RandomizedSchedulesEquivalent) {
  JaccardMatcher matcher;
  Rng rng(2026);
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> sizes;
    size_t remaining = records_->size();
    while (remaining > 0) {
      size_t size = 1 + rng.Uniform(remaining < 90 ? remaining : 90);
      sizes.push_back(size);
      remaining -= size;
    }
    RunSchedule(*records_, sizes, StreamConfig(1, 0.25), matcher,
                /*check_every=*/2);
  }
}

TEST_F(FinancialStream, InterleavedSourceArrivalEquivalent) {
  // Sources drip-feed round-robin (vendor A's file, then vendor B's, ...):
  // the union is a reordering of the fixture, and equivalence must hold for
  // that arrival order too.
  std::vector<Record> interleaved;
  interleaved.reserve(records_->size());
  std::vector<std::vector<size_t>> by_source;
  for (size_t i = 0; i < records_->size(); ++i) {
    const size_t source = static_cast<size_t>((*records_)[i].source());
    if (by_source.size() <= source) by_source.resize(source + 1);
    by_source[source].push_back(i);
  }
  for (size_t k = 0; !by_source.empty(); ++k) {
    bool any = false;
    for (const auto& ids : by_source) {
      if (k < ids.size()) {
        interleaved.push_back((*records_)[ids[k]]);
        any = true;
      }
    }
    if (!any) break;
  }
  ASSERT_EQ(interleaved.size(), records_->size());
  JaccardMatcher matcher;
  for (size_t threads : {1u, 8u}) {
    RunSchedule(interleaved, EqualBatches(interleaved.size(), 5),
                StreamConfig(threads, 0.25), matcher);
  }
}

TEST_F(FinancialStream, ScoreCachePreventsMatcherReinvocation) {
  JaccardMatcher inner;
  CountingMatcher counting(&inner);
  IncrementalPipelineConfig config = StreamConfig(4, 0.25);
  IncrementalPipeline pipeline(config);
  const std::vector<size_t> sizes = EqualBatches(records_->size(), 8);
  size_t offset = 0;
  for (size_t size : sizes) {
    std::vector<Record> batch(records_->begin() + static_cast<long>(offset),
                              records_->begin() +
                                  static_cast<long>(offset + size));
    ASSERT_TRUE(pipeline.Ingest(batch, counting).ok());
    offset += size;
  }
  // The headline cache property: no pair is ever scored twice.
  EXPECT_GT(counting.calls(), 0u);
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
  EXPECT_EQ(counting.calls(), pipeline.total_matcher_calls());
  // Sanity: the incremental run produced a real result.
  PipelineResult result = pipeline.Snapshot().ValueOrDie();
  EXPECT_GT(result.predicted_pairs.size(), 0u);
  EXPECT_GT(result.groups.size(), 0u);
}

/// Jaccard wrapper that DOES override ScoreBatch (the default loops
/// MatchProbability instead), recording how its pairs arrive. Lets the
/// tests below pin both sides of the batching contract: the pipeline hands
/// the matcher real multi-pair batches, and the scores that come back are
/// identical to the per-pair walk.
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
  size_t batch_calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_calls_;
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

TEST_F(FinancialStream, BatchedScoringEquivalentAcrossThreadsAndBatchSizes) {
  // Ingest with a ScoreBatch-overriding matcher at every thread count and
  // several batch sizes; every snapshot must equal the per-pair reference
  // (plain JaccardMatcher, score_batch_size=1, serial).
  JaccardMatcher inner;
  IncrementalPipelineConfig reference_config = StreamConfig(1, 0.25);
  reference_config.pipeline.score_batch_size = 1;

  for (size_t threads : {1u, 2u, 8u}) {
    for (size_t batch_size : {1u, 7u, 64u}) {
      BatchingJaccardMatcher batching(&inner);
      IncrementalPipelineConfig config = StreamConfig(threads, 0.25);
      config.pipeline.score_batch_size = batch_size;
      IncrementalPipeline pipeline(config);
      size_t offset = 0;
      for (size_t size : EqualBatches(records_->size(), 4)) {
        std::vector<Record> batch(
            records_->begin() + static_cast<long>(offset),
            records_->begin() + static_cast<long>(offset + size));
        ASSERT_TRUE(pipeline.Ingest(batch, batching).ok());
        offset += size;
      }
      const std::string context = "threads=" + std::to_string(threads) +
                                  " batch_size=" + std::to_string(batch_size);
      ExpectEquivalent(
          pipeline.Snapshot().ValueOrDie(),
          RunBatchReference(pipeline.records(), reference_config, inner),
          context);
      // All scoring went through the ScoreBatch override, and no batch
      // exceeded the configured size.
      EXPECT_EQ(batching.single_calls(), 0u) << context;
      EXPECT_EQ(batching.batched_pairs(), pipeline.total_matcher_calls())
          << context;
      EXPECT_LE(batching.max_batch(), batch_size) << context;
    }
  }
}

TEST_F(FinancialStream, ScoreBatchCallAccountingReflectsChunking) {
  // With score_batch_size=16 the matcher must see multi-pair batches: far
  // fewer ScoreBatch calls than pairs, and exactly ceil(n/16) calls per
  // scoring wave — pinned here via the total over a known schedule.
  JaccardMatcher inner;
  BatchingJaccardMatcher batching(&inner);
  IncrementalPipelineConfig config = StreamConfig(1, 0.25);
  config.pipeline.score_batch_size = 16;
  IncrementalPipeline pipeline(config);
  size_t expected_calls = 0;
  size_t offset = 0;
  for (size_t size : EqualBatches(records_->size(), 5)) {
    std::vector<Record> batch(records_->begin() + static_cast<long>(offset),
                              records_->begin() +
                                  static_cast<long>(offset + size));
    const size_t calls_before = batching.batched_pairs();
    IngestReport report = pipeline.Ingest(batch, batching).ValueOrDie();
    offset += size;
    EXPECT_EQ(batching.batched_pairs() - calls_before, report.pairs_scored);
    expected_calls += (report.pairs_scored + 15) / 16;
  }
  EXPECT_EQ(batching.batch_calls(), expected_calls);
  EXPECT_GT(batching.batched_pairs(), batching.batch_calls());
  EXPECT_EQ(batching.batched_pairs(), pipeline.total_matcher_calls());
}

TEST_F(FinancialStream, FingerprintChangeInvalidatesCacheAndStaysEquivalent) {
  JaccardMatcher matcher_v1(1.0);
  JaccardMatcher matcher_v2(1.4);
  ASSERT_NE(matcher_v1.Fingerprint(), matcher_v2.Fingerprint());

  IncrementalPipelineConfig config = StreamConfig(2, 0.25);
  IncrementalPipeline pipeline(config);
  const size_t half = records_->size() / 2;
  std::vector<Record> first(records_->begin(),
                            records_->begin() + static_cast<long>(half));
  std::vector<Record> second(records_->begin() + static_cast<long>(half),
                             records_->end());

  ASSERT_TRUE(pipeline.Ingest(first, matcher_v1).ok());
  const size_t calls_v1 = pipeline.total_matcher_calls();
  EXPECT_GT(calls_v1, 0u);

  // Swapping the matcher (empty batch) rescores every current candidate and
  // the snapshot tracks the new matcher's from-scratch result.
  IngestReport swap = pipeline.Ingest({}, matcher_v2).ValueOrDie();
  EXPECT_EQ(swap.records_added, 0u);
  EXPECT_GT(swap.pairs_scored, 0u);
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   RunBatchReference(pipeline.records(), config, matcher_v2),
                   "after matcher swap");

  ASSERT_TRUE(pipeline.Ingest(second, matcher_v2).ok());
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   RunBatchReference(pipeline.records(), config, matcher_v2),
                   "after matcher swap + second half");
}

TEST_F(FinancialStream, EmptyBatchIsANoOp) {
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = StreamConfig(1, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  PipelineResult before = pipeline.Snapshot().ValueOrDie();
  const size_t calls = pipeline.total_matcher_calls();

  IngestReport report = pipeline.Ingest({}, matcher).ValueOrDie();
  EXPECT_EQ(report.records_added, 0u);
  EXPECT_EQ(report.pairs_scored, 0u);
  EXPECT_EQ(report.candidates_added, 0u);
  EXPECT_EQ(report.candidates_removed, 0u);
  EXPECT_EQ(report.components_rebuilt, 0u);
  EXPECT_EQ(pipeline.total_matcher_calls(), calls);
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(), before, "after empty batch");
}

TEST_F(FinancialStream, ReportsObserveIncrementalScoping) {
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = StreamConfig(1, 0.25);
  IncrementalPipeline pipeline(config);
  const std::vector<size_t> sizes = EqualBatches(records_->size(), 6);
  size_t offset = 0;
  size_t reused_total = 0;
  for (size_t size : sizes) {
    std::vector<Record> batch(records_->begin() + static_cast<long>(offset),
                              records_->begin() +
                                  static_cast<long>(offset + size));
    IngestReport report = pipeline.Ingest(batch, matcher).ValueOrDie();
    offset += size;
    EXPECT_EQ(report.records_added, size);
    reused_total += report.components_reused;
  }
  // Later batches must splice some untouched components through unchanged —
  // the point of dirty-component scoping.
  EXPECT_GT(reused_total, 0u);
}

// ---------------------------------------------------------------------------
// Canonical emission order
// ---------------------------------------------------------------------------

/// Scores 1 exactly for the listed pairs of record names "r<k>", else 0.
class EdgeListMatcher : public PairwiseMatcher {
 public:
  explicit EdgeListMatcher(std::set<std::pair<int, int>> edges)
      : edges_(std::move(edges)) {}

  std::string name() const override { return "edge-list"; }
  std::string Fingerprint() const override { return "edge-list"; }
  double MatchProbability(const Record& a, const Record& b) const override {
    const int x = std::stoi(std::string(a.Get("name")).substr(1));
    const int y = std::stoi(std::string(b.Get("name")).substr(1));
    return edges_.count({std::min(x, y), std::max(x, y)}) ? 1.0 : 0.0;
  }

 private:
  std::set<std::pair<int, int>> edges_;
};

TEST(CanonicalOrderTest, InterleavedGroupsAndTombstonesMatchTheBatchOrder) {
  // Twelve records from twelve sources in one identifier bucket, so every
  // pair is a candidate and the matcher alone draws the graph. Component A is the path
  // 0-3-6-9-8; removing 8 leaves 0-3-6-9, which the betweenness phase
  // (mu = 3) splits into {0,3} and {6,9}. Component B = {4,5} has its
  // smallest node between A's two groups, and the tombstoned singletons 1
  // and 7 sit between them too. A is rebuilt by the removal under a fresh
  // component id, so store order differs from canonical order.
  const EdgeListMatcher matcher({{0, 3}, {3, 6}, {6, 9}, {8, 9}, {4, 5}});
  std::vector<Record> records;
  for (int k = 0; k < 12; ++k) {
    Record rec(static_cast<SourceId>(k), RecordKind::kSecurity);
    rec.Set("name", "r" + std::to_string(k));
    rec.Set("isin", "SHARED");
    records.push_back(std::move(rec));
  }
  const std::vector<std::vector<NodeId>> expected_components = {
      {0, 3, 6, 9}, {2}, {4, 5}, {10}, {11}};
  const std::vector<std::vector<NodeId>> expected_groups = {
      {0, 3}, {2}, {4, 5}, {6, 9}, {10}, {11}};

  for (const size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    IncrementalPipelineConfig config = StreamConfig(num_threads, 0.5);
    config.use_token_blocker = false;
    IncrementalPipeline pipeline(config);
    ASSERT_TRUE(pipeline
                    .Ingest(std::vector<Record>(records.begin(),
                                                records.begin() + 6),
                            matcher)
                    .ok());
    ASSERT_TRUE(
        pipeline
            .Ingest(std::vector<Record>(records.begin() + 6, records.end()),
                    matcher)
            .ok());
    ASSERT_TRUE(pipeline.Remove({1, 7, 8}, matcher).ok());
    const PipelineResult snapshot = pipeline.Snapshot().ValueOrDie();
    EXPECT_EQ(snapshot.pre_cleanup_components, expected_components);
    EXPECT_EQ(snapshot.groups, expected_groups);

    // The batch run on the survivors, its compact ids mapped back.
    RecordTable survivors;
    std::vector<NodeId> original;
    for (size_t i = 0; i < pipeline.records().size(); ++i) {
      if (!pipeline.is_alive(static_cast<RecordId>(i))) continue;
      survivors.Add(pipeline.records().at(static_cast<RecordId>(i)));
      original.push_back(static_cast<NodeId>(i));
    }
    PipelineResult reference = RunBatchReference(survivors, config, matcher);
    for (RecordPair& pair : reference.predicted_pairs) {
      pair = RecordPair(original[static_cast<size_t>(pair.a)],
                        original[static_cast<size_t>(pair.b)]);
    }
    for (auto* sets : {&reference.pre_cleanup_components, &reference.groups}) {
      for (std::vector<NodeId>& nodes : *sets) {
        for (NodeId& u : nodes) u = original[static_cast<size_t>(u)];
      }
    }
    ExpectEquivalent(snapshot, reference, "survivor reference");
  }
}

// ---------------------------------------------------------------------------
// WDC products fixture
// ---------------------------------------------------------------------------

TEST(PipelineConfigCodecTest, RoundTripsAndRejectsNonBooleanFlags) {
  IncrementalPipelineConfig config = StreamConfig(3, 0.25);
  config.use_id_blocker = false;
  BinaryWriter writer;
  WritePipelineConfig(config, &writer);

  BinaryReader reader(writer.buffer());
  IncrementalPipelineConfig decoded;
  ASSERT_TRUE(ReadPipelineConfig(&reader, 0, &decoded).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded.pipeline.cleanup.gamma, config.pipeline.cleanup.gamma);
  EXPECT_EQ(decoded.pipeline.match_threshold, config.pipeline.match_threshold);
  EXPECT_EQ(decoded.pipeline.num_threads, 3u);
  EXPECT_EQ(decoded.token.top_n, config.token.top_n);
  EXPECT_TRUE(decoded.use_token_blocker);
  EXPECT_FALSE(decoded.use_id_blocker);

  BinaryReader overridden(writer.buffer());
  ASSERT_TRUE(ReadPipelineConfig(&overridden, 8, &decoded).ok());
  EXPECT_EQ(decoded.pipeline.num_threads, 8u);

  // The two flag bytes end the section; 2 would load as "on" and re-save
  // as 1, so it is corruption.
  std::string bytes = writer.buffer();
  bytes[bytes.size() - 2] = 2;
  BinaryReader bad(bytes);
  EXPECT_EQ(ReadPipelineConfig(&bad, 0, &decoded).code(),
            StatusCode::kIoError);
}

TEST(WdcStream, KBatchesEquivalentAtEveryThreadCount) {
  WdcConfig config;
  config.num_entities = 120;
  config.seed = 77;
  Dataset products = WdcProductsGenerator(config).Generate();
  std::vector<Record> records = WithUids(products.records);
  JaccardMatcher matcher;
  for (size_t threads : {1u, 2u, 8u}) {
    RunSchedule(records, EqualBatches(records.size(), 5),
                StreamConfig(threads, 0.35), matcher);
  }
}

TEST(WdcStream, RandomizedSchedulesEquivalent) {
  WdcConfig config;
  config.num_entities = 120;
  config.seed = 77;
  Dataset products = WdcProductsGenerator(config).Generate();
  std::vector<Record> records = WithUids(products.records);
  JaccardMatcher matcher;
  Rng rng(7);
  for (int round = 0; round < 2; ++round) {
    std::vector<size_t> sizes;
    size_t remaining = records.size();
    while (remaining > 0) {
      size_t size = 1 + rng.Uniform(remaining < 70 ? remaining : 70);
      sizes.push_back(size);
      remaining -= size;
    }
    RunSchedule(records, sizes, StreamConfig(1, 0.35), matcher,
                /*check_every=*/2);
  }
}

TEST(WdcStream, ScoreCacheOnProductsNeverRescores) {
  WdcConfig config;
  config.num_entities = 120;
  config.seed = 77;
  Dataset products = WdcProductsGenerator(config).Generate();
  std::vector<Record> records = WithUids(products.records);
  JaccardMatcher inner;
  CountingMatcher counting(&inner);
  IncrementalPipeline pipeline(StreamConfig(2, 0.35));
  size_t offset = 0;
  for (size_t size : EqualBatches(records.size(), 7)) {
    std::vector<Record> batch(records.begin() + static_cast<long>(offset),
                              records.begin() +
                                  static_cast<long>(offset + size));
    ASSERT_TRUE(pipeline.Ingest(batch, counting).ok());
    offset += size;
  }
  EXPECT_GT(counting.calls(), 0u);
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
  EXPECT_EQ(counting.calls(), pipeline.total_matcher_calls());
}

// ---------------------------------------------------------------------------
// Poisoned-pipeline fail-fast
// ---------------------------------------------------------------------------

/// Matcher that throws once its call budget is exhausted — models a flaky
/// remote scorer dying mid-ingest. Starts with an unlimited budget; ArmAfter
/// restricts the remaining healthy calls.
class ThrowingMatcher : public PairwiseMatcher {
 public:
  std::string name() const override { return "throwing"; }
  std::string Fingerprint() const override { return "throwing#1"; }
  double MatchProbability(const Record& a, const Record& b) const override {
    std::lock_guard<std::mutex> lock(mu_);
    if (budget_ == 0) throw std::runtime_error("scorer backend unavailable");
    if (budget_ != SIZE_MAX) --budget_;
    return JaccardMatcher().MatchProbability(a, b);
  }

  void ArmAfter(size_t calls) {
    std::lock_guard<std::mutex> lock(mu_);
    budget_ = calls;
  }

 private:
  mutable std::mutex mu_;
  mutable size_t budget_ = SIZE_MAX;
};

TEST_F(FinancialStream, ThrowingMatcherPoisonsThePipeline) {
  IncrementalPipeline pipeline(StreamConfig(2, 0.25));
  const size_t half = records_->size() / 2;
  std::vector<Record> first(records_->begin(),
                            records_->begin() + static_cast<long>(half));
  std::vector<Record> second(records_->begin() + static_cast<long>(half),
                             records_->end());

  // A healthy ingest, then one whose matcher dies mid-scoring: records and
  // blocking indexes are already updated when the throw happens, so the
  // pipeline transitions to the poisoned state instead of pretending the
  // half-applied ingest succeeded.
  ThrowingMatcher matcher;
  ASSERT_TRUE(pipeline.Ingest(first, matcher).ok());
  ASSERT_TRUE(pipeline.status().ok());

  matcher.ArmAfter(/*calls=*/3);
  Result<IngestReport> aborted = pipeline.Ingest(second, matcher);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kInternal);
  EXPECT_NE(aborted.status().message().find("scorer backend unavailable"),
            std::string::npos);

  // Every subsequent state-observing operation fails with the same clean
  // error — no unspecified state ever escapes.
  EXPECT_FALSE(pipeline.status().ok());
  Result<IngestReport> again = pipeline.Ingest({}, matcher);
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.status().message().find("poisoned"), std::string::npos);
  Result<PipelineResult> snapshot = pipeline.Snapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(snapshot.status().message().find("poisoned"), std::string::npos);
  BinaryWriter writer;
  Status serialized = pipeline.Serialize(&writer);
  ASSERT_FALSE(serialized.ok());
  EXPECT_NE(serialized.message().find("poisoned"), std::string::npos);
}

TEST_F(FinancialStream, MatcherThrowOnFirstIngestAlsoPoisons) {
  IncrementalPipeline pipeline(StreamConfig(1, 0.25));
  ThrowingMatcher matcher;
  matcher.ArmAfter(/*calls=*/0);
  Result<IngestReport> aborted = pipeline.Ingest(*records_, matcher);
  ASSERT_FALSE(aborted.ok());
  EXPECT_FALSE(pipeline.Snapshot().ok());
  EXPECT_FALSE(pipeline.status().ok());
}

}  // namespace
}  // namespace gralmatch
