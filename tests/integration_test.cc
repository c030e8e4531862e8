// End-to-end integration tests: generate a small synthetic financial
// benchmark, block, match with the fast classical matcher, run GraLMatch
// and verify the paper's qualitative claims (pre-cleanup precision collapse,
// post-cleanup recovery, securities matching via issuer blocking).

#include <string>

#include <gtest/gtest.h>

#include "blocking/id_overlap.h"
#include "blocking/issuer_match.h"
#include "blocking/token_overlap.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "eval/metrics.h"
#include "matching/baselines.h"
#include "matching/cascade_matcher.h"
#include "matching/pair_sampling.h"
#include "matching/transformer_matcher.h"

namespace gralmatch {
namespace {

class FinancialEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig config;
    config.seed = 505;
    config.num_groups = 250;
    bench_ = new FinancialBenchmark(FinancialGenerator(config).Generate());

    // Train the classical matcher on sampled pairs from the full dataset.
    Rng rng(1);
    GroupSplit split = SplitByGroups(bench_->companies.truth, &rng);
    PairSamplingOptions opts;
    auto train = SamplePairs(bench_->companies, split, SplitPart::kTrain, opts);
    matcher_ = new TfidfLogRegMatcher();
    matcher_->Train(bench_->companies.records, train);
  }

  static void TearDownTestSuite() {
    delete bench_;
    delete matcher_;
    bench_ = nullptr;
    matcher_ = nullptr;
  }

  static CandidateSet CompanyCandidates() {
    CandidateSet out;
    IdOverlapBlocker id_blocker(&bench_->securities.records);
    id_blocker.AddCandidates(bench_->companies, &out);
    TokenOverlapBlocker::Options topts;
    topts.top_n = 5;
    TokenOverlapBlocker token_blocker(topts);
    token_blocker.AddCandidates(bench_->companies, &out);
    return out;
  }

  static FinancialBenchmark* bench_;
  static TfidfLogRegMatcher* matcher_;
};

FinancialBenchmark* FinancialEndToEnd::bench_ = nullptr;
TfidfLogRegMatcher* FinancialEndToEnd::matcher_ = nullptr;

TEST_F(FinancialEndToEnd, BlockingFindsMostTruePairs) {
  CandidateSet candidates = CompanyCandidates();
  ASSERT_GT(candidates.size(), 0u);

  uint64_t found_true = 0;
  for (const auto& cand : candidates.ToVector()) {
    if (bench_->companies.truth.IsMatch(cand.pair)) ++found_true;
  }
  uint64_t total_true = bench_->companies.truth.NumTrueMatches();
  EXPECT_GT(static_cast<double>(found_true) / total_true, 0.6)
      << "blocking recall too low: " << found_true << "/" << total_true;
}

TEST_F(FinancialEndToEnd, CleanupImprovesGroupPrecision) {
  CandidateSet candidates = CompanyCandidates();

  PipelineConfig config;
  config.cleanup.gamma = 25;
  config.cleanup.mu = 5;
  config.pre_cleanup_threshold = 50;
  EntityGroupPipeline pipeline(config);
  PipelineResult result =
      pipeline.Run(bench_->companies, candidates.ToVector(), *matcher_);

  PrfMetrics pre = GroupPrf(result.pre_cleanup_components,
                            bench_->companies.truth);
  PrfMetrics post = GroupPrf(result.groups, bench_->companies.truth);

  EXPECT_GE(post.Precision(), pre.Precision());
  EXPECT_GT(post.Precision(), 0.6);
  EXPECT_GT(post.F1(), 0.3);

  double pre_purity =
      ClusterPurity(result.pre_cleanup_components, bench_->companies.truth);
  double post_purity = ClusterPurity(result.groups, bench_->companies.truth);
  EXPECT_GE(post_purity, pre_purity);

  // Cleanup enforces the group-size bound mu.
  EXPECT_LE(LargestComponent(result.groups), 10u);
}

TEST_F(FinancialEndToEnd, SecuritiesMatchableViaIssuerBlocking) {
  // Step 1: match companies (use ground truth groups as the "previous
  // matching" to isolate the securities blocking behaviour).
  std::vector<int64_t> company_group(bench_->companies.records.size(), -1);
  for (size_t i = 0; i < bench_->companies.records.size(); ++i) {
    company_group[i] = bench_->companies.truth.entity_of(
        static_cast<RecordId>(i));
  }

  CandidateSet candidates;
  IdOverlapBlocker id_blocker;
  id_blocker.AddCandidates(bench_->securities, &candidates);
  IssuerMatchBlocker issuer_blocker(&company_group);
  issuer_blocker.AddCandidates(bench_->securities, &candidates);

  uint64_t found_true = 0;
  for (const auto& cand : candidates.ToVector()) {
    if (bench_->securities.truth.IsMatch(cand.pair)) ++found_true;
  }
  uint64_t total_true = bench_->securities.truth.NumTrueMatches();
  EXPECT_GT(static_cast<double>(found_true) / total_true, 0.75)
      << found_true << "/" << total_true;

  // Issuer blocking must contribute pairs that ID overlap alone misses
  // (NoIdOverlaps groups, generic names).
  size_t issuer_only = 0;
  for (const auto& cand : candidates.ToVector()) {
    if (cand.provenance == kBlockerIssuerMatch &&
        bench_->securities.truth.IsMatch(cand.pair)) {
      ++issuer_only;
    }
  }
  EXPECT_GT(issuer_only, 0u);
}

TEST_F(FinancialEndToEnd, IdHeuristicAloneIsImprecise) {
  // The industry heuristic (ID overlap => match) suffers from the
  // merger-induced identifier overwrites: its precision on securities is
  // below a matcher that also checks text, and below 1 in absolute terms.
  CandidateSet candidates;
  IdOverlapBlocker id_blocker;
  id_blocker.AddCandidates(bench_->securities, &candidates);

  HeuristicIdMatcher heuristic;
  uint64_t tp = 0, fp = 0;
  for (const auto& cand : candidates.ToVector()) {
    const Record& a = bench_->securities.records.at(cand.pair.a);
    const Record& b = bench_->securities.records.at(cand.pair.b);
    if (!heuristic.IsMatch(a, b)) continue;
    if (bench_->securities.truth.IsMatch(cand.pair)) ++tp;
    else ++fp;
  }
  ASSERT_GT(tp + fp, 0u);
  double precision = static_cast<double>(tp) / (tp + fp);
  EXPECT_LT(precision, 1.0);
  EXPECT_GT(precision, 0.8);  // but it is still a strong signal
}

// ---------------------------------------------------------------------------
// Parallel execution determinism: the pipeline output must be identical for
// every num_threads, and wall-clock-free CleanupStats counters must agree.
// ---------------------------------------------------------------------------

void ExpectSameCountersAs(const CleanupStats& actual,
                          const CleanupStats& expected) {
  EXPECT_EQ(actual.pre_cleanup_edges_removed,
            expected.pre_cleanup_edges_removed);
  EXPECT_EQ(actual.min_cut_calls, expected.min_cut_calls);
  EXPECT_EQ(actual.min_cut_edges_removed, expected.min_cut_edges_removed);
  EXPECT_EQ(actual.betweenness_calls, expected.betweenness_calls);
  EXPECT_EQ(actual.betweenness_edges_removed,
            expected.betweenness_edges_removed);
}

TEST_F(FinancialEndToEnd, PipelineIdenticalAcrossThreadCounts) {
  CandidateSet candidates = CompanyCandidates();
  auto candidate_vec = candidates.ToVector();

  PipelineConfig config;
  config.cleanup.gamma = 25;
  config.cleanup.mu = 5;
  config.pre_cleanup_threshold = 50;
  PipelineResult baseline = EntityGroupPipeline(config).Run(
      bench_->companies, candidate_vec, *matcher_);
  EXPECT_GT(baseline.inference_seconds, 0.0);

  for (size_t threads : {2u, 8u}) {
    config.num_threads = threads;
    PipelineResult result = EntityGroupPipeline(config).Run(
        bench_->companies, candidate_vec, *matcher_);
    EXPECT_EQ(result.predicted_pairs, baseline.predicted_pairs)
        << "threads=" << threads;
    EXPECT_EQ(result.pre_cleanup_components, baseline.pre_cleanup_components)
        << "threads=" << threads;
    EXPECT_EQ(result.groups, baseline.groups) << "threads=" << threads;
    ExpectSameCountersAs(result.cleanup_stats, baseline.cleanup_stats);
    EXPECT_GT(result.inference_seconds, 0.0) << "threads=" << threads;
  }
}

/// Forwarding wrapper that deliberately does NOT override ScoreBatch, so it
/// scores through the default per-pair loop — the reference side of the
/// batched-vs-per-pair differential tests.
class PerPairOnlyMatcher : public PairwiseMatcher {
 public:
  explicit PerPairOnlyMatcher(const PairwiseMatcher* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  double MatchProbability(const Record& a, const Record& b) const override {
    return inner_->MatchProbability(a, b);
  }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }

 private:
  const PairwiseMatcher* inner_;
};

TEST_F(FinancialEndToEnd, BatchedTransformerScoringIdenticalToPerPair) {
  // The batched scoring path (ScorePairsBatched -> TransformerMatcher::
  // ScoreBatch -> packed PredictBatch) must reproduce the per-pair walk
  // bitwise for every thread count: identical predicted pairs, components,
  // groups and counters (ScorePairsBatchedTest in core_test pins every
  // batch size). PredictBatch prunes the last
  // block to the [CLS] rows; at one layer that block is also the first, so
  // two layers are run as well.
  CandidateSet candidates = CompanyCandidates();
  auto candidate_vec = candidates.ToVector();
  ASSERT_GT(candidate_vec.size(), 400u);
  candidate_vec.resize(400);  // keep the transformer sweep fast

  for (size_t layers : {1u, 2u}) {
    TransformerMatcherConfig tconfig;
    tconfig.max_seq_len = 16;
    tconfig.d_model = 16;
    tconfig.num_layers = layers;
    tconfig.d_ff = 32;
    TransformerMatcher transformer(tconfig);
    transformer.BuildVocab(bench_->companies.records);
    PerPairOnlyMatcher per_pair(&transformer);

    PipelineConfig config;
    config.pre_cleanup_threshold = 50;
    PipelineResult baseline = EntityGroupPipeline(config).Run(
        bench_->companies, candidate_vec, per_pair);

    for (size_t threads : {1u, 2u, 8u}) {
      config.num_threads = threads;
      PipelineResult result = EntityGroupPipeline(config).Run(
          bench_->companies, candidate_vec, transformer);
      const std::string context = "layers=" + std::to_string(layers) +
                                  " threads=" + std::to_string(threads);
      EXPECT_EQ(result.predicted_pairs, baseline.predicted_pairs) << context;
      EXPECT_EQ(result.pre_cleanup_components,
                baseline.pre_cleanup_components)
          << context;
      EXPECT_EQ(result.groups, baseline.groups) << context;
      ExpectSameCountersAs(result.cleanup_stats, baseline.cleanup_stats);
    }
  }
}

TEST_F(FinancialEndToEnd, CascadePipelineMatchesExactReferenceOutsideTheBand) {
  // A cascade whose band never fires behaves exactly like its expensive
  // matcher inside the full pipeline (gate scores are in [0,1]; an empty
  // band [0.4, 0.3] escalates nothing, exact_reference escalates all).
  CandidateSet candidates = CompanyCandidates();
  auto candidate_vec = candidates.ToVector();

  HeuristicIdMatcher expensive;
  CascadeMatcher::Options opts;
  opts.lower_threshold = 0.4;
  opts.upper_threshold = 0.3;  // empty band: gate resolves everything
  CascadeMatcher gate_only(matcher_, &expensive, opts);
  opts.exact_reference = true;
  CascadeMatcher reference(matcher_, &expensive, opts);

  PipelineConfig config;
  config.pre_cleanup_threshold = 50;
  PipelineResult expensive_result = EntityGroupPipeline(config).Run(
      bench_->companies, candidate_vec, expensive);
  PipelineResult reference_result = EntityGroupPipeline(config).Run(
      bench_->companies, candidate_vec, reference);
  PipelineResult gate_result = EntityGroupPipeline(config).Run(
      bench_->companies, candidate_vec, *matcher_);
  PipelineResult gate_only_result = EntityGroupPipeline(config).Run(
      bench_->companies, candidate_vec, gate_only);

  // exact_reference == the expensive matcher alone; empty band == the gate.
  EXPECT_EQ(reference_result.predicted_pairs, expensive_result.predicted_pairs);
  EXPECT_EQ(reference_result.groups, expensive_result.groups);
  EXPECT_EQ(gate_only_result.predicted_pairs, gate_result.predicted_pairs);
  EXPECT_EQ(gate_only_result.groups, gate_result.groups);
  EXPECT_EQ(gate_only.stats().escalated, 0u);
  EXPECT_EQ(gate_only.stats().gate_resolved, candidate_vec.size());
  EXPECT_EQ(reference.stats().escalated + reference.stats().gate_resolved,
            candidate_vec.size());
}

TEST_F(FinancialEndToEnd, BlockersIdenticalAcrossThreadCounts) {
  auto candidates_with_threads = [this](size_t threads) {
    CandidateSet out;
    IdOverlapBlocker::Options id_opts;
    id_opts.num_threads = threads;
    IdOverlapBlocker id_blocker(&bench_->securities.records, id_opts);
    id_blocker.AddCandidates(bench_->companies, &out);
    TokenOverlapBlocker::Options topts;
    topts.top_n = 5;
    topts.num_threads = threads;
    TokenOverlapBlocker token_blocker(topts);
    token_blocker.AddCandidates(bench_->companies, &out);
    return out.ToVector();
  };

  auto baseline = candidates_with_threads(1);
  ASSERT_GT(baseline.size(), 0u);
  for (size_t threads : {2u, 8u}) {
    auto parallel = candidates_with_threads(threads);
    ASSERT_EQ(parallel.size(), baseline.size()) << "threads=" << threads;
    for (size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_EQ(parallel[i].pair, baseline[i].pair)
          << "threads=" << threads << " i=" << i;
      ASSERT_EQ(parallel[i].provenance, baseline[i].provenance)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST_F(FinancialEndToEnd, InferenceSecondsPopulatedOnEveryRunPath) {
  CandidateSet candidates = CompanyCandidates();
  auto candidate_vec = candidates.ToVector();
  ASSERT_GT(candidate_vec.size(), 0u);

  PipelineConfig config;
  config.pre_cleanup_threshold = 50;
  for (size_t threads : {1u, 4u}) {
    config.num_threads = threads;
    PipelineResult result = EntityGroupPipeline(config).Run(
        bench_->companies, candidate_vec, *matcher_);
    // Run() times the scoring stage outside the (possibly parallel) loop;
    // the stage scores thousands of pairs, so the wall-clock is non-zero.
    EXPECT_GT(result.inference_seconds, 0.0) << "threads=" << threads;
    EXPECT_GT(result.cleanup_stats.seconds, 0.0) << "threads=" << threads;
  }
}

TEST(WdcIntegration, RunOnPredictionsIdenticalAcrossThreadCounts) {
  WdcConfig config;
  config.num_entities = 150;
  config.seed = 77;
  Dataset products = WdcProductsGenerator(config).Generate();

  std::vector<Candidate> positives;
  for (const auto& pair : products.truth.AllTruePairs()) {
    positives.push_back({pair, kBlockerTokenOverlap});
  }

  PipelineConfig pipe_config;
  pipe_config.cleanup.gamma = 25;
  pipe_config.cleanup.mu = 5;
  PipelineResult baseline = EntityGroupPipeline(pipe_config)
                                .RunOnPredictions(products.records.size(),
                                                  positives);

  for (size_t threads : {2u, 8u}) {
    pipe_config.num_threads = threads;
    PipelineResult result = EntityGroupPipeline(pipe_config)
                                .RunOnPredictions(products.records.size(),
                                                  positives);
    EXPECT_EQ(result.predicted_pairs, baseline.predicted_pairs);
    EXPECT_EQ(result.pre_cleanup_components, baseline.pre_cleanup_components);
    EXPECT_EQ(result.groups, baseline.groups) << "threads=" << threads;
    ExpectSameCountersAs(result.cleanup_stats, baseline.cleanup_stats);
  }
}

TEST(WdcIntegration, HeterogeneousGroupsHurtFixedMu) {
  // The paper's WDC finding: with heterogeneous group sizes, Algorithm 1's
  // mu = #sources assumption over-splits large groups (recall loss).
  WdcConfig config;
  config.num_entities = 150;
  config.seed = 99;
  Dataset products = WdcProductsGenerator(config).Generate();

  // Perfect predictions: all true pairs as positives.
  std::vector<Candidate> positives;
  for (const auto& pair : products.truth.AllTruePairs()) {
    positives.push_back({pair, kBlockerTokenOverlap});
  }

  PipelineConfig pipe_config;
  pipe_config.cleanup.gamma = 25;
  pipe_config.cleanup.mu = 5;
  EntityGroupPipeline pipeline(pipe_config);
  PipelineResult result =
      pipeline.RunOnPredictions(products.records.size(), positives);

  PrfMetrics post = GroupPrf(result.groups, products.truth);
  // Precision stays high (the splits are within true groups)...
  EXPECT_GT(post.Precision(), 0.95);
  // ...but recall drops strictly below 1 because groups larger than mu were
  // chopped, despite the input predictions being perfect.
  EXPECT_LT(post.Recall(), 0.999);
}

}  // namespace
}  // namespace gralmatch
