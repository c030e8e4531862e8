// Tests for the core GraLMatch module: the Pre-Cleanup, Algorithm 1 and the
// end-to-end pipeline stage snapshots.

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cleanup.h"
#include "core/embeddedness.h"
#include "core/label_propagation.h"
#include "core/pipeline.h"
#include "core/score_batching.h"
#include "exec/thread_pool.h"
#include "matching/baselines.h"

namespace gralmatch {
namespace {

// Two K5 cliques joined by one false edge.
void BuildTwoCliques(Graph* g, EdgeId* bridge) {
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      g->AddEdge(a, b).ValueOrDie();
      g->AddEdge(a + 5, b + 5).ValueOrDie();
    }
  }
  *bridge = g->AddEdge(2, 7).ValueOrDie();
}

TEST(CleanupTest, SplitsBridgedCliquesWithMinCut) {
  Graph g;
  EdgeId bridge;
  BuildTwoCliques(&g, &bridge);

  GraphCleanupConfig config;
  config.gamma = 6;  // the 10-node component exceeds gamma
  config.mu = 5;
  GraLMatchCleanup cleanup(config);
  CleanupStats stats;
  auto groups = cleanup.Run(&g, &stats);

  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(groups[1], (std::vector<NodeId>{5, 6, 7, 8, 9}));
  EXPECT_FALSE(g.edge_alive(bridge));
  EXPECT_GE(stats.min_cut_calls, 1u);
  EXPECT_EQ(stats.min_cut_edges_removed, 1u);
}

TEST(CleanupTest, BetweennessOnlyVariantAlsoSplits) {
  Graph g;
  EdgeId bridge;
  BuildTwoCliques(&g, &bridge);

  GraphCleanupConfig config;
  config.gamma = GraphCleanupConfig::kNoMinCut;  // "-BC" variant
  config.mu = 5;
  GraLMatchCleanup cleanup(config);
  CleanupStats stats;
  auto groups = cleanup.Run(&g, &stats);

  ASSERT_EQ(groups.size(), 2u);
  EXPECT_FALSE(g.edge_alive(bridge));
  EXPECT_EQ(stats.min_cut_calls, 0u);
  EXPECT_GE(stats.betweenness_calls, 1u);
}

TEST(CleanupTest, MecOnlyVariantStopsAtMu) {
  Graph g;
  EdgeId bridge;
  BuildTwoCliques(&g, &bridge);

  GraphCleanupConfig config;
  config.gamma = 5;  // gamma == mu: the "-MEC" variant
  config.mu = 5;
  GraLMatchCleanup cleanup(config);
  CleanupStats stats;
  auto groups = cleanup.Run(&g, &stats);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(stats.betweenness_edges_removed, 0u);
}

TEST(CleanupTest, SmallComponentsUntouched) {
  Graph g(6);
  g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(1, 2).ValueOrDie();
  g.AddEdge(3, 4).ValueOrDie();
  GraLMatchCleanup cleanup(GraphCleanupConfig{25, 5});
  auto groups = cleanup.Run(&g);
  EXPECT_EQ(g.num_edges_alive(), 3u);
  EXPECT_EQ(groups.size(), 3u);  // {0,1,2}, {3,4}, {5}
}

TEST(CleanupTest, AllGroupsRespectMuOnDenseGraph) {
  // A 14-node "blob": two K6 cliques bridged by 2 edges plus a pendant pair.
  Graph g(14);
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      g.AddEdge(a, b).ValueOrDie();
      g.AddEdge(a + 6, b + 6).ValueOrDie();
    }
  }
  g.AddEdge(0, 6).ValueOrDie();
  g.AddEdge(1, 7).ValueOrDie();
  g.AddEdge(11, 12).ValueOrDie();
  g.AddEdge(12, 13).ValueOrDie();

  GraphCleanupConfig config;
  config.gamma = 8;
  config.mu = 6;
  GraLMatchCleanup cleanup(config);
  auto groups = cleanup.Run(&g);
  for (const auto& comp : groups) {
    EXPECT_LE(comp.size(), config.mu);
  }
}

TEST(CleanupTest, ParallelRunMatchesSerialOnBridgedCliques) {
  GraphCleanupConfig config;
  config.gamma = 6;
  config.mu = 5;
  GraLMatchCleanup cleanup(config);

  Graph serial_g;
  EdgeId serial_bridge;
  BuildTwoCliques(&serial_g, &serial_bridge);
  CleanupStats serial_stats;
  auto serial_groups = cleanup.Run(&serial_g, &serial_stats);

  for (size_t threads : {2u, 4u}) {
    Graph parallel_g;
    EdgeId parallel_bridge;
    BuildTwoCliques(&parallel_g, &parallel_bridge);
    CleanupStats parallel_stats;
    ThreadPool pool(threads);
    auto parallel_groups = cleanup.Run(&parallel_g, &parallel_stats, &pool);

    EXPECT_EQ(parallel_groups, serial_groups) << "threads=" << threads;
    EXPECT_FALSE(parallel_g.edge_alive(parallel_bridge));
    EXPECT_EQ(parallel_stats.min_cut_calls, serial_stats.min_cut_calls);
    EXPECT_EQ(parallel_stats.min_cut_edges_removed,
              serial_stats.min_cut_edges_removed);
    EXPECT_EQ(parallel_g.num_edges_alive(), serial_g.num_edges_alive());
  }
}

TEST(PreCleanupTest, RemovesTokenOnlyEdgesInLargeComponents) {
  // Star of 60 nodes (above the threshold of 50).
  Graph g(61);
  std::vector<uint32_t> provenance;
  for (int i = 1; i <= 60; ++i) {
    g.AddEdge(0, i).ValueOrDie();
    provenance.push_back(i % 2 == 0 ? kBlockerTokenOverlap
                                    : (kBlockerTokenOverlap | kBlockerIdOverlap));
  }
  CleanupStats stats;
  PreCleanup(&g, provenance, 50, &stats);
  // Half the edges were token-overlap-only.
  EXPECT_EQ(stats.pre_cleanup_edges_removed, 30u);
  EXPECT_EQ(g.num_edges_alive(), 30u);
}

TEST(PreCleanupTest, SmallComponentsKeepTokenEdges) {
  Graph g(10);
  std::vector<uint32_t> provenance;
  for (int i = 1; i <= 9; ++i) {
    g.AddEdge(0, i).ValueOrDie();
    provenance.push_back(kBlockerTokenOverlap);
  }
  CleanupStats stats;
  PreCleanup(&g, provenance, 50, &stats);
  EXPECT_EQ(stats.pre_cleanup_edges_removed, 0u);
  EXPECT_EQ(g.num_edges_alive(), 9u);

  // Threshold 0 disables the step entirely.
  PreCleanup(&g, provenance, 0, &stats);
  EXPECT_EQ(g.num_edges_alive(), 9u);
}

// A matcher with a deliberate false positive between two groups.
class PlantedMatcher : public PairwiseMatcher {
 public:
  std::string name() const override { return "planted"; }
  double MatchProbability(const Record& a, const Record& b) const override {
    // Same "group" attribute value => match; plus one planted false pair.
    if (a.Get("group") == b.Get("group")) return 0.95;
    if ((a.Get("uid") == "2" && b.Get("uid") == "8") ||
        (a.Get("uid") == "8" && b.Get("uid") == "2")) {
      return 0.9;  // the false positive bridge
    }
    return 0.05;
  }
};

TEST(PipelineTest, StagesShowCollapseAndRecovery) {
  // Two entities of 5 records each across 5 sources.
  Dataset ds;
  for (int e = 0; e < 2; ++e) {
    for (int s = 0; s < 5; ++s) {
      Record rec(static_cast<SourceId>(s), RecordKind::kCompany);
      rec.Set("group", e == 0 ? "left" : "right");
      rec.Set("uid", std::to_string(e * 5 + s));
      ds.truth.Assign(ds.records.Add(std::move(rec)), e);
    }
  }
  // All cross-source pairs as candidates.
  std::vector<Candidate> candidates;
  for (RecordId a = 0; a < 10; ++a) {
    for (RecordId b = a + 1; b < 10; ++b) {
      if (ds.records.at(a).source() == ds.records.at(b).source()) continue;
      candidates.push_back({RecordPair(a, b), kBlockerTokenOverlap});
    }
  }

  PipelineConfig config;
  config.cleanup.gamma = 8;
  config.cleanup.mu = 5;
  EntityGroupPipeline pipeline(config);
  PlantedMatcher matcher;
  PipelineResult result = pipeline.Run(ds, candidates, matcher);

  // Stage 1: the planted false positive is among the predictions.
  bool planted_found = false;
  for (const auto& pair : result.predicted_pairs) {
    if (pair == RecordPair(2, 8)) planted_found = true;
  }
  EXPECT_TRUE(planted_found);

  // Stage 2: one glued component of 10.
  ASSERT_EQ(result.pre_cleanup_components.size(), 1u);
  EXPECT_EQ(result.pre_cleanup_components[0].size(), 10u);

  // Stage 3: cleanup recovers the two true groups.
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_EQ(result.groups[0].size(), 5u);
  EXPECT_EQ(result.groups[1].size(), 5u);
  EXPECT_GT(result.inference_seconds, 0.0);

  // Group-of-record view.
  auto group_of = result.GroupOfRecord(ds.records.size());
  EXPECT_EQ(group_of[0], group_of[4]);
  EXPECT_NE(group_of[0], group_of[9]);
}

TEST(LabelPropagationTest, ConvergesPerDenseGroup) {
  // Two disconnected cliques of different sizes: each converges to a single
  // community regardless of size (no fixed-mu assumption).
  Graph g(16);
  for (int a = 0; a < 12; ++a) {
    for (int b = a + 1; b < 12; ++b) g.AddEdge(a, b).ValueOrDie();
  }
  for (int a = 12; a < 16; ++a) {
    for (int b = a + 1; b < 16; ++b) g.AddEdge(a, b).ValueOrDie();
  }
  auto groups = LabelPropagationGroups(g);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 12u);
  EXPECT_EQ(groups[1].size(), 4u);
}

TEST(EmbeddednessTest, StrengthValues) {
  // Two K4 cliques joined by one bridge.
  Graph g(8);
  EdgeId internal = g.AddEdge(0, 1).ValueOrDie();
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      if (a == 0 && b == 1) continue;
      g.AddEdge(a, b).ValueOrDie();
      g.AddEdge(a + 4, b + 4).ValueOrDie();
    }
  }
  g.AddEdge(4, 5).ValueOrDie();
  EdgeId bridge = g.AddEdge(0, 4).ValueOrDie();

  // Internal clique edge: both endpoints share the other 2 clique members.
  EXPECT_GT(EdgeEmbeddedness(g, internal), 0.6);
  // The bridge has no common neighbors at all.
  EXPECT_DOUBLE_EQ(EdgeEmbeddedness(g, bridge), 0.0);
}

TEST(EmbeddednessTest, PairsAreKept) {
  Graph g(2);
  EdgeId e = g.AddEdge(0, 1).ValueOrDie();
  EXPECT_DOUBLE_EQ(EdgeEmbeddedness(g, e), 1.0);
  size_t removed = RemoveWeaklyEmbeddedEdges(&g);
  EXPECT_EQ(removed, 0u);
  EXPECT_TRUE(g.edge_alive(e));
}

TEST(EmbeddednessTest, RecoversHeterogeneousBridgedCliques) {
  // A K12 and a K4 joined by one false edge: the fixed-mu cleanup would
  // have to chop the K12; embeddedness filtering removes only the bridge.
  Graph g(16);
  for (int a = 0; a < 12; ++a) {
    for (int b = a + 1; b < 12; ++b) g.AddEdge(a, b).ValueOrDie();
  }
  for (int a = 12; a < 16; ++a) {
    for (int b = a + 1; b < 16; ++b) g.AddEdge(a, b).ValueOrDie();
  }
  EdgeId bridge = g.AddEdge(0, 12).ValueOrDie();

  auto groups = EmbeddednessGroups(&g);
  EXPECT_FALSE(g.edge_alive(bridge));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 12u);
  EXPECT_EQ(groups[1].size(), 4u);
}

TEST(EmbeddednessTest, SinglePassIsOrderIndependent) {
  // A path 0-1-2-3: every internal edge has zero common neighbors, but the
  // decision is made on the original topology, so all edges go in ONE pass
  // (no cascade where removing one edge makes the next look weaker).
  Graph g(4);
  g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(1, 2).ValueOrDie();
  g.AddEdge(2, 3).ValueOrDie();
  size_t removed = RemoveWeaklyEmbeddedEdges(&g);
  // Ends have degree 1 -> their edges are kept; the middle edge (degree 2 on
  // both sides, zero common neighbors) is removed.
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(g.ComponentOf(0).size(), 2u);
}

TEST(LabelPropagationTest, SingletonsAndDeterminism) {
  Graph g(5);
  g.AddEdge(0, 1).ValueOrDie();
  auto a = LabelPropagationGroups(g);
  auto b = LabelPropagationGroups(g);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 4u);  // {0,1} plus three singletons
  EXPECT_EQ(a[0], (std::vector<NodeId>{0, 1}));
}

TEST(LabelPropagationTest, EveryNodeAssignedExactlyOnce) {
  Rng rng(8);
  Graph g(40);
  for (size_t v = 1; v < 40; ++v) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(v)), static_cast<NodeId>(v))
        .ValueOrDie();
  }
  auto groups = LabelPropagationGroups(g);
  std::vector<int> seen(40, 0);
  for (const auto& group : groups) {
    for (NodeId u : group) ++seen[static_cast<size_t>(u)];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(PipelineTest, RunOnPredictionsSkipsInference) {
  std::vector<Candidate> positives = {
      {RecordPair(0, 1), kBlockerIdOverlap},
      {RecordPair(1, 2), kBlockerIdOverlap},
  };
  EntityGroupPipeline pipeline;
  PipelineResult result = pipeline.RunOnPredictions(4, positives);
  EXPECT_EQ(result.predicted_pairs.size(), 2u);
  ASSERT_EQ(result.groups.size(), 2u);  // {0,1,2} and {3}
  EXPECT_EQ(result.groups[0].size(), 3u);
}

// --- ScorePairsBatched ------------------------------------------------------

/// Scores a pair from its ids alone and records every ScoreBatch call:
/// where its slice starts in the job, its size and the calling thread.
/// Throws "pair <a>" on the pairs whose `a` is in `fail_on`.
class RecordingMatcher : public PairwiseMatcher {
 public:
  struct Call {
    size_t begin;
    size_t count;
    std::thread::id thread;
  };

  explicit RecordingMatcher(const RecordPair* job,
                            std::set<RecordId> fail_on = {})
      : job_(job), fail_on_(std::move(fail_on)) {}

  static double Score(const RecordPair& p) {
    return std::sin(0.37 * p.a) * std::exp(0.011 * p.b);
  }

  std::string name() const override { return "recording"; }
  double MatchProbability(const Record&, const Record&) const override {
    ADD_FAILURE() << "ScorePairsBatched must score through ScoreBatch";
    return 0.0;
  }
  void ScoreBatch(const RecordTable&, Span<const RecordPair> pairs,
                  Span<double> out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls_.push_back({static_cast<size_t>(pairs.data() - job_),
                        pairs.size(), std::this_thread::get_id()});
    }
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (fail_on_.count(pairs[i].a) != 0) {
        throw std::runtime_error("pair " + std::to_string(pairs[i].a));
      }
      out[i] = Score(pairs[i]);
    }
  }

  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  const RecordPair* const job_;
  const std::set<RecordId> fail_on_;
  mutable std::mutex mu_;
  mutable std::vector<Call> calls_;
};

std::vector<RecordPair> ScoringJob(size_t n) {
  std::vector<RecordPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back(RecordPair(static_cast<RecordId>(i),
                               static_cast<RecordId>(n + i % 5)));
  }
  return pairs;
}

TEST(ScorePairsBatchedTest, BalancedWorkerAlignedChunksAndBitwiseScores) {
  const RecordTable records;
  for (size_t pool_size : {0u, 2u, 3u, 8u}) {
    std::unique_ptr<ThreadPool> pool =
        pool_size == 0 ? nullptr : std::make_unique<ThreadPool>(pool_size);
    const size_t workers = pool_size == 0 ? 1 : pool_size;
    for (size_t batch : {1u, 7u, 64u}) {
      for (size_t n : {size_t{0}, size_t{1}, batch - 1, batch, batch + 1,
                       3 * batch, 10 * batch + 3}) {
        const std::string context = "pool=" + std::to_string(pool_size) +
                                    " batch=" + std::to_string(batch) +
                                    " n=" + std::to_string(n);
        const std::vector<RecordPair> pairs = ScoringJob(n);
        RecordingMatcher matcher(pairs.data());
        std::vector<double> out(n, -1.0);
        ScorePairsBatched(pool.get(), records, matcher,
                          Span<const RecordPair>(pairs.data(), n), batch,
                          Span<double>(out.data(), n));
        for (size_t i = 0; i < n; ++i) {
          // EXPECT_EQ, not NEAR: chunking must not change a single bit.
          EXPECT_EQ(out[i], RecordingMatcher::Score(pairs[i]))
              << context << " pair " << i;
        }

        std::vector<RecordingMatcher::Call> calls = matcher.calls();
        if (pool == nullptr) {
          // Serial: ceil(n / batch) calls in order on this thread.
          EXPECT_EQ(calls.size(), (n + batch - 1) / batch) << context;
          for (size_t c = 0; c < calls.size(); ++c) {
            EXPECT_EQ(calls[c].thread, std::this_thread::get_id()) << context;
            if (c > 0) {
              EXPECT_LT(calls[c - 1].begin, calls[c].begin) << context;
            }
          }
        }
        std::sort(calls.begin(), calls.end(),
                  [](const RecordingMatcher::Call& x,
                     const RecordingMatcher::Call& y) {
                    return x.begin < y.begin;
                  });
        // Contiguous tiling of [0, n) by equal chunks of <= batch pairs.
        size_t next = 0, smallest = n, largest = 0;
        for (const RecordingMatcher::Call& call : calls) {
          EXPECT_EQ(call.begin, next) << context;
          EXPECT_GE(call.count, 1u) << context;
          EXPECT_LE(call.count, batch) << context;
          next = call.begin + call.count;
          smallest = std::min(smallest, call.count);
          largest = std::max(largest, call.count);
        }
        EXPECT_EQ(next, n) << context;
        if (!calls.empty()) {
          EXPECT_LE(largest - smallest, 1u) << context;
        }
        // As few chunks as possible, rounded up to a multiple of the
        // workers unless that needs more chunks than pairs.
        const size_t min_chunks = (n + batch - 1) / batch;
        const size_t aligned = (min_chunks + workers - 1) / workers * workers;
        if (aligned <= n) {
          EXPECT_EQ(calls.size() % workers, 0u) << context;
          EXPECT_LT(calls.size(), min_chunks + workers) << context;
        } else {
          EXPECT_EQ(calls.size(), n) << context;
        }
      }
    }
  }
}

TEST(ScorePairsBatchedTest, CallFromAPoolWorkerUsesTheSerialLayout) {
  // Nested in one of the pool's workers the job runs inline, so it is not
  // rounded up to the worker count.
  const RecordTable records;
  ThreadPool pool(2);
  const std::vector<RecordPair> pairs = ScoringJob(100);
  RecordingMatcher matcher(pairs.data());
  std::vector<double> out(pairs.size(), -1.0);
  std::promise<std::thread::id> worker;
  pool.Submit([&] {
    ScorePairsBatched(&pool, records, matcher,
                      Span<const RecordPair>(pairs.data(), pairs.size()), 7,
                      Span<double>(out.data(), out.size()));
    worker.set_value(std::this_thread::get_id());
  });
  const std::thread::id worker_id = worker.get_future().get();
  const std::vector<RecordingMatcher::Call> calls = matcher.calls();
  EXPECT_EQ(calls.size(), 15u);  // ceil(100 / 7), not 16
  for (const RecordingMatcher::Call& call : calls) {
    EXPECT_EQ(call.thread, worker_id);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(out[i], RecordingMatcher::Score(pairs[i]));
  }
}

TEST(ScorePairsBatchedTest, LowestFailingPairSurfaces) {
  const RecordTable records;
  const std::vector<RecordPair> pairs = ScoringJob(200);
  for (size_t pool_size : {0u, 2u, 3u, 8u}) {
    std::unique_ptr<ThreadPool> pool =
        pool_size == 0 ? nullptr : std::make_unique<ThreadPool>(pool_size);
    for (size_t batch : {1u, 7u, 64u}) {
      for (const std::set<RecordId>& fail_on :
           {std::set<RecordId>{37, 38, 150, 199}, std::set<RecordId>{199},
            std::set<RecordId>{0, 120}}) {
        RecordingMatcher matcher(pairs.data(), fail_on);
        std::vector<double> out(pairs.size(), 0.0);
        const std::string expected = "pair " + std::to_string(*fail_on.begin());
        try {
          ScorePairsBatched(pool.get(), records, matcher,
                            Span<const RecordPair>(pairs.data(), pairs.size()),
                            batch, Span<double>(out.data(), out.size()));
          ADD_FAILURE() << "no exception; expected " << expected;
        } catch (const std::runtime_error& err) {
          EXPECT_EQ(err.what(), expected)
              << "pool=" << pool_size << " batch=" << batch;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gralmatch
