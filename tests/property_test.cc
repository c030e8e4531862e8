// Parameterized property suites (TEST_P sweeps over seeds/configurations):
// invariants that must hold for *every* random instance — cleanup
// guarantees, blocking soundness, generator well-formedness, serializer
// bounds, metric consistency.

#include <algorithm>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "blocking/id_overlap.h"
#include "blocking/incremental_index.h"
#include "blocking/issuer_match.h"
#include "common/union_find.h"
#include "blocking/token_overlap.h"
#include "core/cleanup.h"
#include "core/embeddedness.h"
#include "core/label_propagation.h"
#include "datagen/financial_gen.h"
#include "datagen/identifiers.h"
#include "datagen/wdc_gen.h"
#include "eval/metrics.h"
#include "exec/thread_pool.h"
#include "matching/baselines.h"
#include "matching/cascade_matcher.h"
#include "matching/serializer.h"
#include "matching/transformer_matcher.h"
#include "matching/variants.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// Cleanup invariants on random graphs.
// ---------------------------------------------------------------------------

class CleanupPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Random graph: several dense communities plus random cross edges.
  Graph MakeNoisyCommunities(Rng* rng, size_t* num_nodes) {
    size_t communities = 3 + rng->Uniform(4);
    std::vector<std::pair<size_t, size_t>> spans;  // [begin, end)
    size_t next = 0;
    for (size_t c = 0; c < communities; ++c) {
      size_t size = 2 + rng->Uniform(9);
      spans.emplace_back(next, next + size);
      next += size;
    }
    *num_nodes = next;
    Graph g(next);
    for (const auto& [begin, end] : spans) {
      // Discard audited: synthetic in-range endpoints, so AddEdge cannot
      // fail; the edge ids are unused (here and for the bridges below).
      for (size_t a = begin; a < end; ++a) {
        // Ring for connectivity + random chords.
        size_t b = a + 1 == end ? begin : a + 1;
        if (b != a) (void)g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(b));
        for (size_t c2 = a + 2; c2 < end; ++c2) {
          if (rng->Bernoulli(0.5)) {
            (void)g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(c2));
          }
        }
      }
    }
    size_t bridges = rng->Uniform(4);
    for (size_t k = 0; k < bridges; ++k) {
      NodeId u = static_cast<NodeId>(rng->Uniform(next));
      NodeId v = static_cast<NodeId>(rng->Uniform(next));
      if (u != v) (void)g.AddEdge(u, v);
    }
    return g;
  }
};

TEST_P(CleanupPropertyTest, AllFinalGroupsRespectMu) {
  Rng rng(GetParam());
  size_t n = 0;
  Graph g = MakeNoisyCommunities(&rng, &n);
  GraphCleanupConfig config;
  config.gamma = 12;
  config.mu = 6;
  GraLMatchCleanup cleanup(config);
  auto groups = cleanup.Run(&g);
  for (const auto& comp : groups) {
    EXPECT_LE(comp.size(), config.mu);
  }
}

TEST_P(CleanupPropertyTest, GroupsPartitionTheNodeSet) {
  Rng rng(GetParam() ^ 0x10);
  size_t n = 0;
  Graph g = MakeNoisyCommunities(&rng, &n);
  GraLMatchCleanup cleanup(GraphCleanupConfig{10, 5});
  auto groups = cleanup.Run(&g);
  std::vector<int> seen(n, 0);
  for (const auto& comp : groups) {
    for (NodeId u : comp) ++seen[static_cast<size_t>(u)];
  }
  for (size_t u = 0; u < n; ++u) {
    EXPECT_EQ(seen[u], 1) << "node " << u;
  }
}

TEST_P(CleanupPropertyTest, CleanupOnlyRemovesEdges) {
  Rng rng(GetParam() ^ 0x20);
  size_t n = 0;
  Graph g = MakeNoisyCommunities(&rng, &n);
  size_t edges_before = g.num_edges_alive();
  GraLMatchCleanup cleanup(GraphCleanupConfig{10, 4});
  CleanupStats stats;
  cleanup.Run(&g, &stats);
  EXPECT_LE(g.num_edges_alive(), edges_before);
  EXPECT_EQ(edges_before - g.num_edges_alive(),
            stats.min_cut_edges_removed + stats.betweenness_edges_removed);
}

TEST_P(CleanupPropertyTest, DeterministicAcrossRuns) {
  Rng rng1(GetParam() ^ 0x30), rng2(GetParam() ^ 0x30);
  size_t n1 = 0, n2 = 0;
  Graph a = MakeNoisyCommunities(&rng1, &n1);
  Graph b = MakeNoisyCommunities(&rng2, &n2);
  GraLMatchCleanup cleanup(GraphCleanupConfig{12, 5});
  EXPECT_EQ(cleanup.Run(&a), cleanup.Run(&b));
}

TEST_P(CleanupPropertyTest, SizeAgnosticCleanupsAlsoPartition) {
  Rng rng(GetParam() ^ 0x40);
  size_t n = 0;
  Graph g = MakeNoisyCommunities(&rng, &n);
  auto check_partition = [&](const std::vector<std::vector<NodeId>>& groups) {
    std::vector<int> seen(n, 0);
    for (const auto& comp : groups) {
      for (NodeId u : comp) ++seen[static_cast<size_t>(u)];
    }
    for (size_t u = 0; u < n; ++u) EXPECT_EQ(seen[u], 1);
  };
  check_partition(LabelPropagationGroups(g));
  Graph g2 = g;
  check_partition(EmbeddednessGroups(&g2));
}

TEST_P(CleanupPropertyTest, ParallelCleanupMatchesSerialReference) {
  for (size_t threads : {2u, 3u, 8u}) {
    Rng rng_serial(GetParam() ^ 0x50), rng_parallel(GetParam() ^ 0x50);
    size_t n1 = 0, n2 = 0;
    Graph serial_graph = MakeNoisyCommunities(&rng_serial, &n1);
    Graph parallel_graph = MakeNoisyCommunities(&rng_parallel, &n2);
    ASSERT_EQ(n1, n2);

    // Small gamma/mu so several components are oversized and both phases run.
    GraLMatchCleanup cleanup(GraphCleanupConfig{8, 4});
    CleanupStats serial_stats, parallel_stats;
    auto serial_groups = cleanup.Run(&serial_graph, &serial_stats);
    ThreadPool pool(threads);
    auto parallel_groups =
        cleanup.Run(&parallel_graph, &parallel_stats, &pool);

    EXPECT_EQ(parallel_groups, serial_groups) << "threads=" << threads;
    EXPECT_EQ(parallel_graph.num_edges_alive(), serial_graph.num_edges_alive());
    EXPECT_EQ(parallel_stats.min_cut_calls, serial_stats.min_cut_calls);
    EXPECT_EQ(parallel_stats.min_cut_edges_removed,
              serial_stats.min_cut_edges_removed);
    EXPECT_EQ(parallel_stats.betweenness_calls, serial_stats.betweenness_calls);
    EXPECT_EQ(parallel_stats.betweenness_edges_removed,
              serial_stats.betweenness_edges_removed);
    // The exact removed-edge *set* must agree, not just the count.
    for (EdgeId e = 0; e < static_cast<EdgeId>(serial_graph.num_edges_total());
         ++e) {
      ASSERT_EQ(parallel_graph.edge_alive(e), serial_graph.edge_alive(e))
          << "threads=" << threads << " edge=" << e;
    }
  }
}

TEST_P(CleanupPropertyTest, ParallelMatchesSerialOnVariantConfigs) {
  // The "-MEC" (gamma == mu) and "-BC" (no min cut) sensitivity variants take
  // different phase paths; the parallel fan-out must match on all of them.
  const GraphCleanupConfig configs[] = {
      {6, 6},                                  // -MEC: betweenness is a no-op
      {GraphCleanupConfig::kNoMinCut, 4},      // -BC: betweenness only
      {10, 3},                                 // both phases active
  };
  for (const auto& config : configs) {
    Rng rng_serial(GetParam() ^ 0x60), rng_parallel(GetParam() ^ 0x60);
    size_t n1 = 0, n2 = 0;
    Graph serial_graph = MakeNoisyCommunities(&rng_serial, &n1);
    Graph parallel_graph = MakeNoisyCommunities(&rng_parallel, &n2);
    GraLMatchCleanup cleanup(config);
    ThreadPool pool(4);
    EXPECT_EQ(cleanup.Run(&parallel_graph, nullptr, &pool),
              cleanup.Run(&serial_graph))
        << "gamma=" << config.gamma << " mu=" << config.mu;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleanupPropertyTest,
                         ::testing::Values(1u, 7u, 99u, 1234u, 777777u));

// ---------------------------------------------------------------------------
// Parallel cleanup stress: larger random graphs, varying thread counts,
// always compared against the serial reference run. Runs under ASan/UBSan in
// the CI sanitizer job like every property suite, and under TSan in the
// dedicated thread-sanitizer job.
// ---------------------------------------------------------------------------

struct ParallelStressCase {
  uint64_t seed;
  size_t threads;
};

class ParallelCleanupStressTest
    : public ::testing::TestWithParam<ParallelStressCase> {
 protected:
  /// Bigger and denser than MakeNoisyCommunities: a handful of communities
  /// of up to ~45 nodes with random chords and a few cross-community
  /// bridges, so min-cut and betweenness both do real work per component.
  Graph MakeLargeNoisyGraph(Rng* rng) {
    size_t communities = 4 + rng->Uniform(3);
    std::vector<std::pair<size_t, size_t>> spans;
    size_t next = 0;
    for (size_t c = 0; c < communities; ++c) {
      size_t size = 12 + rng->Uniform(34);
      spans.emplace_back(next, next + size);
      next += size;
    }
    Graph g(next);
    for (const auto& [begin, end] : spans) {
      // Discard audited: synthetic in-range endpoints, edge ids unused.
      for (size_t a = begin; a < end; ++a) {
        size_t b = a + 1 == end ? begin : a + 1;
        if (b != a) {
          (void)g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(b));
        }
        for (size_t c2 = a + 2; c2 < end; ++c2) {
          if (rng->Bernoulli(0.15)) {
            (void)g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(c2));
          }
        }
      }
    }
    size_t bridges = rng->Uniform(6);
    for (size_t k = 0; k < bridges; ++k) {
      NodeId u = static_cast<NodeId>(rng->Uniform(next));
      NodeId v = static_cast<NodeId>(rng->Uniform(next));
      if (u != v) (void)g.AddEdge(u, v);
    }
    return g;
  }
};

TEST_P(ParallelCleanupStressTest, MatchesSerialReference) {
  Rng rng_serial(GetParam().seed), rng_parallel(GetParam().seed);
  Graph serial_graph = MakeLargeNoisyGraph(&rng_serial);
  Graph parallel_graph = MakeLargeNoisyGraph(&rng_parallel);

  GraLMatchCleanup cleanup(GraphCleanupConfig{20, 5});
  CleanupStats serial_stats, parallel_stats;
  auto serial_groups = cleanup.Run(&serial_graph, &serial_stats);
  ThreadPool pool(GetParam().threads);
  auto parallel_groups = cleanup.Run(&parallel_graph, &parallel_stats, &pool);

  EXPECT_EQ(parallel_groups, serial_groups);
  EXPECT_EQ(parallel_graph.num_edges_alive(), serial_graph.num_edges_alive());
  EXPECT_EQ(parallel_stats.min_cut_edges_removed,
            serial_stats.min_cut_edges_removed);
  EXPECT_EQ(parallel_stats.betweenness_edges_removed,
            serial_stats.betweenness_edges_removed);
  for (const auto& comp : parallel_groups) {
    EXPECT_LE(comp.size(), 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, ParallelCleanupStressTest,
    ::testing::Values(ParallelStressCase{17, 2}, ParallelStressCase{17, 8},
                      ParallelStressCase{404, 3}, ParallelStressCase{404, 16},
                      ParallelStressCase{90210, 4},
                      ParallelStressCase{777, 2}));

// ---------------------------------------------------------------------------
// Blocking soundness on generated datasets.
// ---------------------------------------------------------------------------

class BlockingPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  FinancialBenchmark MakeBench() {
    SyntheticConfig config;
    config.seed = GetParam();
    config.num_groups = 150;
    return FinancialGenerator(config).Generate();
  }
};

TEST_P(BlockingPropertyTest, AllCandidatesAreCrossSource) {
  FinancialBenchmark bench = MakeBench();
  CandidateSet candidates;
  IdOverlapBlocker id_blocker;
  id_blocker.AddCandidates(bench.securities, &candidates);
  TokenOverlapBlocker token_blocker;
  token_blocker.AddCandidates(bench.securities, &candidates);
  for (const auto& cand : candidates.ToVector()) {
    EXPECT_NE(bench.securities.records.at(cand.pair.a).source(),
              bench.securities.records.at(cand.pair.b).source());
    EXPECT_NE(cand.provenance, 0u);
  }
}

TEST_P(BlockingPropertyTest, IdOverlapCandidatesShareAValue) {
  FinancialBenchmark bench = MakeBench();
  CandidateSet candidates;
  IdOverlapBlocker blocker;
  blocker.AddCandidates(bench.securities, &candidates);
  for (const auto& cand : candidates.ToVector()) {
    const Record& a = bench.securities.records.at(cand.pair.a);
    const Record& b = bench.securities.records.at(cand.pair.b);
    bool shared = false;
    for (const auto& attr : IdentifierAttributes()) {
      auto va = a.GetMulti(attr);
      auto vb = b.GetMulti(attr);
      for (const auto& x : va) {
        for (const auto& y : vb) shared |= x == y;
      }
    }
    EXPECT_TRUE(shared) << cand.pair.a << " vs " << cand.pair.b;
  }
}

TEST_P(BlockingPropertyTest, IssuerMatchRespectsGroups) {
  FinancialBenchmark bench = MakeBench();
  // Ground-truth company groups as the previous matching.
  std::vector<int64_t> company_group(bench.companies.records.size());
  for (size_t i = 0; i < company_group.size(); ++i) {
    company_group[i] =
        bench.companies.truth.entity_of(static_cast<RecordId>(i));
  }
  CandidateSet candidates;
  IssuerMatchBlocker blocker(&company_group);
  blocker.AddCandidates(bench.securities, &candidates);
  for (const auto& cand : candidates.ToVector()) {
    auto issuer_of = [&](RecordId r) {
      return std::atoll(
          std::string(bench.securities.records.at(r).Get("issuer_ref")).c_str());
    };
    EXPECT_EQ(company_group[static_cast<size_t>(issuer_of(cand.pair.a))],
              company_group[static_cast<size_t>(issuer_of(cand.pair.b))]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockingPropertyTest,
                         ::testing::Values(3u, 44u, 5055u));

// ---------------------------------------------------------------------------
// Retraction edge cases: the incremental blocking indexes after
// RemoveRecords must equal the batch blocker run on the survivors, through
// the non-monotone boundaries — df caps moving with the live count, buckets
// emptying, and previously overflowed buckets shrinking back under the cap.
// ---------------------------------------------------------------------------

Record TokenRecord(SourceId source, const std::string& text) {
  Record rec(source, RecordKind::kSecurity);
  rec.Set("name", text);
  return rec;
}

Record IdRecord(SourceId source, const std::string& isin) {
  Record rec(source, RecordKind::kSecurity);
  rec.Set("isin", isin);
  return rec;
}

std::vector<RecordPair> SortedPairs(std::vector<RecordPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Batch blocker run on the compacted survivor table, pairs remapped back
/// to the original sparse ids (the compact->original map is monotone, so
/// pair ordering is preserved).
std::vector<RecordPair> BatchPairsOnSurvivors(const RecordTable& records,
                                              const std::vector<char>& alive,
                                              const Blocker& blocker) {
  Dataset survivors;
  std::vector<RecordId> original;
  for (size_t i = 0; i < records.size(); ++i) {
    if (!alive[i]) continue;
    survivors.records.Add(records.at(static_cast<RecordId>(i)));
    original.push_back(static_cast<RecordId>(i));
  }
  CandidateSet candidates;
  blocker.AddCandidates(survivors, &candidates);
  std::vector<RecordPair> pairs;
  for (const auto& cand : candidates.ToVector()) {
    RecordPair pair;
    pair.a = original[static_cast<size_t>(cand.pair.a)];
    pair.b = original[static_cast<size_t>(cand.pair.b)];
    pairs.push_back(pair);
  }
  return SortedPairs(std::move(pairs));
}

RecordPair MakePair(RecordId a, RecordId b) {
  RecordPair pair;
  pair.a = std::min(a, b);
  pair.b = std::max(a, b);
  return pair;
}

TEST(RetractionEdgeCases, DfCapDropRetractsAndHolderDeletionReadmits) {
  // The token df cap is floor(max_token_df * num_live) + 1: deletions move
  // it even when no holder of a token dies, and a holder's death can pull a
  // token's df back UNDER the cap, re-admitting pairs.
  TokenOverlapBlocker::Options options;
  options.top_n = 10;
  options.min_overlap = 1;
  options.max_token_df = 0.5;
  IncrementalTokenOverlapIndex index(options);
  TokenOverlapBlocker batch(options);

  // r0..r3 share "anchor" (sources alternate), r4..r11 hold only a unique
  // filler token each (df 1, never eligible).
  RecordTable records;
  std::vector<char> alive;
  for (size_t i = 0; i < 12; ++i) {
    const std::string filler = "filler" + std::string(1, char('a' + i));
    const std::string text = i < 4 ? "anchor " + filler : filler;
    records.Add(TokenRecord(static_cast<SourceId>(i % 2), text));
    alive.push_back(1);
  }
  index.AddRecords(records);
  // live 12 -> cap 7, df(anchor) = 4: all cross-source anchor pairs.
  const std::vector<RecordPair> anchor_pairs = {MakePair(0, 1), MakePair(0, 3),
                                                MakePair(1, 2), MakePair(2, 3)};
  EXPECT_EQ(index.CurrentPairs(), anchor_pairs);

  // Deleting seven filler records — NONE holds "anchor" — drops the live
  // count to 5 and the cap to 3 < df: every anchor pair retracts.
  std::vector<RecordId> pads = {4, 5, 6, 7, 8, 9, 10};
  for (RecordId id : pads) alive[static_cast<size_t>(id)] = 0;
  CandidateDelta delta = index.RemoveRecords(records, pads);
  EXPECT_EQ(SortedPairs(delta.removed), anchor_pairs);
  EXPECT_TRUE(index.CurrentPairs().empty());
  EXPECT_EQ(index.CurrentPairs(),
            BatchPairsOnSurvivors(records, alive, batch));

  // Deleting an anchor HOLDER drops df to 3 = cap: the token is re-admitted
  // and the surviving holders' pairs come back.
  alive[3] = 0;
  delta = index.RemoveRecords(records, {3});
  const std::vector<RecordPair> readmitted = {MakePair(0, 1), MakePair(1, 2)};
  EXPECT_EQ(SortedPairs(delta.added), readmitted);
  EXPECT_EQ(index.CurrentPairs(), readmitted);
  EXPECT_EQ(index.CurrentPairs(),
            BatchPairsOnSurvivors(records, alive, batch));
}

TEST(RetractionEdgeCases, DeletingLastBucketMemberLeavesNoResidue) {
  IncrementalIdOverlapIndex index;
  IdOverlapBlocker batch;
  RecordTable records;
  std::vector<char> alive;
  records.Add(IdRecord(0, "VV0011"));
  records.Add(IdRecord(1, "VV0011"));
  records.Add(IdRecord(0, "XX9999"));
  alive.assign(3, 1);
  index.AddRecords(records);
  EXPECT_EQ(index.CurrentPairs(),
            std::vector<RecordPair>{MakePair(0, 1)});

  // Deleting one holder leaves a single-member bucket: the pair retracts.
  alive[1] = 0;
  CandidateDelta delta = index.RemoveRecords(records, {1});
  EXPECT_EQ(SortedPairs(delta.removed), std::vector<RecordPair>{MakePair(0, 1)});
  EXPECT_TRUE(index.CurrentPairs().empty());

  // Deleting the LAST member empties the bucket without residue: fresh
  // holders of the same value later pair only with each other, never with
  // the dead.
  alive[0] = 0;
  delta = index.RemoveRecords(records, {0});
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
  records.Add(IdRecord(0, "VV0011"));
  records.Add(IdRecord(1, "VV0011"));
  alive.push_back(1);
  alive.push_back(1);
  delta = index.AddRecords(records);
  EXPECT_EQ(SortedPairs(delta.added), std::vector<RecordPair>{MakePair(3, 4)});
  EXPECT_EQ(index.CurrentPairs(),
            std::vector<RecordPair>{MakePair(3, 4)});
  EXPECT_EQ(index.CurrentPairs(),
            BatchPairsOnSurvivors(records, alive, batch));
}

TEST(RetractionEdgeCases, RetractionReadmitsOverflowedBucket) {
  // Four holders under max_bucket 3 overflow the bucket (zero pairs);
  // removing one shrinks it back inside the cap and re-admits every
  // cross-source pair among the survivors.
  IncrementalIdOverlapIndex index(/*max_bucket=*/3);
  RecordTable records;
  for (size_t i = 0; i < 4; ++i) {
    records.Add(IdRecord(static_cast<SourceId>(i % 2), "SHARED01"));
  }
  CandidateDelta delta = index.AddRecords(records);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(index.CurrentPairs().empty());

  delta = index.RemoveRecords(records, {3});
  const std::vector<RecordPair> readmitted = {MakePair(0, 1), MakePair(1, 2)};
  EXPECT_EQ(SortedPairs(delta.added), readmitted);
  EXPECT_EQ(index.CurrentPairs(), readmitted);

  // Growing past the cap again retracts the re-admitted pairs.
  records.Add(IdRecord(1, "SHARED01"));
  delta = index.AddRecords(records);
  EXPECT_EQ(SortedPairs(delta.removed), readmitted);
  EXPECT_TRUE(index.CurrentPairs().empty());
}

class RetractionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RetractionPropertyTest, TokenIndexMatchesBatchOnSurvivorsUnderChurn) {
  // Random interleaved adds/removes over a tiny vocabulary (so document
  // frequencies keep crossing the moving cap): after every mutation the
  // index's pair set must equal the batch blocker on the survivors, and
  // the reported deltas must replay into exactly that set.
  Rng rng(GetParam());
  TokenOverlapBlocker::Options options;
  options.top_n = 3;
  options.min_overlap = 1;
  options.max_token_df = 0.4;
  IncrementalTokenOverlapIndex index(options);
  TokenOverlapBlocker batch(options);
  const std::vector<std::string> vocab = {"alpha", "bravo",  "carbon",
                                          "delta", "echo",   "foxtrot",
                                          "grain", "hollow"};
  RecordTable records;
  std::vector<char> alive;
  std::vector<RecordId> live;
  std::set<RecordPair> replayed;
  auto apply = [&replayed](const CandidateDelta& delta) {
    for (const RecordPair& pair : delta.removed) {
      ASSERT_EQ(replayed.erase(pair), 1u) << "removed a pair not present";
    }
    for (const RecordPair& pair : delta.added) {
      ASSERT_TRUE(replayed.insert(pair).second) << "added a duplicate pair";
    }
  };
  for (size_t step = 0; step < 24; ++step) {
    if (live.size() < 3 || rng.Bernoulli(0.6)) {
      const size_t count = 1 + rng.Uniform(3);
      for (size_t k = 0; k < count; ++k) {
        std::string text;
        const size_t words = 2 + rng.Uniform(3);
        for (size_t w = 0; w < words; ++w) {
          if (!text.empty()) text.push_back(' ');
          text += vocab[rng.Uniform(vocab.size())];
        }
        live.push_back(static_cast<RecordId>(records.size()));
        records.Add(TokenRecord(static_cast<SourceId>(rng.Uniform(2)), text));
        alive.push_back(1);
      }
      apply(index.AddRecords(records));
    } else {
      std::vector<RecordId> doomed;
      const size_t count = 1 + rng.Uniform(2);
      for (size_t k = 0; k < count && !live.empty(); ++k) {
        const size_t pick = rng.Uniform(live.size());
        doomed.push_back(live[pick]);
        alive[static_cast<size_t>(live[pick])] = 0;
        live[pick] = live.back();
        live.pop_back();
      }
      apply(index.RemoveRecords(records, doomed));
    }
    const std::vector<RecordPair> current = index.CurrentPairs();
    EXPECT_EQ(current, BatchPairsOnSurvivors(records, alive, batch))
        << "step " << step;
    EXPECT_EQ(current,
              std::vector<RecordPair>(replayed.begin(), replayed.end()))
        << "step " << step;
  }
}

TEST_P(RetractionPropertyTest, IdIndexMatchesBatchOnSurvivorsUnderChurn) {
  Rng rng(GetParam());
  IncrementalIdOverlapIndex index;
  IdOverlapBlocker batch;
  const std::vector<std::string> values = {"AA11", "BB22", "CC33",
                                           "DD44", "EE55"};
  RecordTable records;
  std::vector<char> alive;
  std::vector<RecordId> live;
  for (size_t step = 0; step < 24; ++step) {
    if (live.size() < 3 || rng.Bernoulli(0.55)) {
      const size_t count = 1 + rng.Uniform(3);
      for (size_t k = 0; k < count; ++k) {
        Record rec = IdRecord(static_cast<SourceId>(rng.Uniform(2)),
                              values[rng.Uniform(values.size())]);
        if (rng.Bernoulli(0.3)) {
          rec.Set("cusip", values[rng.Uniform(values.size())]);
        }
        live.push_back(static_cast<RecordId>(records.size()));
        records.Add(std::move(rec));
        alive.push_back(1);
      }
      index.AddRecords(records);
    } else {
      std::vector<RecordId> doomed;
      const size_t count = 1 + rng.Uniform(2);
      for (size_t k = 0; k < count && !live.empty(); ++k) {
        const size_t pick = rng.Uniform(live.size());
        doomed.push_back(live[pick]);
        alive[static_cast<size_t>(live[pick])] = 0;
        live[pick] = live.back();
        live.pop_back();
      }
      index.RemoveRecords(records, doomed);
    }
    EXPECT_EQ(index.CurrentPairs(),
              BatchPairsOnSurvivors(records, alive, batch))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetractionPropertyTest,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

// ---------------------------------------------------------------------------
// Generator well-formedness across seeds and artifact mixes.
// ---------------------------------------------------------------------------

struct GenCase {
  uint64_t seed;
  double event_rate;   // acquisition/merger probability
};

class GeneratorPropertyTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorPropertyTest, BenchmarkIsWellFormed) {
  SyntheticConfig config;
  config.seed = GetParam().seed;
  config.num_groups = 120;
  config.artifacts.p_acquisition = GetParam().event_rate;
  config.artifacts.p_merger = GetParam().event_rate;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();

  ASSERT_GT(bench.companies.records.size(), 0u);
  ASSERT_GT(bench.securities.records.size(), 0u);

  // Every record has a ground-truth entity and a non-empty name.
  for (size_t i = 0; i < bench.companies.records.size(); ++i) {
    EXPECT_NE(bench.companies.truth.entity_of(static_cast<RecordId>(i)),
              kInvalidEntity);
    EXPECT_TRUE(bench.companies.records.at(static_cast<RecordId>(i)).Has("name"));
  }

  // Every security has a valid same-source issuer and only valid identifier
  // values of its standards.
  for (size_t i = 0; i < bench.securities.records.size(); ++i) {
    const Record& sec = bench.securities.records.at(static_cast<RecordId>(i));
    auto issuer = std::atoll(std::string(sec.Get("issuer_ref")).c_str());
    ASSERT_GE(issuer, 0);
    ASSERT_LT(static_cast<size_t>(issuer), bench.companies.records.size());
    EXPECT_EQ(bench.companies.records.at(static_cast<RecordId>(issuer)).source(),
              sec.source());
    for (const auto& isin : sec.GetMulti("isin")) {
      EXPECT_TRUE(IsValidIsin(isin)) << isin;
    }
    for (const auto& cusip : sec.GetMulti("cusip")) {
      EXPECT_TRUE(IsValidCusip(cusip)) << cusip;
    }
    for (const auto& sedol : sec.GetMulti("sedol")) {
      EXPECT_TRUE(IsValidSedol(sedol)) << sedol;
    }
  }
}

TEST_P(GeneratorPropertyTest, WdcIsWellFormed) {
  WdcConfig config;
  config.seed = GetParam().seed;
  config.num_entities = 100;
  Dataset products = WdcProductsGenerator(config).Generate();
  EXPECT_EQ(products.truth.num_records(), products.records.size());
  for (size_t i = 0; i < products.records.size(); ++i) {
    EXPECT_TRUE(products.records.at(static_cast<RecordId>(i)).Has("title"));
    EXPECT_NE(products.truth.entity_of(static_cast<RecordId>(i)),
              kInvalidEntity);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndRates, GeneratorPropertyTest,
                         ::testing::Values(GenCase{2, 0.0}, GenCase{2, 0.15},
                                           GenCase{31, 0.03},
                                           GenCase{555, 0.3}));

// ---------------------------------------------------------------------------
// Serializer bounds across sequence budgets and encodings.
// ---------------------------------------------------------------------------

struct SerializerCase {
  size_t max_len;
  bool ditto;
};

// The printed parameter names the ctest entry (gtest_discover_tests). The
// default printer dumps the struct's bytes, and the 7 padding bytes after
// `ditto` are uninitialised, so the names changed from build to build.
void PrintTo(const SerializerCase& c, std::ostream* os) {
  *os << "max_len" << c.max_len << (c.ditto ? "_ditto" : "_plain");
}

class SerializerPropertyTest : public ::testing::TestWithParam<SerializerCase> {};

TEST_P(SerializerPropertyTest, EncodingRespectsBudgetAndStructure) {
  SubwordVocab vocab;
  vocab.Train({"alpha beta gamma delta epsilon corporation zurich",
               "isin cusip sedol name type city common stock"},
              500);
  Rng rng(9);
  std::unique_ptr<PairSerializer> serializer;
  if (GetParam().ditto) {
    serializer = std::make_unique<DittoSerializer>();
  } else {
    serializer = std::make_unique<PlainSerializer>();
  }

  for (int trial = 0; trial < 30; ++trial) {
    Record a(0, RecordKind::kCompany), b(1, RecordKind::kCompany);
    auto random_text = [&](size_t words) {
      std::string out;
      for (size_t w = 0; w < words; ++w) {
        out += "tok" + std::to_string(rng.Uniform(40)) + " ";
      }
      return out;
    };
    a.Set("name", random_text(1 + rng.Uniform(30)));
    b.Set("name", random_text(1 + rng.Uniform(30)));
    if (rng.Bernoulli(0.5)) a.Set("city", random_text(2));
    if (rng.Bernoulli(0.5)) b.Set("short_description", random_text(20));

    EncodedSequence seq =
        serializer->EncodePair(a, b, vocab, GetParam().max_len);
    EXPECT_LE(seq.tokens.size(), GetParam().max_len);
    EXPECT_EQ(seq.segments.size(), seq.tokens.size());
    EXPECT_EQ(seq.shared.size(), seq.tokens.size());
    ASSERT_FALSE(seq.tokens.empty());
    EXPECT_EQ(seq.tokens[0], SpecialTokens::kCls);
    EXPECT_EQ(std::count(seq.tokens.begin(), seq.tokens.end(),
                         static_cast<int32_t>(SpecialTokens::kSep)),
              1);
    // Segments are monotone 0 -> 1.
    for (size_t i = 1; i < seq.segments.size(); ++i) {
      EXPECT_GE(seq.segments[i], seq.segments[i - 1]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, SerializerPropertyTest,
                         ::testing::Values(SerializerCase{16, false},
                                           SerializerCase{16, true},
                                           SerializerCase{32, false},
                                           SerializerCase{32, true},
                                           SerializerCase{96, true}));

// ---------------------------------------------------------------------------
// Metric consistency: analytic group metrics == materialized closure.
// ---------------------------------------------------------------------------

class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, GroupPrfMatchesMaterializedClosure) {
  Rng rng(GetParam());
  size_t n = 20 + rng.Uniform(40);
  GroundTruth truth;
  for (size_t r = 0; r < n; ++r) {
    truth.Assign(static_cast<RecordId>(r),
                 static_cast<EntityId>(rng.Uniform(n / 3 + 1)));
  }
  // Random partition into components.
  std::vector<NodeId> nodes(n);
  for (size_t i = 0; i < n; ++i) nodes[i] = static_cast<NodeId>(i);
  rng.Shuffle(&nodes);
  std::vector<std::vector<NodeId>> components;
  size_t pos = 0;
  while (pos < n) {
    size_t size = 1 + rng.Uniform(6);
    size = std::min(size, n - pos);
    std::vector<NodeId> comp(nodes.begin() + static_cast<long>(pos),
                             nodes.begin() + static_cast<long>(pos + size));
    std::sort(comp.begin(), comp.end());
    components.push_back(std::move(comp));
    pos += size;
  }

  std::vector<RecordPair> closure;
  for (const auto& comp : components) {
    for (size_t i = 0; i < comp.size(); ++i) {
      for (size_t j = i + 1; j < comp.size(); ++j) {
        closure.emplace_back(comp[i], comp[j]);
      }
    }
  }
  PrfMetrics analytic = GroupPrf(components, truth);
  PrfMetrics materialized = PairwisePrf(closure, truth);
  EXPECT_EQ(analytic.tp, materialized.tp);
  EXPECT_EQ(analytic.fp, materialized.fp);
  EXPECT_EQ(analytic.fn, materialized.fn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

// ---------------------------------------------------------------------------
// Union-find merge semantics. The sharded pipeline's cross-shard merge
// (stream/group_store.h) unions per-shard positive edges into global
// components; these properties — idempotent unions, representative
// stability under interleaved finds, agreement with a reference partition —
// are exactly what that merge step relies on.
// ---------------------------------------------------------------------------

class UnionFindPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnionFindPropertyTest, MatchesReferencePartitionUnderRandomUnions) {
  Rng rng(GetParam());
  const size_t n = 40 + rng.Uniform(120);
  UnionFind uf(n);
  // Reference: brute-force component labels, relabelled on every merge.
  std::vector<size_t> label(n);
  for (size_t i = 0; i < n; ++i) label[i] = i;

  const size_t ops = 3 * n;
  for (size_t k = 0; k < ops; ++k) {
    const size_t a = rng.Uniform(n);
    const size_t b = rng.Uniform(n);
    const bool merged = uf.Union(a, b);
    EXPECT_EQ(merged, label[a] != label[b]);
    if (label[a] != label[b]) {
      const size_t from = label[b], to = label[a];
      for (size_t i = 0; i < n; ++i) {
        if (label[i] == from) label[i] = to;
      }
    }
    // Interleaved finds (which path-halve internally) must agree with the
    // reference connectivity at every step.
    const size_t c = rng.Uniform(n);
    const size_t d = rng.Uniform(n);
    EXPECT_EQ(uf.Find(c) == uf.Find(d), label[c] == label[d]);
  }

  // Final partition agrees element-for-element.
  std::set<size_t> labels(label.begin(), label.end());
  EXPECT_EQ(uf.num_sets(), labels.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < i + 5 && j < n; ++j) {
      EXPECT_EQ(uf.Find(i) == uf.Find(j), label[i] == label[j]);
    }
    // Set sizes match the reference counts.
    size_t count = 0;
    for (size_t j = 0; j < n; ++j) count += label[j] == label[i] ? 1 : 0;
    EXPECT_EQ(uf.SetSize(i), count);
  }
}

TEST_P(UnionFindPropertyTest, UnionsAreIdempotentAndFindsAreStable) {
  Rng rng(GetParam() ^ 0x5eedu);
  const size_t n = 30 + rng.Uniform(70);
  UnionFind uf(n);
  for (size_t k = 0; k < 2 * n; ++k) {
    uf.Union(rng.Uniform(n), rng.Uniform(n));
  }
  const size_t sets_before = uf.num_sets();
  for (size_t i = 0; i < n; ++i) {
    const size_t rep = uf.Find(i);
    // A representative is its own representative (canonical fixed point),
    // and repeated finds never change it.
    EXPECT_EQ(uf.Find(rep), rep);
    EXPECT_EQ(uf.Find(i), rep);
    // Re-unioning already-joined elements is a no-op on the partition and
    // on every representative.
    EXPECT_FALSE(uf.Union(i, rep));
    EXPECT_EQ(uf.Find(i), rep);
    EXPECT_EQ(uf.num_sets(), sets_before);
  }
  // Merge order never affects the partition: replay the same edges in
  // reverse into a fresh structure and compare connectivity.
  std::vector<std::pair<size_t, size_t>> edges;
  Rng replay(GetParam() ^ 0x5eedu);
  const size_t m = 30 + replay.Uniform(70);
  ASSERT_EQ(m, n);
  for (size_t k = 0; k < 2 * n; ++k) {
    const size_t a = replay.Uniform(n);
    const size_t b = replay.Uniform(n);
    edges.emplace_back(a, b);
  }
  UnionFind reversed(n);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    reversed.Union(it->first, it->second);
  }
  EXPECT_EQ(reversed.num_sets(), uf.num_sets());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < i + 6 && j < n; ++j) {
      EXPECT_EQ(reversed.Find(i) == reversed.Find(j),
                uf.Find(i) == uf.Find(j));
    }
  }
}

TEST(UnionFindTest, ResetRestoresSingletons) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  EXPECT_EQ(uf.num_sets(), 4u);
  uf.Reset(4);
  EXPECT_EQ(uf.size(), 4u);
  EXPECT_EQ(uf.num_sets(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(uf.Find(i), i);
    EXPECT_EQ(uf.SetSize(i), 1u);
  }
  EXPECT_NE(uf.Find(0), uf.Find(1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFindPropertyTest,
                         ::testing::Values(5u, 77u, 901u, 12345u));

// ---------------------------------------------------------------------------
// ScoreBatch batching invariance: for every matcher, any random split of a
// pair set into batches is bitwise-identical to per-pair MatchProbability —
// the contract in matching/matcher.h. Runs under every kernel build (the
// x86-64-v3-kernels CI leg recompiles with -march=x86-64-v3), so it also
// pins that neither the SIMD annotations nor the matmul kernel
// instantiations ever reassociate a result.
// ---------------------------------------------------------------------------

class ScoreBatchPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.seed = 71;
    config.num_groups = 40;
    records_ = FinancialGenerator(config).Generate().companies.records;
    Rng rng(GetParam());
    const RecordId n = static_cast<RecordId>(records_.size());
    for (size_t i = 0; i < 60; ++i) {
      RecordId a = static_cast<RecordId>(rng.Uniform(n));
      RecordId b = static_cast<RecordId>(rng.Uniform(n));
      if (a == b) b = (b + 1) % n;
      pairs_.push_back(RecordPair(a, b));
    }
  }

  /// Bitwise comparison of ScoreBatch under a random batch split against a
  /// per-pair MatchProbability walk.
  void ExpectBatchingInvariant(const PairwiseMatcher& matcher) {
    std::vector<double> reference(pairs_.size());
    for (size_t i = 0; i < pairs_.size(); ++i) {
      reference[i] = matcher.MatchProbability(records_.at(pairs_[i].a),
                                              records_.at(pairs_[i].b));
    }
    // One whole-set batch, then random contiguous splits.
    std::vector<double> whole(pairs_.size(), -1.0);
    matcher.ScoreBatch(records_,
                       Span<const RecordPair>(pairs_.data(), pairs_.size()),
                       Span<double>(whole.data(), whole.size()));
    for (size_t i = 0; i < pairs_.size(); ++i) {
      ASSERT_EQ(whole[i], reference[i]) << matcher.name() << " pair " << i;
    }
    Rng rng(GetParam() ^ 0xbeef);
    for (int round = 0; round < 4; ++round) {
      std::vector<double> split(pairs_.size(), -1.0);
      size_t begin = 0;
      while (begin < pairs_.size()) {
        const size_t count =
            std::min<size_t>(1 + rng.Uniform(9), pairs_.size() - begin);
        matcher.ScoreBatch(
            records_, Span<const RecordPair>(pairs_.data() + begin, count),
            Span<double>(split.data() + begin, count));
        begin += count;
      }
      for (size_t i = 0; i < pairs_.size(); ++i) {
        ASSERT_EQ(split[i], reference[i])
            << matcher.name() << " round " << round << " pair " << i;
      }
    }
  }

  RecordTable records_;
  std::vector<RecordPair> pairs_;
};

TEST_P(ScoreBatchPropertyTest, HeuristicIdMatcher) {
  HeuristicIdMatcher matcher;
  ExpectBatchingInvariant(matcher);
}

TEST_P(ScoreBatchPropertyTest, TrainedTfidfLogReg) {
  std::vector<LabeledPair> train;
  Rng rng(GetParam() ^ 0x7777);
  for (size_t i = 0; i + 1 < records_.size() && train.size() < 40; i += 2) {
    train.push_back({RecordPair(static_cast<RecordId>(i),
                                static_cast<RecordId>(i + 1)),
                     rng.Bernoulli(0.5) ? 1 : 0});
  }
  TfidfLogRegMatcher matcher;
  matcher.Train(records_, train);
  ExpectBatchingInvariant(matcher);
}

TEST_P(ScoreBatchPropertyTest, TransformerPackedForward) {
  TransformerMatcherConfig config;
  config.max_seq_len = 24;  // keep the sweep fast; truncation is exercised
  TransformerMatcher matcher(config);
  matcher.BuildVocab(records_);  // untrained weights score deterministically
  ExpectBatchingInvariant(matcher);
}

TEST_P(ScoreBatchPropertyTest, CascadeOverTransformer) {
  TfidfLogRegMatcher gate;
  std::vector<LabeledPair> train;
  for (size_t i = 0; i + 1 < records_.size() && train.size() < 20; i += 2) {
    train.push_back({RecordPair(static_cast<RecordId>(i),
                                static_cast<RecordId>(i + 1)),
                     i % 4 == 0 ? 1 : 0});
  }
  gate.Train(records_, train);
  TransformerMatcherConfig config;
  config.max_seq_len = 24;
  TransformerMatcher expensive(config);
  expensive.BuildVocab(records_);
  CascadeMatcher::Options opts;
  opts.lower_threshold = 0.3;
  opts.upper_threshold = 0.7;
  CascadeMatcher cascade(&gate, &expensive, opts);
  ExpectBatchingInvariant(cascade);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreBatchPropertyTest,
                         ::testing::Values(3u, 42u, 1001u));

}  // namespace
}  // namespace gralmatch
