// Tests for the graph substrate: structure maintenance, connected
// components, Stoer-Wagner minimum edge cut, Brandes edge betweenness and
// bridges — including randomized property checks.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/union_find.h"
#include "graph/betweenness.h"
#include "graph/graph.h"
#include "graph/min_cut.h"

namespace gralmatch {
namespace {

TEST(GraphTest, AddEdgeRejectsSelfLoop) {
  Graph g(3);
  EXPECT_FALSE(g.AddEdge(1, 1).ok());
  EXPECT_FALSE(g.AddEdge(-1, 0).ok());
  EXPECT_TRUE(g.AddEdge(0, 2).ok());
}

TEST(GraphTest, EdgeLifecycle) {
  Graph g(4);
  EdgeId e0 = g.AddEdge(0, 1).ValueOrDie();
  EdgeId e1 = g.AddEdge(1, 2).ValueOrDie();
  EXPECT_EQ(g.num_edges_alive(), 2u);
  g.RemoveEdge(e0);
  EXPECT_EQ(g.num_edges_alive(), 1u);
  EXPECT_FALSE(g.edge_alive(e0));
  EXPECT_TRUE(g.edge_alive(e1));
  g.RemoveEdge(e0);  // idempotent
  EXPECT_EQ(g.num_edges_alive(), 1u);
  g.RestoreAllEdges();
  EXPECT_EQ(g.num_edges_alive(), 2u);
}

TEST(GraphTest, AliveNeighborsFiltersTombstones) {
  Graph g(3);
  EdgeId e0 = g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(0, 2).ValueOrDie();
  g.RemoveEdge(e0);
  std::vector<std::pair<NodeId, EdgeId>> nbrs;
  g.AliveNeighbors(0, &nbrs);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].first, 2);
}

TEST(GraphTest, ConnectedComponentsIncludeSingletons) {
  Graph g(5);
  g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(3, 4).ValueOrDie();
  auto comps = g.ConnectedComponents();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{2}));
  EXPECT_EQ(comps[2], (std::vector<NodeId>{3, 4}));
}

TEST(GraphTest, ComponentOfAfterRemoval) {
  Graph g(4);
  g.AddEdge(0, 1).ValueOrDie();
  EdgeId mid = g.AddEdge(1, 2).ValueOrDie();
  g.AddEdge(2, 3).ValueOrDie();
  g.RemoveEdge(mid);
  EXPECT_EQ(g.ComponentOf(0), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(g.ComponentOf(3), (std::vector<NodeId>{2, 3}));
}

TEST(GraphTest, EdgesWithinSubset) {
  Graph g(5);
  EdgeId e01 = g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(1, 4).ValueOrDie();
  EdgeId e12 = g.AddEdge(1, 2).ValueOrDie();
  auto inside = g.EdgesWithin({0, 1, 2});
  EXPECT_EQ(inside, (std::vector<EdgeId>{e01, e12}));
}

TEST(MinCutTest, RejectsTooSmallComponent) {
  Graph g(2);
  g.AddEdge(0, 1).ValueOrDie();
  EXPECT_FALSE(StoerWagnerMinCut(g, {0}).ok());
}

TEST(MinCutTest, FindsBridgeInBarbell) {
  Graph g(8);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      g.AddEdge(a, b).ValueOrDie();
      g.AddEdge(a + 4, b + 4).ValueOrDie();
    }
  }
  EdgeId bridge = g.AddEdge(0, 4).ValueOrDie();

  auto cut = StoerWagnerMinCut(g, g.ComponentOf(0));
  ASSERT_TRUE(cut.ok());
  EXPECT_DOUBLE_EQ(cut->weight, 1.0);
  ASSERT_EQ(cut->cut_edges.size(), 1u);
  EXPECT_EQ(cut->cut_edges[0], bridge);
  EXPECT_EQ(cut->partition.size(), 4u);
}

TEST(MinCutTest, CycleHasCutOfTwo) {
  Graph g(5);
  for (int i = 0; i < 5; ++i) {
    g.AddEdge(i, (i + 1) % 5).ValueOrDie();
  }
  auto cut = StoerWagnerMinCut(g, g.ComponentOf(0));
  ASSERT_TRUE(cut.ok());
  EXPECT_DOUBLE_EQ(cut->weight, 2.0);
  EXPECT_EQ(cut->cut_edges.size(), 2u);
}

TEST(MinCutTest, ParallelEdgesCountTowardWeight) {
  Graph g(3);
  g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(1, 2).ValueOrDie();
  auto cut = StoerWagnerMinCut(g, g.ComponentOf(0));
  ASSERT_TRUE(cut.ok());
  // Cheapest cut isolates node 2 across the single (1,2) edge.
  EXPECT_DOUBLE_EQ(cut->weight, 1.0);
}

// Property: removing the reported cut edges disconnects the component, and
// the cut weight never exceeds the component's minimum alive degree.
TEST(MinCutTest, RandomGraphsCutDisconnectsAndIsBounded) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    size_t n = 5 + rng.Uniform(10);
    Graph g(n);
    // Random connected graph: spanning tree + extra edges.
    for (size_t v = 1; v < n; ++v) {
      g.AddEdge(static_cast<NodeId>(rng.Uniform(v)), static_cast<NodeId>(v))
          .ValueOrDie();
    }
    size_t extra = rng.Uniform(2 * n);
    for (size_t k = 0; k < extra; ++k) {
      NodeId a = static_cast<NodeId>(rng.Uniform(n));
      NodeId b = static_cast<NodeId>(rng.Uniform(n));
      if (a != b) (void)g.AddEdge(a, b).ValueOrDie();
    }

    auto comp = g.ComponentOf(0);
    ASSERT_EQ(comp.size(), n);
    auto cut = StoerWagnerMinCut(g, comp);
    ASSERT_TRUE(cut.ok());

    size_t min_degree = SIZE_MAX;
    std::vector<std::pair<NodeId, EdgeId>> nbrs;
    for (size_t u = 0; u < n; ++u) {
      g.AliveNeighbors(static_cast<NodeId>(u), &nbrs);
      min_degree = std::min(min_degree, nbrs.size());
    }
    EXPECT_LE(cut->weight, static_cast<double>(min_degree));

    for (EdgeId e : cut->cut_edges) g.RemoveEdge(e);
    EXPECT_LT(g.ComponentOf(0).size(), n) << "cut failed to disconnect";
  }
}

TEST(BetweennessTest, PathGraphMiddleEdgeHighest) {
  // 0-1-2-3: edge (1,2) lies on 4 of the 6 shortest paths.
  Graph g(4);
  EdgeId e01 = g.AddEdge(0, 1).ValueOrDie();
  EdgeId e12 = g.AddEdge(1, 2).ValueOrDie();
  EdgeId e23 = g.AddEdge(2, 3).ValueOrDie();
  auto bc = EdgeBetweenness(g, g.ComponentOf(0));
  EXPECT_DOUBLE_EQ(bc[e01], 3.0);  // paths 0-1, 0-2, 0-3
  EXPECT_DOUBLE_EQ(bc[e12], 4.0);  // paths 0-2, 0-3, 1-2, 1-3
  EXPECT_DOUBLE_EQ(bc[e23], 3.0);
  EXPECT_EQ(MaxBetweennessEdge(g, g.ComponentOf(0)), e12);
}

TEST(BetweennessTest, BridgeDominatesInBarbell) {
  Graph g(8);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      g.AddEdge(a, b).ValueOrDie();
      g.AddEdge(a + 4, b + 4).ValueOrDie();
    }
  }
  EdgeId bridge = g.AddEdge(0, 4).ValueOrDie();
  EXPECT_EQ(MaxBetweennessEdge(g, g.ComponentOf(0)), bridge);
}

TEST(BetweennessTest, TriangleSymmetric) {
  Graph g(3);
  EdgeId e0 = g.AddEdge(0, 1).ValueOrDie();
  EdgeId e1 = g.AddEdge(1, 2).ValueOrDie();
  EdgeId e2 = g.AddEdge(0, 2).ValueOrDie();
  auto bc = EdgeBetweenness(g, g.ComponentOf(0));
  EXPECT_DOUBLE_EQ(bc[e0], 1.0);
  EXPECT_DOUBLE_EQ(bc[e1], 1.0);
  EXPECT_DOUBLE_EQ(bc[e2], 1.0);
}

// Property: total edge betweenness equals the sum over node pairs of their
// shortest-path length (each unit of path length crosses exactly one edge).
TEST(BetweennessTest, SumEqualsTotalPathLengthOnTrees) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 4 + rng.Uniform(8);
    Graph g(n);
    std::vector<std::vector<NodeId>> adj(n);
    for (size_t v = 1; v < n; ++v) {
      NodeId p = static_cast<NodeId>(rng.Uniform(v));
      g.AddEdge(p, static_cast<NodeId>(v)).ValueOrDie();
      adj[static_cast<size_t>(p)].push_back(static_cast<NodeId>(v));
      adj[v].push_back(p);
    }
    // BFS all-pairs distances.
    double total_dist = 0.0;
    for (size_t s = 0; s < n; ++s) {
      std::vector<int> dist(n, -1);
      std::vector<NodeId> queue = {static_cast<NodeId>(s)};
      dist[s] = 0;
      for (size_t qi = 0; qi < queue.size(); ++qi) {
        NodeId u = queue[qi];
        for (NodeId v : adj[static_cast<size_t>(u)]) {
          if (dist[static_cast<size_t>(v)] < 0) {
            dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
            queue.push_back(v);
          }
        }
      }
      for (size_t t = s + 1; t < n; ++t) total_dist += dist[t];
    }
    auto bc = EdgeBetweenness(g, g.ComponentOf(0));
    double total_bc = 0.0;
    for (const auto& [e, v] : bc) total_bc += v;
    EXPECT_NEAR(total_bc, total_dist, 1e-6);
  }
}

TEST(UnionFindTest, BasicMergeSemantics) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_EQ(uf.Find(0), uf.Find(2));
  EXPECT_NE(uf.Find(0), uf.Find(3));
  EXPECT_EQ(uf.SetSize(2), 3u);
  EXPECT_EQ(uf.num_sets(), 3u);
}

}  // namespace
}  // namespace gralmatch
