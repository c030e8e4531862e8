#include "core/cleanup.h"

#include <algorithm>
#include <deque>

#include "blocking/blocker.h"
#include "common/stopwatch.h"
#include "exec/parallel.h"
#include "graph/betweenness.h"
#include "graph/min_cut.h"

namespace gralmatch {

void PreCleanup(Graph* graph, const std::vector<uint32_t>& edge_provenance,
                size_t component_threshold, CleanupStats* stats) {
  if (component_threshold == 0) return;
  for (const auto& comp : graph->ConnectedComponents()) {
    if (comp.size() <= component_threshold) continue;
    for (EdgeId e : graph->EdgesWithin(comp)) {
      uint32_t prov = e < static_cast<EdgeId>(edge_provenance.size())
                          ? edge_provenance[static_cast<size_t>(e)]
                          : 0;
      if (prov == kBlockerTokenOverlap) {
        graph->RemoveEdge(e);
        if (stats) ++stats->pre_cleanup_edges_removed;
      }
    }
  }
}

namespace {

// Phase 1 (lines 3-6): while the largest component exceeds gamma, remove
// a minimum edge cut. Removing the cut is guaranteed to disconnect the
// component, so both sides are re-enqueued. Phase 2 (lines 7-10): while a
// component exceeds mu, remove the single edge with maximum betweenness
// centrality; the component may or may not split. Processing each
// component independently is equivalent to the paper's global
// argmax-by-size loop because components do not interact — the same fact
// Run exploits to fan components out across threads.
void RunPhases(const GraphCleanupConfig& config, Graph* graph,
               std::deque<std::vector<NodeId>> work,
               std::vector<std::vector<NodeId>>* done, CleanupStats* stats) {
  std::deque<std::vector<NodeId>> phase2;
  while (!work.empty()) {
    std::vector<NodeId> comp = std::move(work.front());
    work.pop_front();
    if (comp.size() <= config.gamma ||
        config.gamma == GraphCleanupConfig::kNoMinCut) {
      phase2.push_back(std::move(comp));
      continue;
    }
    auto cut = StoerWagnerMinCut(*graph, comp);
    if (!cut.ok() || cut->cut_edges.empty()) {
      // Degenerate (should not happen on a connected component); give up on
      // this component rather than loop forever.
      phase2.push_back(std::move(comp));
      continue;
    }
    if (stats) {
      ++stats->min_cut_calls;
      stats->min_cut_edges_removed += cut->cut_edges.size();
    }
    for (EdgeId e : cut->cut_edges) graph->RemoveEdge(e);
    // The cut separates `partition` from the rest of the component.
    std::vector<NodeId> rest;
    rest.reserve(comp.size() - cut->partition.size());
    {
      // partition is sorted; comp is sorted.
      size_t pi = 0;
      for (NodeId u : comp) {
        if (pi < cut->partition.size() && cut->partition[pi] == u) {
          ++pi;
        } else {
          rest.push_back(u);
        }
      }
    }
    work.push_back(std::move(cut->partition));
    work.push_back(std::move(rest));
  }

  while (!phase2.empty()) {
    std::vector<NodeId> comp = std::move(phase2.front());
    phase2.pop_front();
    if (comp.size() <= config.mu) {
      done->push_back(std::move(comp));
      continue;
    }
    EdgeId e = MaxBetweennessEdge(*graph, comp);
    if (stats) ++stats->betweenness_calls;
    if (e < 0) {
      done->push_back(std::move(comp));
      continue;
    }
    NodeId u = graph->edge(e).u;
    NodeId v = graph->edge(e).v;
    graph->RemoveEdge(e);
    if (stats) ++stats->betweenness_edges_removed;
    std::vector<NodeId> side_u = graph->ComponentOf(u);
    if (std::binary_search(side_u.begin(), side_u.end(), v)) {
      // Did not split; keep working on the same component.
      phase2.push_back(std::move(side_u));
    } else {
      phase2.push_back(std::move(side_u));
      phase2.push_back(graph->ComponentOf(v));
    }
  }
}

/// Per-component result of one compact-copy cleanup, merged back serially.
struct ComponentCleanup {
  std::vector<std::vector<NodeId>> groups;  // parent node ids
  std::vector<EdgeId> removed_edges;        // parent edge ids
  CleanupStats stats;
};

/// Run both phases on a compact copy of one component. The copy maps the
/// (sorted) component nodes to 0..k-1 and inserts its alive edges in
/// increasing parent-edge-id order with their original orientation, so every
/// ordering the algorithms tie-break on — node comparisons, adjacency-list
/// order, edge-id order, betweenness accumulation order — is preserved and
/// the local decisions are independent of which worker runs them. Workers
/// never mutate the shared graph; removals are applied at merge.
ComponentCleanup CleanupComponentCopy(const GraphCleanupConfig& config,
                                      const Graph& graph,
                                      const std::vector<NodeId>& comp) {
  Graph local(comp.size());
  // Collect the component's alive edges by walking its own adjacency lists
  // (Graph::EdgesWithin would allocate an O(total-nodes) membership mask per
  // component, turning the cleanup into O(components x graph size)).
  // `comp` is a connected component, so both endpoints are inside it; each
  // alive edge is emitted once, from its smaller endpoint, then sorted into
  // the same increasing-edge-id order EdgesWithin produces.
  std::vector<EdgeId> edges;
  std::vector<std::pair<NodeId, EdgeId>> incident;
  for (NodeId u : comp) {
    graph.AliveNeighbors(u, &incident);
    for (const auto& [nbr, eid] : incident) {
      const Graph::Edge& e = graph.edge(eid);
      if (u == std::min(e.u, e.v)) edges.push_back(eid);
    }
  }
  std::sort(edges.begin(), edges.end());
  std::vector<EdgeId> parent_edge;
  parent_edge.reserve(edges.size());
  auto local_id = [&comp](NodeId u) {
    return static_cast<NodeId>(std::lower_bound(comp.begin(), comp.end(), u) -
                               comp.begin());
  };
  for (EdgeId e : edges) {
    // Discard audited: endpoints come from the parent graph's edge list and
    // are remapped in range, so AddEdge cannot fail; the id is unused.
    (void)local.AddEdge(local_id(graph.edge(e).u), local_id(graph.edge(e).v));
    parent_edge.push_back(e);
  }

  std::vector<NodeId> local_comp(comp.size());
  for (size_t i = 0; i < comp.size(); ++i) {
    local_comp[i] = static_cast<NodeId>(i);
  }
  std::deque<std::vector<NodeId>> work;
  work.push_back(std::move(local_comp));

  ComponentCleanup result;
  std::vector<std::vector<NodeId>> local_done;
  RunPhases(config, &local, std::move(work), &local_done, &result.stats);

  result.groups.reserve(local_done.size());
  for (auto& group : local_done) {
    for (NodeId& u : group) u = comp[static_cast<size_t>(u)];
    result.groups.push_back(std::move(group));
  }
  for (EdgeId e = 0; e < static_cast<EdgeId>(local.num_edges_total()); ++e) {
    if (!local.edge_alive(e)) {
      result.removed_edges.push_back(parent_edge[static_cast<size_t>(e)]);
    }
  }
  return result;
}

}  // namespace

std::vector<std::vector<NodeId>> GraLMatchCleanup::Run(Graph* graph,
                                                       CleanupStats* stats,
                                                       ThreadPool* pool) const {
  Stopwatch watch;
  std::vector<std::vector<NodeId>> done;  // components at or below mu
  std::vector<std::vector<NodeId>> components = graph->ConnectedComponents();

  // Components that can still lose edges in either phase (kNoMinCut is
  // SIZE_MAX, so min() keeps plain `mu` for the "-BC" variant).
  const size_t untouched_max = std::min(config_.mu, config_.gamma);
  std::vector<std::vector<NodeId>> oversized;
  for (auto& comp : components) {
    if (comp.size() <= untouched_max) {
      done.push_back(std::move(comp));
    } else {
      oversized.push_back(std::move(comp));
    }
  }
  std::vector<ComponentCleanup> results(oversized.size());
  ParallelFor(pool, 0, oversized.size(), [&](size_t i) {
    results[i] = CleanupComponentCopy(config_, *graph, oversized[i]);
  });
  for (ComponentCleanup& r : results) {
    for (EdgeId e : r.removed_edges) graph->RemoveEdge(e);
    for (auto& group : r.groups) done.push_back(std::move(group));
    if (stats) {
      stats->min_cut_calls += r.stats.min_cut_calls;
      stats->min_cut_edges_removed += r.stats.min_cut_edges_removed;
      stats->betweenness_calls += r.stats.betweenness_calls;
      stats->betweenness_edges_removed += r.stats.betweenness_edges_removed;
    }
  }

  // Deterministic output order (by smallest node).
  std::sort(done.begin(), done.end(),
            [](const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
              return a.front() < b.front();
            });
  if (stats) stats->seconds += watch.ElapsedSeconds();
  return done;
}

}  // namespace gralmatch
