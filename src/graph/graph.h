#ifndef GRALMATCH_GRAPH_GRAPH_H_
#define GRALMATCH_GRAPH_GRAPH_H_

/// \file graph.h
/// Undirected match graph with lazy edge deletion: nodes are records, edges
/// are positively predicted pairwise matches. GraLMatch's cleanup repeatedly
/// inspects connected components and deletes edges, so deletion is O(1)
/// (a tombstone bit) and components are recomputed by BFS on demand.

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace gralmatch {

/// Node index within a Graph.
using NodeId = int32_t;
/// Edge index within a Graph.
using EdgeId = int32_t;

/// \brief Undirected multigraph with tombstoned edges.
class Graph {
 public:
  struct Edge {
    NodeId u = -1;
    NodeId v = -1;
  };

  explicit Graph(size_t num_nodes = 0);

  /// Add an undirected edge; self-loops are rejected with kInvalidArgument.
  Result<EdgeId> AddEdge(NodeId u, NodeId v);

  /// Tombstone an edge; removing an already-removed edge is a no-op.
  void RemoveEdge(EdgeId e);

  /// Un-tombstone all edges (used by benchmarks that re-run cleanup).
  void RestoreAllEdges();

  bool edge_alive(EdgeId e) const { return alive_[static_cast<size_t>(e)]; }
  const Edge& edge(EdgeId e) const { return edges_[static_cast<size_t>(e)]; }

  size_t num_nodes() const { return adjacency_.size(); }
  /// Total edges ever added (including tombstoned ones).
  size_t num_edges_total() const { return edges_.size(); }
  /// Currently alive edges.
  size_t num_edges_alive() const { return alive_count_; }

  /// Alive incident (neighbor, edge id) pairs of a node.
  /// The underlying list may contain tombstoned entries; callers must use
  /// this accessor (it filters).
  void AliveNeighbors(NodeId u, std::vector<std::pair<NodeId, EdgeId>>* out) const;

  /// Connected components over alive edges, including singletons.
  /// Deterministic: components ordered by smallest contained node.
  std::vector<std::vector<NodeId>> ConnectedComponents() const;

  /// Component containing `start` (alive edges only).
  std::vector<NodeId> ComponentOf(NodeId start) const;

  /// Alive edge ids with both endpoints inside `nodes`.
  std::vector<EdgeId> EdgesWithin(const std::vector<NodeId>& nodes) const;

 private:
  /// Grow the node set to at least n nodes.
  void EnsureNodes(size_t n);

  std::vector<Edge> edges_;
  std::vector<bool> alive_;
  size_t alive_count_ = 0;
  /// adjacency_[u]: (neighbor, edge id) incidences, including tombstoned.
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> adjacency_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_GRAPH_GRAPH_H_
