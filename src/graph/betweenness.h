#ifndef GRALMATCH_GRAPH_BETWEENNESS_H_
#define GRALMATCH_GRAPH_BETWEENNESS_H_

/// \file betweenness.h
/// Edge betweenness centrality (Brandes' algorithm) on a connected component
/// of the match graph. GraLMatch repeatedly removes the most-between edge of
/// oversized components (Algorithm 1, lines 7-10): a false positive edge
/// bridging two true groups carries almost all shortest paths between them.

#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace gralmatch {

/// Betweenness centrality of every alive edge of the subgraph induced by
/// `component`: c_B(e) = sum over node pairs (s, t) of the fraction of
/// shortest s-t paths passing through e (unnormalized, undirected; each
/// unordered pair contributes once).
std::unordered_map<EdgeId, double> EdgeBetweenness(
    const Graph& graph, const std::vector<NodeId>& component);

/// The alive edge of `component` with maximum betweenness centrality
/// (smallest edge id wins ties, for determinism). Returns -1 if the induced
/// subgraph has no edges.
EdgeId MaxBetweennessEdge(const Graph& graph,
                          const std::vector<NodeId>& component);

}  // namespace gralmatch

#endif  // GRALMATCH_GRAPH_BETWEENNESS_H_
