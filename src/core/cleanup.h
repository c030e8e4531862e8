#ifndef GRALMATCH_CORE_CLEANUP_H_
#define GRALMATCH_CORE_CLEANUP_H_

/// \file cleanup.h
/// The GraLMatch Graph Cleanup (Algorithm 1 of the paper) plus the
/// Pre-Cleanup of §4.2.1. Both operate on the match graph in place by
/// tombstoning edges; the surviving connected components are the entity
/// groups.

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace gralmatch {

class ThreadPool;

/// Thresholds of Algorithm 1.
struct GraphCleanupConfig {
  /// Components larger than gamma are split with Minimum Edge Cut.
  /// Set to kNoMinCut to skip the min-cut phase (the "-BC" variant).
  size_t gamma = 25;
  /// Components larger than mu lose their max-betweenness edge, one at a
  /// time. The paper sets mu to the number of data sources. Setting
  /// gamma == mu reproduces the "-MEC" variant (betweenness phase is a
  /// no-op because phase 1 already reached mu).
  size_t mu = 5;

  static constexpr size_t kNoMinCut = std::numeric_limits<size_t>::max();
};

/// Bookkeeping of a cleanup run.
struct CleanupStats {
  size_t pre_cleanup_edges_removed = 0;
  size_t min_cut_calls = 0;
  size_t min_cut_edges_removed = 0;
  size_t betweenness_calls = 0;
  size_t betweenness_edges_removed = 0;
  double seconds = 0.0;
};

/// Pre Graph Cleanup (§4.2.1): inside every connected component larger than
/// `component_threshold`, remove edges that were obtained *only* through the
/// Token Overlap blocking (provenance exactly kBlockerTokenOverlap — an edge
/// also found by an identifier overlap is kept). `edge_provenance[e]` gives
/// the blocker bits of edge e.
void PreCleanup(Graph* graph, const std::vector<uint32_t>& edge_provenance,
                size_t component_threshold, CleanupStats* stats);

/// \brief Algorithm 1: split oversized components via Minimum Edge Cut, then
/// trim remaining oversized components via Edge Betweenness Centrality.
class GraLMatchCleanup {
 public:
  GraLMatchCleanup() : config_() {}
  explicit GraLMatchCleanup(GraphCleanupConfig config) : config_(config) {}

  /// Run the cleanup, tombstoning removed edges in `graph`. Returns the
  /// connected components (entity groups) of the cleaned graph, singletons
  /// included.
  ///
  /// Each oversized component is cleaned on a compact copy, fanned out over
  /// `pool` (serial when null); the result is independent of the thread
  /// count, except for the wall-clock `seconds`.
  std::vector<std::vector<NodeId>> Run(Graph* graph,
                                       CleanupStats* stats = nullptr,
                                       ThreadPool* pool = nullptr) const;

  const GraphCleanupConfig& config() const { return config_; }

 private:
  GraphCleanupConfig config_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_CORE_CLEANUP_H_
