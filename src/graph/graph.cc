#include "graph/graph.h"

#include <algorithm>
#include <queue>

namespace gralmatch {

Graph::Graph(size_t num_nodes) : adjacency_(num_nodes) {}

void Graph::EnsureNodes(size_t n) {
  if (adjacency_.size() < n) adjacency_.resize(n);
}

Result<EdgeId> Graph::AddEdge(NodeId u, NodeId v) {
  if (u == v) return Status::InvalidArgument("self-loop edges are not allowed");
  if (u < 0 || v < 0) return Status::InvalidArgument("negative node id");
  EnsureNodes(static_cast<size_t>(std::max(u, v)) + 1);
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({u, v});
  alive_.push_back(true);
  ++alive_count_;
  adjacency_[static_cast<size_t>(u)].emplace_back(v, id);
  adjacency_[static_cast<size_t>(v)].emplace_back(u, id);
  return id;
}

void Graph::RemoveEdge(EdgeId e) {
  size_t idx = static_cast<size_t>(e);
  if (idx >= alive_.size() || !alive_[idx]) return;
  alive_[idx] = false;
  --alive_count_;
}

void Graph::RestoreAllEdges() {
  std::fill(alive_.begin(), alive_.end(), true);
  alive_count_ = alive_.size();
}

void Graph::AliveNeighbors(NodeId u,
                           std::vector<std::pair<NodeId, EdgeId>>* out) const {
  out->clear();
  for (const auto& [nbr, eid] : adjacency_[static_cast<size_t>(u)]) {
    if (alive_[static_cast<size_t>(eid)]) out->emplace_back(nbr, eid);
  }
}

std::vector<std::vector<NodeId>> Graph::ConnectedComponents() const {
  std::vector<std::vector<NodeId>> components;
  std::vector<bool> visited(adjacency_.size(), false);
  std::vector<NodeId> stack;
  for (size_t start = 0; start < adjacency_.size(); ++start) {
    if (visited[start]) continue;
    std::vector<NodeId> comp;
    stack.push_back(static_cast<NodeId>(start));
    visited[start] = true;
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      comp.push_back(u);
      for (const auto& [nbr, eid] : adjacency_[static_cast<size_t>(u)]) {
        if (!alive_[static_cast<size_t>(eid)]) continue;
        if (!visited[static_cast<size_t>(nbr)]) {
          visited[static_cast<size_t>(nbr)] = true;
          stack.push_back(nbr);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    components.push_back(std::move(comp));
  }
  return components;
}

std::vector<NodeId> Graph::ComponentOf(NodeId start) const {
  std::vector<NodeId> comp;
  std::vector<bool> visited(adjacency_.size(), false);
  std::vector<NodeId> stack = {start};
  visited[static_cast<size_t>(start)] = true;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    comp.push_back(u);
    for (const auto& [nbr, eid] : adjacency_[static_cast<size_t>(u)]) {
      if (!alive_[static_cast<size_t>(eid)]) continue;
      if (!visited[static_cast<size_t>(nbr)]) {
        visited[static_cast<size_t>(nbr)] = true;
        stack.push_back(nbr);
      }
    }
  }
  std::sort(comp.begin(), comp.end());
  return comp;
}

std::vector<EdgeId> Graph::EdgesWithin(const std::vector<NodeId>& nodes) const {
  std::vector<bool> in_set(adjacency_.size(), false);
  for (NodeId u : nodes) in_set[static_cast<size_t>(u)] = true;
  std::vector<EdgeId> out;
  for (NodeId u : nodes) {
    for (const auto& [nbr, eid] : adjacency_[static_cast<size_t>(u)]) {
      if (!alive_[static_cast<size_t>(eid)]) continue;
      if (!in_set[static_cast<size_t>(nbr)]) continue;
      // Emit each edge once: from its smaller endpoint (or from u == edge.u
      // for parallel-edge safety).
      const Edge& e = edges_[static_cast<size_t>(eid)];
      NodeId lo = std::min(e.u, e.v);
      if (u == lo) out.push_back(eid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gralmatch
