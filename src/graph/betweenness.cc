#include "graph/betweenness.h"

#include <algorithm>
#include <queue>

namespace gralmatch {

std::unordered_map<EdgeId, double> EdgeBetweenness(
    const Graph& graph, const std::vector<NodeId>& component) {
  const size_t n = component.size();
  std::unordered_map<NodeId, int> local;
  local.reserve(n);
  for (size_t i = 0; i < n; ++i) local[component[i]] = static_cast<int>(i);

  // Local adjacency (neighbor local index, edge id), alive edges only.
  std::vector<std::vector<std::pair<int, EdgeId>>> adj(n);
  for (EdgeId e : graph.EdgesWithin(component)) {
    int u = local[graph.edge(e).u];
    int v = local[graph.edge(e).v];
    adj[static_cast<size_t>(u)].emplace_back(v, e);
    adj[static_cast<size_t>(v)].emplace_back(u, e);
  }

  std::unordered_map<EdgeId, double> bc;
  std::vector<int> dist(n), order;
  std::vector<double> sigma(n), delta(n);
  std::vector<std::vector<std::pair<int, EdgeId>>> preds(n);

  for (size_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    for (auto& p : preds) p.clear();
    order.clear();

    // BFS shortest-path DAG from s; parallel edges each count as a path.
    std::queue<int> queue;
    dist[s] = 0;
    sigma[s] = 1.0;
    queue.push(static_cast<int>(s));
    while (!queue.empty()) {
      int u = queue.front();
      queue.pop();
      order.push_back(u);
      for (const auto& [v, e] : adj[static_cast<size_t>(u)]) {
        if (dist[static_cast<size_t>(v)] < 0) {
          dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
          queue.push(v);
        }
        if (dist[static_cast<size_t>(v)] == dist[static_cast<size_t>(u)] + 1) {
          sigma[static_cast<size_t>(v)] += sigma[static_cast<size_t>(u)];
          preds[static_cast<size_t>(v)].emplace_back(u, e);
        }
      }
    }

    // Dependency accumulation in reverse BFS order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      int v = *it;
      for (const auto& [u, e] : preds[static_cast<size_t>(v)]) {
        double c = sigma[static_cast<size_t>(u)] / sigma[static_cast<size_t>(v)] *
                   (1.0 + delta[static_cast<size_t>(v)]);
        bc[e] += c;
        delta[static_cast<size_t>(u)] += c;
      }
    }
  }

  // Each unordered (s, t) pair was counted from both endpoints.
  for (auto& [e, value] : bc) value /= 2.0;
  return bc;
}

EdgeId MaxBetweennessEdge(const Graph& graph,
                          const std::vector<NodeId>& component) {
  auto bc = EdgeBetweenness(graph, component);
  EdgeId best = -1;
  double best_value = -1.0;
  for (const auto& [e, value] : bc) {
    if (value > best_value || (value == best_value && (best < 0 || e < best))) {
      best_value = value;
      best = e;
    }
  }
  return best;
}

}  // namespace gralmatch
