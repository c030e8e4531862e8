#include "stream/group_store.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/binary_io.h"
#include "common/union_find.h"
#include "core/cleanup.h"

namespace gralmatch {

void WriteRecordPairs(const std::vector<RecordPair>& pairs,
                      BinaryWriter* writer) {
  writer->WriteU64(pairs.size());
  for (const RecordPair& pair : pairs) WriteRecordPair(pair, writer);
}

Status ReadRecordPairs(BinaryReader* reader, size_t num_records,
                       std::vector<RecordPair>* pairs) {
  pairs->clear();
  return ReadSortedPairList(
      reader, num_records, 8, [pairs](size_t count) { pairs->reserve(count); },
      [pairs](const RecordPair& pair) {
        pairs->push_back(pair);
        return Status::OK();
      });
}

Status ReadNodeIdVector(BinaryReader* reader, size_t num_records,
                        std::vector<NodeId>* nodes) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
  nodes->clear();
  nodes->reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    NodeId node = -1;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&node));
    if (node < 0 || static_cast<size_t>(node) >= num_records) {
      return Status::IOError("corrupted checkpoint: node id " +
                             std::to_string(node) + " out of range");
    }
    nodes->push_back(node);
  }
  return Status::OK();
}

namespace {

/// The positive pairs whose smaller endpoint is in `nodes` (ascending), in
/// ascending order. For a component's nodes these are its edges: a positive
/// pair never leaves the component of its endpoints.
std::vector<RecordPair> EdgesOf(const std::vector<NodeId>& nodes,
                                const std::vector<RecordPair>& positives) {
  std::vector<RecordPair> edges;
  auto before = [](const RecordPair& pair, NodeId u) { return pair.a < u; };
  auto it = positives.begin();
  for (const NodeId u : nodes) {
    it = std::lower_bound(it, positives.end(), u, before);
    for (; it != positives.end() && it->a == u; ++it) edges.push_back(*it);
  }
  return edges;
}

}  // namespace

void WriteComponentState(const GroupStore::ComponentState& comp,
                         const std::vector<RecordPair>& positives,
                         BinaryWriter* writer) {
  writer->WriteU64(comp.nodes.size());
  for (const NodeId u : comp.nodes) writer->WriteI32(u);
  WriteRecordPairs(EdgesOf(comp.nodes, positives), writer);
  writer->WriteU64(comp.groups.size());
  for (const auto& group : comp.groups) {
    writer->WriteU64(group.size());
    for (const NodeId u : group) writer->WriteI32(u);
  }
  writer->WriteU64(comp.stats.pre_cleanup_edges_removed);
  writer->WriteU64(comp.stats.min_cut_calls);
  writer->WriteU64(comp.stats.min_cut_edges_removed);
  writer->WriteU64(comp.stats.betweenness_calls);
  writer->WriteU64(comp.stats.betweenness_edges_removed);
}

Status ReadComponentState(BinaryReader* reader, size_t num_records,
                          GroupStore::ComponentState* comp,
                          std::vector<RecordPair>* edges) {
  GRALMATCH_RETURN_NOT_OK(ReadNodeIdVector(reader, num_records, &comp->nodes));
  GRALMATCH_RETURN_NOT_OK(ReadRecordPairs(reader, num_records, edges));
  uint64_t num_groups = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &num_groups));
  comp->groups.clear();
  comp->groups.reserve(static_cast<size_t>(num_groups));
  for (uint64_t g = 0; g < num_groups; ++g) {
    std::vector<NodeId> group;
    GRALMATCH_RETURN_NOT_OK(ReadNodeIdVector(reader, num_records, &group));
    comp->groups.push_back(std::move(group));
  }
  uint64_t stat = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.pre_cleanup_edges_removed = static_cast<size_t>(stat);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.min_cut_calls = static_cast<size_t>(stat);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.min_cut_edges_removed = static_cast<size_t>(stat);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.betweenness_calls = static_cast<size_t>(stat);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.betweenness_edges_removed = static_cast<size_t>(stat);
  return Status::OK();
}

void GroupStore::EnsureNumRecords(size_t num_records) {
  if (comp_of_node_.size() < num_records) {
    comp_of_node_.resize(num_records, -1);
  }
}

void GroupStore::RebuildComponent(ComponentState* comp,
                                  const std::vector<RecordPair>& edges,
                                  const ProvenanceFn& prov_of,
                                  const PipelineConfig& config,
                                  ThreadPool* pool) {
  // Nodes are sorted, edges are sorted: inserting edges in pair order
  // reproduces the edge-id order of a from-scratch run, and the monotone
  // node remap preserves every comparison the cleanup tie-breaks on.
  Graph local(comp->nodes.size());
  auto local_id = [comp](NodeId u) {
    return static_cast<NodeId>(
        std::lower_bound(comp->nodes.begin(), comp->nodes.end(), u) -
        comp->nodes.begin());
  };
  std::vector<uint32_t> edge_provenance;
  edge_provenance.reserve(edges.size());
  for (const RecordPair& pair : edges) {
    // Discard audited: endpoints are remapped members of this component, so
    // AddEdge cannot fail; the local edge id is not needed.
    (void)local.AddEdge(local_id(pair.a), local_id(pair.b));
    edge_provenance.push_back(prov_of(pair));
  }

  comp->stats = CleanupStats();
  PreCleanup(&local, edge_provenance, config.pre_cleanup_threshold,
             &comp->stats);
  GraLMatchCleanup cleanup(config.cleanup);
  std::vector<std::vector<NodeId>> local_groups =
      cleanup.Run(&local, &comp->stats, pool);
  comp->stats.seconds = 0.0;  // counters only; the caller accounts wall-clock

  comp->groups.clear();
  comp->groups.reserve(local_groups.size());
  for (auto& group : local_groups) {
    for (NodeId& u : group) u = comp->nodes[static_cast<size_t>(u)];
    comp->groups.push_back(std::move(group));
  }
}

GroupStore::ApplyReport GroupStore::Apply(
    const std::vector<RecordPair>& touched, bool rebuild_all,
    const std::vector<RecordPair>& positives, const ProvenanceFn& prov_of,
    const PipelineConfig& config, ThreadPool* pool) {
  ApplyReport report;

  // Dirty components: every component touching an affected node, i.e. an
  // endpoint of an edge that appeared, disappeared, or changed provenance
  // (provenance feeds the Pre Cleanup). With rebuild_all every component is
  // conservatively dirty.
  std::unordered_set<int32_t> dirty_comps;
  std::vector<NodeId> loose_nodes;  // affected nodes outside any component
  for (const RecordPair& pair : touched) {
    for (const NodeId u : {pair.a, pair.b}) {
      const int32_t cid = comp_of_node_[static_cast<size_t>(u)];
      if (cid >= 0) {
        dirty_comps.insert(cid);
      } else {
        loose_nodes.push_back(u);
      }
    }
  }
  if (rebuild_all) {
    for (const auto& [cid, comp] : comps_) dirty_comps.insert(cid);
  }
  report.components_reused = comps_.size() - dirty_comps.size();

  if (!dirty_comps.empty() || !loose_nodes.empty()) {
    // Union the dirty region's nodes, recompute its connectivity over the
    // positive pairs they hold, and re-clean each resulting component. A
    // removed pair's endpoints are affected, so removals never touch a
    // clean component, and every pair touching the region lies inside it.
    std::vector<NodeId> region_nodes = loose_nodes;
    for (const int32_t cid : dirty_comps) {
      const ComponentState& comp = comps_.at(cid);
      region_nodes.insert(region_nodes.end(), comp.nodes.begin(),
                          comp.nodes.end());
    }
    std::sort(region_nodes.begin(), region_nodes.end());
    region_nodes.erase(std::unique(region_nodes.begin(), region_nodes.end()),
                       region_nodes.end());
    const std::vector<RecordPair> region_pairs =
        EdgesOf(region_nodes, positives);
    auto region_index = [&region_nodes](NodeId u) {
      return static_cast<size_t>(
          std::lower_bound(region_nodes.begin(), region_nodes.end(), u) -
          region_nodes.begin());
    };
    UnionFind uf(region_nodes.size());
    for (const RecordPair& pair : region_pairs) {
      uf.Union(region_index(pair.a), region_index(pair.b));
    }

    for (const int32_t cid : dirty_comps) comps_.erase(cid);
    std::unordered_map<size_t, int32_t> comp_of_root;
    std::vector<int32_t> rebuilt_ids;
    for (size_t k = 0; k < region_nodes.size(); ++k) {
      const NodeId u = region_nodes[k];
      if (uf.SetSize(k) < 2) {
        comp_of_node_[static_cast<size_t>(u)] = -1;
        continue;
      }
      const size_t root = uf.Find(k);
      auto [it, inserted] = comp_of_root.emplace(root, next_comp_id_);
      if (inserted) {
        ++next_comp_id_;
        rebuilt_ids.push_back(it->second);
      }
      comp_of_node_[static_cast<size_t>(u)] = it->second;
      comps_[it->second].nodes.push_back(u);  // ascending: k is ascending
    }
    // Region pairs ascend, so each rebuilt component's edges do too.
    std::unordered_map<int32_t, std::vector<RecordPair>> edges_of;
    for (const RecordPair& pair : region_pairs) {
      edges_of[comp_of_node_[static_cast<size_t>(pair.a)]].push_back(pair);
    }
    for (const int32_t cid : rebuilt_ids) {
      RebuildComponent(&comps_[cid], edges_of[cid], prov_of, config, pool);
    }
    report.components_rebuilt = rebuilt_ids.size();
  }
  return report;
}

void GroupStore::FillSnapshot(size_t num_records, const std::vector<char>* alive,
                              PipelineResult* result) const {
  // Components (and groups) in the batch pipeline's canonical order:
  // components by smallest contained node, groups by smallest node. Only
  // the (smallest node, pointer) heads of the components and of their
  // groups are sorted; one ascending node scan then merges them with the
  // live loose singletons, never looking up a component member.
  std::vector<std::pair<NodeId, const ComponentState*>> comp_heads;
  std::vector<std::pair<NodeId, const std::vector<NodeId>*>> group_heads;
  comp_heads.reserve(comps_.size());
  for (const auto& [cid, comp] : comps_) {
    comp_heads.emplace_back(comp.nodes.front(), &comp);
    for (const auto& group : comp.groups) {
      group_heads.emplace_back(group.front(), &group);
    }
  }
  auto by_head = [](const auto& x, const auto& y) { return x.first < y.first; };
  std::sort(comp_heads.begin(), comp_heads.end(), by_head);
  std::sort(group_heads.begin(), group_heads.end(), by_head);

  result->pre_cleanup_components.reserve(num_records);
  result->groups.reserve(num_records);
  size_t next_comp = 0;
  size_t next_group = 0;
  for (size_t u = 0; u < num_records; ++u) {
    const NodeId node = static_cast<NodeId>(u);
    for (; next_comp < comp_heads.size() && comp_heads[next_comp].first <= node;
         ++next_comp) {
      result->pre_cleanup_components.push_back(
          comp_heads[next_comp].second->nodes);
    }
    for (; next_group < group_heads.size() &&
           group_heads[next_group].first <= node;
         ++next_group) {
      result->groups.push_back(*group_heads[next_group].second);
    }
    if (comp_of_node_[u] >= 0) continue;
    if (alive != nullptr && !(*alive)[u]) continue;
    result->pre_cleanup_components.push_back({node});
    result->groups.push_back({node});
  }

  for (const auto& [cid, comp] : comps_) {
    result->cleanup_stats.pre_cleanup_edges_removed +=
        comp.stats.pre_cleanup_edges_removed;
    result->cleanup_stats.min_cut_calls += comp.stats.min_cut_calls;
    result->cleanup_stats.min_cut_edges_removed +=
        comp.stats.min_cut_edges_removed;
    result->cleanup_stats.betweenness_calls += comp.stats.betweenness_calls;
    result->cleanup_stats.betweenness_edges_removed +=
        comp.stats.betweenness_edges_removed;
  }
}

void GroupStore::Save(const std::vector<RecordPair>& positives,
                      BinaryWriter* writer) const {
  writer->WriteU64(comp_of_node_.size());
  for (int32_t cid : comp_of_node_) writer->WriteI32(cid);
  std::vector<int32_t> comp_ids;
  comp_ids.reserve(comps_.size());
  for (const auto& [cid, comp] : comps_) comp_ids.push_back(cid);
  std::sort(comp_ids.begin(), comp_ids.end());
  writer->WriteU64(comp_ids.size());
  for (int32_t cid : comp_ids) {
    writer->WriteI32(cid);
    WriteComponentState(comps_.at(cid), positives, writer);
  }
  writer->WriteI32(next_comp_id_);
}

Status GroupStore::Load(BinaryReader* reader, size_t num_records,
                        const std::vector<RecordPair>& positives) {
  comp_of_node_.clear();
  comps_.clear();
  next_comp_id_ = 0;

  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
  if (count != num_records) {
    return Status::IOError(
        "corrupted checkpoint: component map size disagrees with the record "
        "table");
  }
  std::vector<int32_t> stored_comp_of_node(static_cast<size_t>(count));
  for (auto& cid : stored_comp_of_node) {
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&cid));
  }

  EnsureNumRecords(num_records);
  uint64_t num_comps = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &num_comps));
  for (uint64_t k = 0; k < num_comps; ++k) {
    int32_t cid = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&cid));
    ComponentState comp;
    std::vector<RecordPair> edges;
    GRALMATCH_RETURN_NOT_OK(
        ReadComponentState(reader, num_records, &comp, &edges));
    GRALMATCH_RETURN_NOT_OK(
        InsertComponent(cid, std::move(comp), edges, positives, num_records));
  }
  // The stored membership map is redundant with the node lists: it must be
  // exactly the map InsertComponent derived from them.
  if (stored_comp_of_node != comp_of_node_) {
    return Status::IOError(
        "corrupted checkpoint: component node lists disagree with the "
        "membership map");
  }
  return reader->ReadI32(&next_comp_id_);
}

Status GroupStore::InsertComponent(int32_t cid, ComponentState comp,
                                   const std::vector<RecordPair>& edges,
                                   const std::vector<RecordPair>& positives,
                                   size_t num_records) {
  EnsureNumRecords(num_records);
  if (comp.nodes.empty()) {
    return Status::IOError("corrupted checkpoint: empty component");
  }
  if (!std::is_sorted(comp.nodes.begin(), comp.nodes.end()) ||
      std::adjacent_find(comp.nodes.begin(), comp.nodes.end()) !=
          comp.nodes.end()) {
    return Status::IOError(
        "corrupted checkpoint: component node list is not sorted unique");
  }
  for (const NodeId node : comp.nodes) {
    if (node < 0 || static_cast<size_t>(node) >= num_records) {
      return Status::IOError("corrupted checkpoint: node id out of range");
    }
    if (comp_of_node_[static_cast<size_t>(node)] != -1) {
      return Status::IOError(
          "corrupted checkpoint: record claimed by two components");
    }
  }
  if (comps_.count(cid)) {
    return Status::IOError("corrupted checkpoint: duplicate component id");
  }
  // The stored edge list is redundant with the positive set: it must be
  // exactly the positive pairs the node list derives.
  if (edges != EdgesOf(comp.nodes, positives)) {
    return Status::IOError(
        "corrupted checkpoint: component edge list disagrees with the "
        "positive set");
  }
  for (const NodeId node : comp.nodes) {
    comp_of_node_[static_cast<size_t>(node)] = cid;
  }
  comps_.emplace(cid, std::move(comp));
  return Status::OK();
}

Status GroupStore::Validate(const std::vector<RecordPair>& positives) const {
  // Every positive pair must lie inside one component — the components are
  // the positive graph's, and a pair reaching into another component would
  // index past the local UnionFind on the next dirty rebuild. The next id
  // must be fresh: colliding with a live component would make a later
  // rebuild silently merge two components' state.
  for (const RecordPair& pair : positives) {
    const int32_t cid = comp_of_node_[static_cast<size_t>(pair.a)];
    if (cid < 0 || comp_of_node_[static_cast<size_t>(pair.b)] != cid) {
      return Status::IOError(
          "corrupted checkpoint: positive pair outside a component");
    }
  }
  for (const auto& [cid, comp] : comps_) {
    if (cid < 0 || cid >= next_comp_id_) {
      return Status::IOError(
          "corrupted checkpoint: component id outside [0, next_comp_id)");
    }
  }
  return Status::OK();
}

}  // namespace gralmatch
