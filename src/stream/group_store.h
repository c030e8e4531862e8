#ifndef GRALMATCH_STREAM_GROUP_STORE_H_
#define GRALMATCH_STREAM_GROUP_STORE_H_

/// \file group_store.h
/// Incrementally maintained component/group state of the incremental
/// pipeline (stream/incremental_pipeline.h): the connected components of
/// the pristine (pre-cleanup) positive-edge graph, each with its cached
/// cleanup outcome. It keeps no edges: a component's edges are the
/// positive pairs whose smaller endpoint is one of its nodes, so callers
/// pass the positive set in.
///
/// Apply() is the dirty-component cleanup step. Given the positive-edge
/// transitions of one ingest (edges added / removed / provenance-changed),
/// it re-runs Pre Graph Cleanup + the GraLMatch cleanup only on the
/// components those transitions touch, splicing every untouched component
/// through unchanged with its cached counters. The rebuild reproduces a
/// from-scratch run bit for bit: component subgraphs are rebuilt with nodes
/// compact-remapped in sorted order and edges inserted in sorted pair order
/// — exactly the edge-id order a from-scratch run on the union would assign
/// — so every cleanup tie-break matches the batch pipeline.
///
/// The store is global, never per-shard: a positive edge between records
/// routed to different shards unions their components like any other
/// edge. Shards only partition the checkpoint, where each component is
/// stored with the shard that owns its smallest node.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "data/ground_truth.h"
#include "graph/graph.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;
class ThreadPool;

/// Serialize a sorted pair vector (u64 count + WriteRecordPair each).
void WriteRecordPairs(const std::vector<RecordPair>& pairs,
                      BinaryWriter* writer);

/// Read a WriteRecordPairs vector: canonical pairs in [0, num_records),
/// strictly ascending (ReadSortedPairList).
Status ReadRecordPairs(BinaryReader* reader, size_t num_records,
                       std::vector<RecordPair>* pairs);

/// Read a node-id vector whose entries must lie in [0, num_records).
Status ReadNodeIdVector(BinaryReader* reader, size_t num_records,
                        std::vector<NodeId>* nodes);

/// \brief Component/group state with dirty-component cleanup.
class GroupStore {
 public:
  /// One connected component of the pristine positive-edge graph, with its
  /// cached cleanup outcome.
  struct ComponentState {
    std::vector<NodeId> nodes;  ///< sorted ascending
    std::vector<std::vector<NodeId>> groups;  ///< cleaned groups, global ids
    CleanupStats stats;  ///< counters only (seconds stays 0)
  };

  struct ApplyReport {
    size_t components_rebuilt = 0;
    size_t components_reused = 0;
  };

  /// Provenance bits of a (current) positive pair; feeds the Pre Cleanup.
  using ProvenanceFn = std::function<uint32_t(const RecordPair&)>;

  /// Grow the per-record membership map to `num_records` entries (new
  /// records start as singletons). Call before Apply when records arrived.
  void EnsureNumRecords(size_t num_records);

  /// Fold one ingest's positive-edge transitions into the component
  /// structure and re-clean exactly the dirty region (see file comment).
  /// `touched` holds every positive pair the ingest added, removed or
  /// changed the provenance of; `positives` is the positive set after it
  /// (strictly ascending), from which the dirty components' edges are read.
  /// With `rebuild_all` every component is conservatively dirty (matcher
  /// fingerprint changes re-derive every score).
  ApplyReport Apply(const std::vector<RecordPair>& touched, bool rebuild_all,
                    const std::vector<RecordPair>& positives,
                    const ProvenanceFn& prov_of, const PipelineConfig& config,
                    ThreadPool* pool);

  /// Fill `result` with pre-cleanup components, groups and cleanup counters
  /// in the batch pipeline's canonical order: components by smallest
  /// contained node (singletons included), groups sorted by smallest node.
  /// Sorts only the components' and their groups' heads, then emits in one
  /// ascending node scan: O(num_records + groups · log groups).
  /// `alive` (optional, size `num_records`) masks out tombstoned records:
  /// dead records emit no singleton component/group — by the retraction
  /// invariant they are in no component, so the snapshot is exactly the one
  /// a from-scratch run on the survivors produces (modulo the monotone id
  /// compaction). `result->cleanup_stats.seconds` is left untouched
  /// (wall-clock is the caller's bookkeeping).
  void FillSnapshot(size_t num_records, const std::vector<char>* alive,
                    PipelineResult* result) const;

  /// Serialize the complete store (membership map, components in sorted id
  /// order with their edges out of `positives` and cached groups/counters,
  /// next component id). Byte layout is the PR-4 checkpoint body layout.
  void Save(const std::vector<RecordPair>& positives,
            BinaryWriter* writer) const;

  /// Restore Save() output against the loaded positive set. Each component
  /// goes through InsertComponent, and the stored membership map must equal
  /// the one those insertions derive. Replaces the current contents. Finish
  /// with Validate.
  Status Load(BinaryReader* reader, size_t num_records,
              const std::vector<RecordPair>& positives);

  // -- Piecewise reconstruction (both checkpoint loaders) -------------------

  /// Insert one component under an explicit id, growing the membership map.
  /// Rejects duplicate ids, empty/unsorted node lists, nodes already owned
  /// by another component, and a stored edge list `edges` other than the
  /// positive pairs whose smaller endpoint is one of its nodes. The sharded
  /// loader finishes with SetNextComponentId + Validate.
  Status InsertComponent(int32_t cid, ComponentState comp,
                         const std::vector<RecordPair>& edges,
                         const std::vector<RecordPair>& positives,
                         size_t num_records);

  void SetNextComponentId(int32_t next) { next_comp_id_ = next; }

  /// Cross-field checks that finish both restore paths: every positive pair
  /// has both endpoints inside one component, and every component id lies
  /// in [0, next_comp_id).
  Status Validate(const std::vector<RecordPair>& positives) const;

  const std::unordered_map<int32_t, ComponentState>& components() const {
    return comps_;
  }
  const std::vector<int32_t>& comp_of_node() const { return comp_of_node_; }
  int32_t next_comp_id() const { return next_comp_id_; }

 private:
  /// Re-run Pre Graph Cleanup + Algorithm 1 on one pristine component with
  /// its `edges` (ascending).
  void RebuildComponent(ComponentState* comp,
                        const std::vector<RecordPair>& edges,
                        const ProvenanceFn& prov_of,
                        const PipelineConfig& config, ThreadPool* pool);

  /// Component id per record (-1: singleton, not in any positive pair).
  std::vector<int32_t> comp_of_node_;
  std::unordered_map<int32_t, ComponentState> comps_;
  int32_t next_comp_id_ = 0;
};

/// Serialize one component's canonical byte encoding — nodes, edges (its
/// pairs out of `positives`), cleaned groups, cleanup counters. The single
/// definition shared by the whole-store serialization (GroupStore::Save)
/// and the per-shard checkpoint slices (shard/sharded_pipeline.h), so the
/// two formats can never drift field-by-field.
void WriteComponentState(const GroupStore::ComponentState& comp,
                         const std::vector<RecordPair>& positives,
                         BinaryWriter* writer);

/// Read WriteComponentState output; every id bounded by [0, num_records).
/// The stored edge list goes to `edges`, for InsertComponent to check.
Status ReadComponentState(BinaryReader* reader, size_t num_records,
                          GroupStore::ComponentState* comp,
                          std::vector<RecordPair>* edges);

}  // namespace gralmatch

#endif  // GRALMATCH_STREAM_GROUP_STORE_H_
