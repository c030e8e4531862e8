#ifndef GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_
#define GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_

/// \file incremental_index.h
/// Incremental blocking indexes for streaming ingestion: the Token Overlap
/// and ID Overlap blockings maintained as in-place updatable inverted
/// indexes. Each AddRecords call absorbs a batch of appended records and
/// each RemoveRecords call retracts previously added ones; both return the
/// exact delta of the blocker's candidate-pair set, with the recomputation
/// scoped to the records the mutation can actually affect (dirty records /
/// touched identifier buckets).
///
/// Invariant: after any sequence of AddRecords/RemoveRecords calls, the
/// current pair set equals the batch blocker run on the live records. The
/// batch blockers (TokenOverlapBlocker, securities-mode IdOverlapBlocker)
/// delegate to these indexes, so the equivalence holds by construction —
/// there is one implementation of the blocking semantics, not two.
///
/// Note that both blockings are *not* monotone in their inputs: an
/// identifier bucket that grows past the bucket cap retracts every pair it
/// previously produced, a token crossing the document-frequency bounds
/// changes overlap counts globally, and a new record can displace an old one
/// from a record's top-n list. This is why AddRecords reports removed pairs
/// as well as added ones.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/status.h"
#include "data/record.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;
class ThreadPool;

/// Candidate-pair membership changes produced by one AddRecords or
/// RemoveRecords call. `added` pairs entered the blocker's current candidate
/// set, `removed` pairs left it; both are sorted ascending and disjoint.
struct CandidateDelta {
  std::vector<RecordPair> added;
  std::vector<RecordPair> removed;
};

/// \brief In-place updatable Token Overlap blocking (§5.3.1 semantics).
///
/// Maintains per-record token sets, document frequencies and postings, and
/// re-ranks on each mutation exactly the records whose top-n can change.
///
/// Dirty-set rule. A token *flips* when its document frequency crosses the
/// eligibility bounds [2, max_df] — because its own df moved, or because the
/// cap (a fraction of the live count) moved past it. If none of a live
/// record's tokens flipped, its overlap count with every other surviving
/// record is unchanged, so its ranking over the old records is unchanged
/// and its top-n can move in only two ways: a new record with overlap
/// >= min_overlap enters, or a record it keeps is removed. Hence an add
/// re-ranks the new records, the holders of flipped tokens, and the old
/// other-source records a new record overlaps by >= min_overlap (read off
/// the new records' own counting pass — overlap is symmetric); a removal
/// re-ranks the holders of flipped tokens and the records whose kept-list
/// holds a removed id. Every other record's kept-list provably equals what
/// a re-rank would produce, so skipping it is exact.
class IncrementalTokenOverlapIndex {
 public:
  IncrementalTokenOverlapIndex() : options_() {}
  /// `options.num_threads` is ignored; pass a pool to AddRecords instead.
  explicit IncrementalTokenOverlapIndex(TokenOverlapBlocker::Options options)
      : options_(options) {}

  /// Absorb records [num_records(), records.size()). `records` must contain
  /// every previously added record unchanged; `pool` (optional) fans out
  /// tokenization and re-ranking without affecting the result.
  CandidateDelta AddRecords(const RecordTable& records,
                            ThreadPool* pool = nullptr);

  /// Retract previously added records. Each id in `removed_ids` (in range,
  /// unique, not yet removed) gives up its tokens: document frequencies
  /// drop and the max-df cap is recomputed from the live-record count.
  /// Re-ranked are exactly the live holders of a flipped token (a touched
  /// token crossing [2, max_df] either way, or an untouched one the falling
  /// cap pushes out) and the live records whose kept-list holds a removed
  /// id. The second set is found by scanning the <= top_n kept-list of each
  /// live holder of a touched, previously eligible token: a kept record
  /// shares such a token with its keeper. Any other live record lost only
  /// candidates it did not keep, at unchanged counts, so its top-n stands.
  /// `records` must still hold the removed records' payloads (the table is
  /// append-only; removal is logical). The delta may contain added pairs:
  /// retraction is not monotone either, a df falling back into [2, max_df]
  /// re-admits its token.
  CandidateDelta RemoveRecords(const RecordTable& records,
                               const std::vector<RecordId>& removed_ids,
                               ThreadPool* pool = nullptr);

  /// Current candidate pairs, ascending.
  std::vector<RecordPair> CurrentPairs() const;
  /// Whether `pair` is a current candidate pair.
  bool Contains(const RecordPair& pair) const {
    return refcount_.count(pair) != 0;
  }

  size_t num_records() const { return num_records_; }
  /// Live (non-retracted) records; the max-df cap is a fraction of this
  /// count, not of the table size.
  size_t num_live() const { return num_live_; }
  /// Restore the live count after LoadState (which defaults every record to
  /// alive — the owning pipeline carries the tombstone set).
  void SetNumLive(size_t live) { num_live_ = live; }
  size_t num_tokens() const { return postings_.size(); }
  /// Records ranked (new or re-ranked) by all mutations on this object so
  /// far — the cost the dirty-set rule bounds. A counter, not index state:
  /// never serialized, and left alone by LoadState.
  size_t records_ranked() const { return records_ranked_; }

  /// Serialize the complete index state (options included) into `writer`.
  /// Map-backed members are emitted in sorted order, so the bytes are a
  /// deterministic function of the logical state.
  void SaveState(BinaryWriter* writer) const;

  /// Restore the state written by SaveState, replacing the current contents.
  /// Returns an error on truncated or inconsistent input (including
  /// postings that are not strictly ascending, or a stored document
  /// frequency other than its postings count), leaving the index in an
  /// unspecified state that must be discarded.
  Status LoadState(BinaryReader* reader);

 private:
  /// Top-n other-source records by token overlap for one record, using the
  /// same eligibility, min-overlap and (count desc, id asc) tie-break rules
  /// as the batch blocker. Overlaps are counted in a per-thread dense array
  /// indexed by record id. When `partners` is non-null, every other-source
  /// record with overlap >= min_overlap (kept or not) is appended to it.
  std::vector<RecordId> RankRecord(const RecordTable& records, RecordId record,
                                   std::vector<RecordId>* partners) const;

  static bool Eligible(size_t df, uint32_t max_df) {
    return df >= 2 && df <= max_df;
  }
  /// Max-df cap for the current live count.
  uint32_t MaxDf() const;
  /// Flag every holder of each token whose df lies in (lo, hi] and which is
  /// not in `touched` (sorted): the tokens a moving cap alone flips.
  void MarkCapBand(uint32_t lo, uint32_t hi,
                   const std::vector<std::pair<int32_t, uint32_t>>& touched,
                   std::vector<char>* dirty) const;
  /// Re-rank `ids` (fanned out over `pool`) and fold each changed kept-list
  /// into the refcounts, snapshotting pre-mutation counts into `old_ref`.
  void Rerank(const RecordTable& records, const std::vector<RecordId>& ids,
              ThreadPool* pool,
              std::unordered_map<RecordPair, uint32_t, RecordPairHash>* old_ref);
  /// Replace kept_[record] with `after`, adjusting the refcounts.
  void SetKept(RecordId record, std::vector<RecordId> after,
               std::unordered_map<RecordPair, uint32_t, RecordPairHash>* old_ref);

  TokenOverlapBlocker::Options options_;
  size_t num_records_ = 0;
  size_t num_live_ = 0;
  uint32_t max_df_ = 1;
  std::unordered_map<std::string, int32_t> token_id_;
  /// Postings per token id: the live holders, ascending record id. A
  /// token's document frequency is its postings count.
  std::vector<std::vector<RecordId>> postings_;
  /// Token ids per record (unique).
  std::vector<std::vector<int32_t>> record_tokens_;
  /// Current top-n candidate list per record.
  std::vector<std::vector<RecordId>> kept_;
  /// Pair -> number of kept-lists currently containing it (1 or 2).
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> refcount_;
  size_t records_ranked_ = 0;
};

/// \brief In-place updatable ID Overlap blocking (securities mode): records
/// sharing an identifier value become candidates while the value's bucket
/// stays within [2, max_bucket] holders. Buckets growing past the cap
/// retract their pairs, exactly as a from-scratch run would drop them.
class IncrementalIdOverlapIndex {
 public:
  IncrementalIdOverlapIndex() = default;
  explicit IncrementalIdOverlapIndex(size_t max_bucket)
      : max_bucket_(max_bucket) {}

  /// Absorb records [num_records(), records.size()); same contract as
  /// IncrementalTokenOverlapIndex::AddRecords.
  CandidateDelta AddRecords(const RecordTable& records,
                            ThreadPool* pool = nullptr);

  /// Retract previously added records: each removed id's identifier values
  /// release their holder entries (surviving holder order preserved, empty
  /// buckets retained), and every touched bucket re-derives its pair
  /// contribution — a bucket shrinking back into [2, max_bucket] holders
  /// *re-admits* pairs it had overflowed away. Preconditions as for
  /// IncrementalTokenOverlapIndex::RemoveRecords.
  CandidateDelta RemoveRecords(const RecordTable& records,
                               const std::vector<RecordId>& removed_ids,
                               ThreadPool* pool = nullptr);

  /// Current candidate pairs, ascending.
  std::vector<RecordPair> CurrentPairs() const;
  /// Whether `pair` is a current candidate pair.
  bool Contains(const RecordPair& pair) const {
    return refcount_.count(pair) != 0;
  }

  size_t num_records() const { return num_records_; }

  /// Serialize / restore the complete index state; same contract as the
  /// token index's SaveState/LoadState. Bucket holder order is preserved
  /// verbatim (it determines how future batches diff against the past).
  void SaveState(BinaryWriter* writer) const;
  Status LoadState(BinaryReader* reader);

 private:
  size_t max_bucket_ = IdOverlapBlocker::kMaxBucket;
  size_t num_records_ = 0;
  /// Identifier value -> holder record ids (insertion order, may repeat a
  /// record that carries the value under several attributes).
  std::unordered_map<std::string, std::vector<RecordId>> index_;
  /// Pair -> number of identifier buckets currently producing it.
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> refcount_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_
