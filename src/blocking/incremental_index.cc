#include "blocking/incremental_index.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/binary_io.h"
#include "exec/parallel.h"
#include "text/normalize.h"

namespace gralmatch {

namespace {

void WriteRecordIds(const std::vector<RecordId>& ids, BinaryWriter* writer) {
  writer->WriteU64(ids.size());
  for (RecordId id : ids) writer->WriteI32(id);
}

/// Read a RecordId vector whose entries must lie in [0, limit).
Status ReadRecordIds(BinaryReader* reader, size_t limit,
                     std::vector<RecordId>* ids) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
  ids->clear();
  ids->reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    RecordId id = kInvalidRecord;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&id));
    if (id < 0 || static_cast<size_t>(id) >= limit) {
      return Status::IOError("corrupted index state: record id " +
                             std::to_string(id) + " out of range");
    }
    ids->push_back(id);
  }
  return Status::OK();
}

/// Add `delta` to `pair`'s refcount, snapshotting its pre-pass value into
/// `old_ref` the first time the pass touches it.
void BumpRefcount(
    const RecordPair& pair, int delta,
    std::unordered_map<RecordPair, uint32_t, RecordPairHash>* refcount,
    std::unordered_map<RecordPair, uint32_t, RecordPairHash>* old_ref) {
  uint32_t& count = (*refcount)[pair];
  old_ref->try_emplace(pair, count);
  count = static_cast<uint32_t>(static_cast<int>(count) + delta);
}

/// The pairs of a refcount map, ascending.
std::vector<RecordPair> SortedPairs(
    const std::unordered_map<RecordPair, uint32_t, RecordPairHash>& refcount) {
  std::vector<RecordPair> out;
  out.reserve(refcount.size());
  for (const auto& [pair, count] : refcount) out.push_back(pair);
  std::sort(out.begin(), out.end());
  return out;
}

/// Finalize a refcount-delta pass: compare each touched pair's pre-batch
/// refcount snapshot against its current one, emit membership transitions,
/// and drop zero entries. Deltas are sorted so callers see a deterministic
/// order regardless of hash-map iteration.
CandidateDelta FinalizeDelta(
    const std::unordered_map<RecordPair, uint32_t, RecordPairHash>& old_ref,
    std::unordered_map<RecordPair, uint32_t, RecordPairHash>* refcount) {
  CandidateDelta delta;
  for (const auto& [pair, old_count] : old_ref) {
    auto it = refcount->find(pair);
    const uint32_t now = it == refcount->end() ? 0 : it->second;
    if (old_count == 0 && now > 0) {
      delta.added.push_back(pair);
    } else if (old_count > 0 && now == 0) {
      delta.removed.push_back(pair);
    }
    if (now == 0 && it != refcount->end()) refcount->erase(it);
  }
  std::sort(delta.added.begin(), delta.added.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  return delta;
}

}  // namespace

// ---------------------------------------------------------------------------
// Token Overlap
// ---------------------------------------------------------------------------

namespace {

/// Per-thread scratch of the overlap-counting kernel: a dense overlap count
/// per record id, plus the ids whose count left zero during the current
/// call. Only those are reset afterwards, so a call costs the postings it
/// reads, not the table size.
struct OverlapScratch {
  std::vector<uint32_t> count;
  std::vector<RecordId> touched;
};

/// Zeroes the touched counts on scope exit — exceptions included, since the
/// scratch outlives the call and is shared by every index on the thread.
class ScratchReset {
 public:
  explicit ScratchReset(OverlapScratch* scratch) : scratch_(scratch) {}
  ~ScratchReset() {
    for (RecordId r : scratch_->touched) {
      scratch_->count[static_cast<size_t>(r)] = 0;
    }
    scratch_->touched.clear();
  }
  ScratchReset(const ScratchReset&) = delete;
  ScratchReset& operator=(const ScratchReset&) = delete;

 private:
  OverlapScratch* scratch_;
};

/// Distinct token ids of `occurrences` with their multiplicities, sorted by
/// id. Each record's tokens are unique, so a multiplicity is the number of
/// holders the token gained (or lost) in one mutation.
std::vector<std::pair<int32_t, uint32_t>> TallyTokens(
    std::vector<int32_t> occurrences) {
  std::sort(occurrences.begin(), occurrences.end());
  std::vector<std::pair<int32_t, uint32_t>> tally;
  for (int32_t tid : occurrences) {
    if (tally.empty() || tally.back().first != tid) tally.emplace_back(tid, 0);
    ++tally.back().second;
  }
  return tally;
}

void MarkHolders(const std::vector<RecordId>& postings,
                 std::vector<char>* dirty) {
  for (RecordId r : postings) (*dirty)[static_cast<size_t>(r)] = 1;
}

/// A record's content tokens, sorted and deduplicated. Document-frequency
/// eligibility is applied by the index, not here: the df bounds are a
/// property of the whole record set.
std::vector<std::string> ContentTokens(const Record& record) {
  auto toks = TokenizeContentWords(record.AllText());
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  return toks;
}

}  // namespace

uint32_t IncrementalTokenOverlapIndex::MaxDf() const {
  // The df cap is a fraction of the *live* record count: a from-scratch run
  // on the survivors never sees the retracted records at all.
  return static_cast<uint32_t>(options_.max_token_df *
                               static_cast<double>(num_live_)) +
         1;
}

std::vector<RecordId> IncrementalTokenOverlapIndex::RankRecord(
    const RecordTable& records, RecordId record,
    std::vector<RecordId>* partners) const {
  thread_local OverlapScratch scratch;
  if (scratch.count.size() < num_records_) scratch.count.resize(num_records_);
  ScratchReset reset(&scratch);
  for (int32_t tid : record_tokens_[static_cast<size_t>(record)]) {
    const std::vector<RecordId>& postings = postings_[static_cast<size_t>(tid)];
    if (!Eligible(postings.size(), max_df_)) continue;
    for (RecordId other : postings) {
      uint32_t& count = scratch.count[static_cast<size_t>(other)];
      if (count == 0) scratch.touched.push_back(other);
      ++count;
    }
  }
  const SourceId source = records.at(record).source();
  std::vector<std::pair<RecordId, uint32_t>> ranked;
  for (RecordId other : scratch.touched) {
    const uint32_t count = scratch.count[static_cast<size_t>(other)];
    if (other == record || count < options_.min_overlap) continue;
    if (records.at(other).source() == source) continue;
    ranked.emplace_back(other, count);
  }
  if (partners != nullptr) {
    for (const auto& [rid, count] : ranked) partners->push_back(rid);
  }
  // (count desc, id asc) is a total order, so the result does not depend on
  // the order the counting pass first touched each record in.
  const size_t keep = std::min(options_.top_n, ranked.size());
  auto by_count_then_id = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(keep),
                    ranked.end(), by_count_then_id);
  std::vector<RecordId> kept;
  kept.reserve(keep);
  for (size_t k = 0; k < keep; ++k) kept.push_back(ranked[k].first);
  return kept;
}

void IncrementalTokenOverlapIndex::MarkCapBand(
    uint32_t lo, uint32_t hi,
    const std::vector<std::pair<int32_t, uint32_t>>& touched,
    std::vector<char>* dirty) const {
  if (lo >= hi) return;
  for (size_t tid = 0; tid < postings_.size(); ++tid) {
    const std::vector<RecordId>& postings = postings_[tid];
    if (postings.size() <= lo || postings.size() > hi) continue;
    const bool was_touched = std::binary_search(
        touched.begin(), touched.end(),
        std::make_pair(static_cast<int32_t>(tid), uint32_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (!was_touched) MarkHolders(postings, dirty);
  }
}

void IncrementalTokenOverlapIndex::SetKept(
    RecordId record, std::vector<RecordId> after,
    std::unordered_map<RecordPair, uint32_t, RecordPairHash>* old_ref) {
  std::vector<RecordId>& before = kept_[static_cast<size_t>(record)];
  for (RecordId o : before) {
    if (std::find(after.begin(), after.end(), o) == after.end()) {
      BumpRefcount(RecordPair(record, o), -1, &refcount_, old_ref);
    }
  }
  for (RecordId o : after) {
    if (std::find(before.begin(), before.end(), o) == before.end()) {
      BumpRefcount(RecordPair(record, o), +1, &refcount_, old_ref);
    }
  }
  before = std::move(after);
}

void IncrementalTokenOverlapIndex::Rerank(
    const RecordTable& records, const std::vector<RecordId>& ids,
    ThreadPool* pool,
    std::unordered_map<RecordPair, uint32_t, RecordPairHash>* old_ref) {
  // Each record ranks into its own slot (deterministic); the refcount merge
  // is serial.
  records_ranked_ += ids.size();
  std::vector<std::vector<RecordId>> ranked(ids.size());
  ParallelFor(
      pool, 0, ids.size(),
      [&](size_t k) { ranked[k] = RankRecord(records, ids[k], nullptr); },
      /*grain=*/4);
  for (size_t k = 0; k < ids.size(); ++k) {
    SetKept(ids[k], std::move(ranked[k]), old_ref);
  }
}

CandidateDelta IncrementalTokenOverlapIndex::AddRecords(
    const RecordTable& records, ThreadPool* pool) {
  const size_t old_n = num_records_;
  const size_t new_n = records.size();
  if (new_n <= old_n) return {};
  const size_t num_new = new_n - old_n;

  // Tokenize the new records (deduplicated tokens); records are independent,
  // so this fans out.
  std::vector<std::vector<std::string>> new_tokens(num_new);
  ParallelFor(
      pool, 0, num_new,
      [&](size_t k) {
        new_tokens[k] =
            ContentTokens(records.at(static_cast<RecordId>(old_n + k)));
      },
      /*grain=*/32);

  // Intern tokens and append to their postings in place. Ids only grow, so
  // appending keeps every postings list ascending.
  const uint32_t old_max_df = max_df_;
  std::vector<int32_t> occurrences;
  record_tokens_.resize(new_n);
  for (size_t k = 0; k < num_new; ++k) {
    const RecordId rid = static_cast<RecordId>(old_n + k);
    auto& ids = record_tokens_[static_cast<size_t>(rid)];
    ids.reserve(new_tokens[k].size());
    for (auto& tok : new_tokens[k]) {
      auto [it, inserted] =
          token_id_.try_emplace(std::move(tok),
                                static_cast<int32_t>(postings_.size()));
      if (inserted) postings_.emplace_back();
      const int32_t tid = it->second;
      postings_[static_cast<size_t>(tid)].push_back(rid);
      ids.push_back(tid);
      occurrences.push_back(tid);
    }
  }
  num_records_ = new_n;
  num_live_ += num_new;
  max_df_ = MaxDf();

  // Old records holding a flipped token: a touched token whose eligibility
  // changed, or an untouched one re-admitted because the cap rose past its
  // df. Tokens that kept their eligibility leave old-old overlaps intact.
  const auto touched = TallyTokens(std::move(occurrences));
  std::vector<char> dirty(new_n, 0);
  for (const auto& [tid, gained] : touched) {
    const std::vector<RecordId>& postings = postings_[static_cast<size_t>(tid)];
    if (Eligible(postings.size() - gained, old_max_df) !=
        Eligible(postings.size(), max_df_)) {
      MarkHolders(postings, &dirty);
    }
  }
  MarkCapBand(old_max_df, max_df_, touched, &dirty);

  // The new records rank first. Overlap is symmetric, so their counting
  // pass also names every old other-source record that a new record now
  // overlaps by >= min_overlap — the only other way an old record's top-n
  // can change.
  records_ranked_ += num_new;
  std::vector<std::vector<RecordId>> new_kept(num_new), partners(num_new);
  ParallelFor(
      pool, 0, num_new,
      [&](size_t k) {
        new_kept[k] = RankRecord(records, static_cast<RecordId>(old_n + k),
                                 &partners[k]);
      },
      /*grain=*/4);
  for (const auto& list : partners) {
    for (RecordId o : list) {
      if (static_cast<size_t>(o) < old_n) dirty[static_cast<size_t>(o)] = 1;
    }
  }
  std::vector<RecordId> dirty_old;
  for (size_t r = 0; r < old_n; ++r) {
    if (dirty[r]) dirty_old.push_back(static_cast<RecordId>(r));
  }

  kept_.resize(new_n);
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_ref;
  for (size_t k = 0; k < num_new; ++k) {
    SetKept(static_cast<RecordId>(old_n + k), std::move(new_kept[k]),
            &old_ref);
  }
  Rerank(records, dirty_old, pool, &old_ref);
  return FinalizeDelta(old_ref, &refcount_);
}

CandidateDelta IncrementalTokenOverlapIndex::RemoveRecords(
    const RecordTable& records, const std::vector<RecordId>& removed_ids,
    ThreadPool* pool) {
  if (removed_ids.empty()) return {};
  std::vector<char> removed(num_records_, 0);
  for (RecordId r : removed_ids) removed[static_cast<size_t>(r)] = 1;

  // Release the removed records' tokens: each leaves the (ascending)
  // postings, which therefore keep listing exactly the live holders.
  const uint32_t old_max_df = max_df_;
  std::vector<int32_t> occurrences;
  for (RecordId r : removed_ids) {
    for (int32_t tid : record_tokens_[static_cast<size_t>(r)]) {
      std::vector<RecordId>& postings = postings_[static_cast<size_t>(tid)];
      auto it = std::lower_bound(postings.begin(), postings.end(), r);
      if (it != postings.end() && *it == r) postings.erase(it);
      occurrences.push_back(tid);
    }
  }
  num_live_ -= removed_ids.size();
  max_df_ = MaxDf();

  // Dirty records: live holders of a flipped token — a touched token whose
  // eligibility changed, or an untouched one the falling cap pushed out —
  // and live records keeping a removed one. A kept record shares a
  // previously eligible token with its keeper, and that token is touched,
  // so scanning the kept-lists of those tokens' holders finds them all.
  auto keeps_removed = [&](RecordId r) {
    for (RecordId o : kept_[static_cast<size_t>(r)]) {
      if (removed[static_cast<size_t>(o)]) return true;
    }
    return false;
  };
  const auto touched = TallyTokens(std::move(occurrences));
  std::vector<char> dirty(num_records_, 0);
  for (const auto& [tid, lost] : touched) {
    const std::vector<RecordId>& postings = postings_[static_cast<size_t>(tid)];
    const bool was_eligible = Eligible(postings.size() + lost, old_max_df);
    if (was_eligible != Eligible(postings.size(), max_df_)) {
      MarkHolders(postings, &dirty);
    } else if (was_eligible) {
      for (RecordId r : postings) {
        if (!dirty[static_cast<size_t>(r)] && keeps_removed(r)) {
          dirty[static_cast<size_t>(r)] = 1;
        }
      }
    }
  }
  MarkCapBand(max_df_, old_max_df, touched, &dirty);

  // The removed records' own kept-lists retract wholesale; re-ranking the
  // dirty records retracts the other halves.
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_ref;
  for (RecordId r : removed_ids) {
    SetKept(r, {}, &old_ref);
    record_tokens_[static_cast<size_t>(r)].clear();
  }
  std::vector<RecordId> dirty_ids;
  for (size_t r = 0; r < num_records_; ++r) {
    if (dirty[r]) dirty_ids.push_back(static_cast<RecordId>(r));
  }
  Rerank(records, dirty_ids, pool, &old_ref);
  return FinalizeDelta(old_ref, &refcount_);
}

std::vector<RecordPair> IncrementalTokenOverlapIndex::CurrentPairs() const {
  return SortedPairs(refcount_);
}

void IncrementalTokenOverlapIndex::SaveState(BinaryWriter* writer) const {
  writer->WriteU64(options_.top_n);
  writer->WriteU64(options_.min_overlap);
  writer->WriteDouble(options_.max_token_df);
  writer->WriteU64(num_records_);
  writer->WriteU32(max_df_);

  // Tokens in id order: interning order matters because the (count desc,
  // id asc) ranking tie-break compares token-holder record ids — it must
  // survive the round trip exactly.
  std::vector<const std::string*> token_of_id(postings_.size(), nullptr);
  for (const auto& [text, tid] : token_id_) {
    token_of_id[static_cast<size_t>(tid)] = &text;
  }
  writer->WriteU64(postings_.size());
  for (size_t tid = 0; tid < postings_.size(); ++tid) {
    writer->WriteString(*token_of_id[tid]);
    writer->WriteU32(static_cast<uint32_t>(postings_[tid].size()));
    WriteRecordIds(postings_[tid], writer);
  }

  writer->WriteU64(record_tokens_.size());
  for (const auto& ids : record_tokens_) {
    writer->WriteU64(ids.size());
    for (int32_t tid : ids) writer->WriteI32(tid);
  }
  writer->WriteU64(kept_.size());
  for (const auto& ids : kept_) WriteRecordIds(ids, writer);
  WritePairValues({refcount_.begin(), refcount_.end()}, writer);
}

Status IncrementalTokenOverlapIndex::LoadState(BinaryReader* reader) {
  uint64_t top_n = 0, min_overlap = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&top_n));
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&min_overlap));
  options_.top_n = static_cast<size_t>(top_n);
  options_.min_overlap = static_cast<size_t>(min_overlap);
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&options_.max_token_df));
  options_.num_threads = 1;  // ignored by this class; pools come via callers

  uint64_t num_records = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&num_records));
  num_records_ = static_cast<size_t>(num_records);
  // The serialized state predates tombstones; the owning pipeline restores
  // the live count via SetNumLive once it knows the tombstone set.
  num_live_ = num_records_;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&max_df_));

  uint64_t num_tokens = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(13, &num_tokens));
  token_id_.clear();
  postings_.clear();
  postings_.reserve(static_cast<size_t>(num_tokens));
  for (uint64_t tid = 0; tid < num_tokens; ++tid) {
    std::string text;
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&text));
    uint32_t df = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&df));
    std::vector<RecordId> postings;
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &postings));
    auto [it, inserted] =
        token_id_.emplace(std::move(text), static_cast<int32_t>(tid));
    (void)it;
    if (!inserted) {
      return Status::IOError("corrupted token index: duplicate token text");
    }
    // Removal locates holders by binary search, so postings must ascend.
    if (std::adjacent_find(postings.begin(), postings.end(),
                           std::greater_equal<RecordId>()) != postings.end()) {
      return Status::IOError("corrupted token index: postings not ascending");
    }
    // The stored document frequency is the postings count.
    if (df != postings.size()) {
      return Status::IOError(
          "corrupted token index: document frequency disagrees with the "
          "postings");
    }
    postings_.push_back(std::move(postings));
  }

  uint64_t rows = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &rows));
  if (rows != num_records_) {
    return Status::IOError("corrupted token index: per-record token rows " +
                           std::to_string(rows) + " != record count " +
                           std::to_string(num_records_));
  }
  record_tokens_.assign(static_cast<size_t>(rows), {});
  for (auto& ids : record_tokens_) {
    uint64_t count = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
    ids.reserve(static_cast<size_t>(count));
    for (uint64_t k = 0; k < count; ++k) {
      int32_t tid = -1;
      GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&tid));
      if (tid < 0 || static_cast<size_t>(tid) >= postings_.size()) {
        return Status::IOError("corrupted token index: token id " +
                               std::to_string(tid) + " out of range");
      }
      ids.push_back(tid);
    }
  }

  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &rows));
  if (rows != num_records_) {
    return Status::IOError("corrupted token index: kept-list rows " +
                           std::to_string(rows) + " != record count " +
                           std::to_string(num_records_));
  }
  kept_.assign(static_cast<size_t>(rows), {});
  for (auto& ids : kept_) {
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &ids));
  }
  PairValues refcounts;
  GRALMATCH_RETURN_NOT_OK(ReadPairValues(reader, num_records_, &refcounts));
  refcount_ = {refcounts.begin(), refcounts.end()};
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ID Overlap
// ---------------------------------------------------------------------------

namespace {

/// Cross-source pairs of the first `count` holders of one identifier bucket
/// (sorted, deduplicated); empty when the bucket is outside [2, max_bucket].
std::vector<RecordPair> BucketPairs(const RecordTable& records,
                                    const std::vector<RecordId>& holders,
                                    size_t count, size_t max_bucket) {
  std::vector<RecordPair> out;
  if (count < 2 || count > max_bucket) return out;
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      if (holders[i] == holders[j]) continue;
      if (records.at(holders[i]).source() == records.at(holders[j]).source()) {
        continue;
      }
      out.emplace_back(holders[i], holders[j]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// A record's identifier values, in attribute order with repeats preserved
/// (a record carrying one value under several attributes holds a place in
/// its bucket once per attribute).
std::vector<std::string> IdentifierValues(const Record& record) {
  std::vector<std::string> keys;
  for (const auto& attr : IdentifierAttributes()) {
    for (auto& value : record.GetMulti(attr)) {
      keys.push_back(std::move(value));
    }
  }
  return keys;
}

}  // namespace

CandidateDelta IncrementalIdOverlapIndex::AddRecords(const RecordTable& records,
                                                     ThreadPool* pool) {
  const size_t old_n = num_records_;
  const size_t new_n = records.size();
  if (new_n <= old_n) return {};

  // Append the new holders, remembering each touched bucket's pre-batch
  // size. Bucket vectors are stable across rehashing (node-based map), so
  // pointers key the touched set safely.
  std::unordered_map<const std::vector<RecordId>*, size_t> touched;
  for (size_t r = old_n; r < new_n; ++r) {
    for (const auto& value :
         IdentifierValues(records.at(static_cast<RecordId>(r)))) {
      std::vector<RecordId>& holders = index_[value];
      touched.try_emplace(&holders, holders.size());
      holders.push_back(static_cast<RecordId>(r));
    }
  }
  num_records_ = new_n;

  // Per touched bucket, diff the pre-batch contribution against the current
  // one (each bucket ranks into its own slot; the merge below is serial).
  struct BucketDiff {
    const std::vector<RecordId>* holders;
    size_t old_count;
    std::vector<RecordPair> before, after;
  };
  std::vector<BucketDiff> diffs;
  diffs.reserve(touched.size());
  for (const auto& [holders, old_count] : touched) {
    diffs.push_back({holders, old_count, {}, {}});
  }
  ParallelFor(
      pool, 0, diffs.size(),
      [&](size_t k) {
        BucketDiff& d = diffs[k];
        d.before = BucketPairs(records, *d.holders, d.old_count, max_bucket_);
        d.after =
            BucketPairs(records, *d.holders, d.holders->size(), max_bucket_);
      },
      /*grain=*/4);

  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_ref;
  auto bump = [&](const RecordPair& pair, int delta) {
    BumpRefcount(pair, delta, &refcount_, &old_ref);
  };
  for (const BucketDiff& d : diffs) {
    // Both lists are sorted unique; emit set differences.
    for (const RecordPair& p : d.before) {
      if (!std::binary_search(d.after.begin(), d.after.end(), p)) bump(p, -1);
    }
    for (const RecordPair& p : d.after) {
      if (!std::binary_search(d.before.begin(), d.before.end(), p)) bump(p, +1);
    }
  }
  return FinalizeDelta(old_ref, &refcount_);
}

CandidateDelta IncrementalIdOverlapIndex::RemoveRecords(
    const RecordTable& records, const std::vector<RecordId>& removed_ids,
    ThreadPool* pool) {
  if (removed_ids.empty()) return {};

  // Re-extract each removed record's keys from its (retained) payload,
  // snapshot every touched bucket's pre-removal holders once, then erase
  // the record's occurrences in place — surviving holder order is
  // preserved, and emptied buckets stay (their residue is what future
  // diffs slice against, exactly as an overflowed bucket's is).
  struct BucketDiff {
    const std::vector<RecordId>* holders;
    std::vector<RecordId> old_holders;
    std::vector<RecordPair> before, after;
  };
  std::vector<BucketDiff> diffs;
  std::unordered_map<const std::vector<RecordId>*, size_t> touched;
  for (RecordId r : removed_ids) {
    for (const auto& value : IdentifierValues(records.at(r))) {
      auto it = index_.find(value);
      if (it == index_.end()) continue;
      std::vector<RecordId>& holders = it->second;
      auto [slot, inserted] = touched.try_emplace(&holders, diffs.size());
      if (inserted) diffs.push_back({&holders, holders, {}, {}});
      (void)slot;
      holders.erase(std::remove(holders.begin(), holders.end(), r),
                    holders.end());
    }
  }

  ParallelFor(
      pool, 0, diffs.size(),
      [&](size_t k) {
        BucketDiff& d = diffs[k];
        d.before = BucketPairs(records, d.old_holders, d.old_holders.size(),
                               max_bucket_);
        d.after =
            BucketPairs(records, *d.holders, d.holders->size(), max_bucket_);
      },
      /*grain=*/4);

  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_ref;
  auto bump = [&](const RecordPair& pair, int delta) {
    BumpRefcount(pair, delta, &refcount_, &old_ref);
  };
  for (const BucketDiff& d : diffs) {
    for (const RecordPair& p : d.before) {
      if (!std::binary_search(d.after.begin(), d.after.end(), p)) bump(p, -1);
    }
    for (const RecordPair& p : d.after) {
      if (!std::binary_search(d.before.begin(), d.before.end(), p)) bump(p, +1);
    }
  }
  return FinalizeDelta(old_ref, &refcount_);
}

std::vector<RecordPair> IncrementalIdOverlapIndex::CurrentPairs() const {
  return SortedPairs(refcount_);
}

void IncrementalIdOverlapIndex::SaveState(BinaryWriter* writer) const {
  writer->WriteU64(max_bucket_);
  writer->WriteU64(num_records_);
  // Buckets in sorted value order for deterministic bytes; holder lists
  // verbatim (their insertion order is the prefix future diffs slice on).
  std::vector<const std::string*> values;
  values.reserve(index_.size());
  for (const auto& [value, holders] : index_) values.push_back(&value);
  std::sort(values.begin(), values.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  writer->WriteU64(values.size());
  for (const std::string* value : values) {
    writer->WriteString(*value);
    WriteRecordIds(index_.at(*value), writer);
  }
  WritePairValues({refcount_.begin(), refcount_.end()}, writer);
}

Status IncrementalIdOverlapIndex::LoadState(BinaryReader* reader) {
  uint64_t max_bucket = 0, num_records = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&max_bucket));
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&num_records));
  max_bucket_ = static_cast<size_t>(max_bucket);
  num_records_ = static_cast<size_t>(num_records);

  uint64_t buckets = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(16, &buckets));
  index_.clear();
  index_.reserve(static_cast<size_t>(buckets));
  for (uint64_t k = 0; k < buckets; ++k) {
    std::string value;
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&value));
    std::vector<RecordId> holders;
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &holders));
    auto [it, inserted] = index_.emplace(std::move(value), std::move(holders));
    (void)it;
    if (!inserted) {
      return Status::IOError("corrupted id index: duplicate identifier value");
    }
  }
  PairValues refcounts;
  GRALMATCH_RETURN_NOT_OK(ReadPairValues(reader, num_records_, &refcounts));
  refcount_ = {refcounts.begin(), refcounts.end()};
  return Status::OK();
}

}  // namespace gralmatch
