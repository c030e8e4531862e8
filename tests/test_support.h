#ifndef GRALMATCH_TESTS_TEST_SUPPORT_H_
#define GRALMATCH_TESTS_TEST_SUPPORT_H_

/// \file test_support.h
/// Fixtures the pipeline suites share: deterministic matchers, the two
/// synthetic record fixtures, the from-scratch references and the result
/// comparisons, plus `LayoutPipeline`, which runs one schedule through
/// either pipeline and saves it in that pipeline's checkpoint layout.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/record.h"
#include "matching/matcher.h"
#include "shard/sharded_pipeline.h"
#include "stream/incremental_pipeline.h"

namespace gralmatch {
namespace testing_support {

// ---------------------------------------------------------------------------
// Matchers
// ---------------------------------------------------------------------------

/// Token Jaccard of AllText, scaled and capped at 1: no transcendental math,
/// so scores are bit-identical everywhere. The scale is part of the
/// fingerprint ("jaccard#<scale>"), so a second scale is a matcher swap.
class JaccardMatcher : public PairwiseMatcher {
 public:
  explicit JaccardMatcher(double scale = 1.0) : scale_(scale) {}

  std::string name() const override { return "jaccard"; }
  std::string Fingerprint() const override;
  double MatchProbability(const Record& a, const Record& b) const override;

 private:
  double scale_;
};

/// Counts calls and the distinct pairs seen, keyed by the "_uid" stamp
/// WithUids puts on every record. Thread-safe, as the pipelines require.
class CountingMatcher : public PairwiseMatcher {
 public:
  explicit CountingMatcher(const PairwiseMatcher* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }
  double MatchProbability(const Record& a, const Record& b) const override;

  size_t calls() const;
  size_t distinct_pairs() const;

 private:
  const PairwiseMatcher* inner_;
  mutable std::mutex mu_;
  mutable size_t calls_ = 0;
  mutable std::set<std::pair<int, int>> seen_;
};

/// Overrides ScoreBatch (the default loops MatchProbability) and records how
/// pairs arrive, so a test can pin that scoring goes through real batches.
class BatchingMatcher : public PairwiseMatcher {
 public:
  explicit BatchingMatcher(const PairwiseMatcher* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }
  double MatchProbability(const Record& a, const Record& b) const override;
  void ScoreBatch(const RecordTable& records, Span<const RecordPair> pairs,
                  Span<double> out) const override;

  size_t single_calls() const;
  size_t batch_calls() const;
  size_t batched_pairs() const;
  size_t max_batch() const;

 private:
  const PairwiseMatcher* inner_;
  mutable std::mutex mu_;
  mutable size_t single_calls_ = 0;
  mutable size_t batch_calls_ = 0;
  mutable size_t batched_pairs_ = 0;
  mutable size_t max_batch_ = 0;
};

/// Scores like JaccardMatcher until armed, then throws once its call budget
/// is spent — a remote scorer dying mid-mutation. The fingerprint is a
/// constructor argument so a test can also force a full rescore.
class ThrowingMatcher : public PairwiseMatcher {
 public:
  explicit ThrowingMatcher(std::string fingerprint = "throwing#1")
      : fingerprint_(std::move(fingerprint)) {}

  std::string name() const override { return "throwing"; }
  std::string Fingerprint() const override { return fingerprint_; }
  double MatchProbability(const Record& a, const Record& b) const override;

  /// Allow `calls` more healthy calls; every later call throws.
  void ArmAfter(size_t calls);

 private:
  std::string fingerprint_;
  mutable std::mutex mu_;
  mutable size_t budget_ = SIZE_MAX;
};

// ---------------------------------------------------------------------------
// Fixtures and references
// ---------------------------------------------------------------------------

/// Records of `table`, each stamped with a unique "_uid" metadata attribute
/// (metadata is excluded from matching, blocking and routing).
std::vector<Record> WithUids(const RecordTable& table);

/// Securities of the financial generator (seed 505 unless given), stamped.
std::vector<Record> FinancialRecords(size_t num_groups, uint64_t seed = 505);

/// Offers of the WDC products generator (seed 77 unless given), stamped.
std::vector<Record> WdcRecords(size_t num_entities, uint64_t seed = 77);

/// `k` batch sizes summing to `n`; the last batch takes the remainder.
std::vector<size_t> EqualBatches(size_t n, size_t k);

/// Records [begin, end) of `records` as one batch.
std::vector<Record> Slice(const std::vector<Record>& records, size_t begin,
                          size_t end);

/// Pipeline configuration tightened so every cleanup phase fires on the
/// fixture sizes: nonzero pre-cleanup, min-cut and betweenness counters
/// keep ExpectEquivalent's counter checks non-vacuous.
IncrementalPipelineConfig TightConfig(size_t num_threads,
                                      double match_threshold);

/// From-scratch reference: the blockers the incremental pipeline maintains
/// and the batch pipeline, run on all of `records`.
PipelineResult RunBatchReference(const RecordTable& records,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher);

/// From-scratch reference on the live records of a CRUD history, remapped
/// to the original sparse ids. The compact -> original map is monotone, so
/// every order the batch pipeline guarantees survives the remap.
PipelineResult SurvivorReference(const RecordTable& records,
                                 const std::vector<char>& alive,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher);

/// Pairs, components, groups and every cleanup counter: everything a
/// pipeline snapshot holds apart from the batch pipeline's wall clock
/// (incremental snapshots report 0 seconds).
void ExpectEquivalent(const PipelineResult& actual,
                      const PipelineResult& reference,
                      const std::string& context);

/// Every count of two IngestReports (the wall-clock seconds excepted).
void ExpectEqualReports(const IngestReport& a, const IngestReport& b,
                        const std::string& context);

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// Whole file contents ("" when missing).
std::string ReadFileBytes(const std::string& path);
void WriteFileBytes(const std::string& path, const std::string& bytes);

/// `image` with its trailing FNV-1a 64 checksum recomputed over everything
/// before it, so a deliberate patch reaches the body decoders.
std::string WithFixedChecksum(std::string image);

// ---------------------------------------------------------------------------
// Layouts
// ---------------------------------------------------------------------------

/// One schedule through either pipeline: `shards == 0` is an
/// IncrementalPipeline saved as one GRLMCKPT image file, `shards == S >= 1`
/// a ShardedPipeline with S shards saved as a manifest directory. The
/// mutation and observation calls forward to whichever one it holds.
class LayoutPipeline {
 public:
  LayoutPipeline(size_t shards, const IncrementalPipelineConfig& config,
                 uint64_t router_seed = 17);
  ~LayoutPipeline();

  LayoutPipeline(const LayoutPipeline&) = delete;
  LayoutPipeline& operator=(const LayoutPipeline&) = delete;

  size_t shards() const { return shards_; }
  ShardedPipeline* sharded() const { return sharded_.get(); }

  Result<IngestReport> Ingest(const std::vector<Record>& batch,
                              const PairwiseMatcher& matcher);
  Result<IngestReport> Remove(const std::vector<RecordId>& ids,
                              const PairwiseMatcher& matcher);
  Result<IngestReport> Update(const std::vector<RecordUpdate>& batch,
                              const PairwiseMatcher& matcher);
  Result<PipelineResult> Snapshot() const;
  Status status() const;

  const RecordTable& records() const;
  const std::vector<char>& alive() const;
  bool is_alive(RecordId id) const;
  size_t num_dead() const;
  size_t num_live() const;
  const IncrementalPipelineConfig& config() const;
  const std::string& fingerprint() const;
  size_t total_matcher_calls() const;
  size_t total_cache_hits() const;

  /// Save into `path`: the image file, or the checkpoint directory.
  Status Save(const std::string& path) const;

  /// Load a checkpoint of layout `shards` from `path`.
  static Result<std::unique_ptr<LayoutPipeline>> Load(
      size_t shards, const std::string& path, const PairwiseMatcher& matcher,
      size_t num_threads_override = 0);

 private:
  explicit LayoutPipeline(size_t shards) : shards_(shards) {}

  size_t shards_;
  std::unique_ptr<IncrementalPipeline> incremental_;
  std::unique_ptr<ShardedPipeline> sharded_;
};

/// The files of a checkpoint saved in layout `shards` at `path`, by name
/// relative to it ("" for an image; "manifest.grlm" and each shard file's
/// content-addressed name for a directory), with their bytes.
std::map<std::string, std::string> CheckpointFiles(size_t shards,
                                                   const std::string& path);

/// The file that frames a checkpoint: the image, or the manifest.
std::string FramingFile(size_t shards, const std::string& path);

/// The files that hold the state: {the image}, or the shard files in shard
/// order.
std::vector<std::string> StateFiles(size_t shards, const std::string& path);

/// Replace `length` bytes at `pos` of state file `index` with
/// `replacement` (any size) and repair every framing layer the loader
/// checks first, so only the patched body bytes are wrong: the image's
/// trailing checksum; or the shard file's body length, trailing checksum
/// and content-addressed name, and the manifest's checksum for it and its
/// own trailing checksum.
void RewriteStateFile(size_t shards, const std::string& path, size_t index,
                      size_t pos, size_t length,
                      const std::string& replacement);

/// The same for the framing file (the image, or the manifest, whose body
/// holds the blocking state): the patched file's body length and trailing
/// checksum are repaired.
void RewriteFramingFile(size_t shards, const std::string& path, size_t pos,
                        size_t length, const std::string& replacement);

/// Little-endian encodings, as the checkpoint writers emit them.
std::string EncodeU64(uint64_t v);
std::string EncodeI32(int32_t v);
uint64_t DecodeU64(const std::string& bytes, size_t pos);
int32_t DecodeI32(const std::string& bytes, size_t pos);

}  // namespace testing_support
}  // namespace gralmatch

#endif  // GRALMATCH_TESTS_TEST_SUPPORT_H_
