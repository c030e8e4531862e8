#include "test_support.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/binary_io.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "serve/checkpoint.h"
#include "serve/sharded_checkpoint.h"
#include "text/normalize.h"

namespace gralmatch {
namespace testing_support {
namespace {

std::vector<std::string> SortedTokens(const Record& rec) {
  auto toks = TokenizeContentWords(rec.AllText());
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  return toks;
}

}  // namespace

// ---------------------------------------------------------------------------
// Matchers
// ---------------------------------------------------------------------------

std::string JaccardMatcher::Fingerprint() const {
  return "jaccard#" + std::to_string(scale_);
}

double JaccardMatcher::MatchProbability(const Record& a,
                                        const Record& b) const {
  const auto ta = SortedTokens(a);
  const auto tb = SortedTokens(b);
  if (ta.empty() && tb.empty()) return 0.0;
  size_t common = 0;
  size_t ia = 0, ib = 0;
  while (ia < ta.size() && ib < tb.size()) {
    if (ta[ia] < tb[ib]) {
      ++ia;
    } else if (tb[ib] < ta[ia]) {
      ++ib;
    } else {
      ++common;
      ++ia;
      ++ib;
    }
  }
  const size_t total = ta.size() + tb.size() - common;
  const double score = scale_ * static_cast<double>(common) /
                       static_cast<double>(total == 0 ? 1 : total);
  return score > 1.0 ? 1.0 : score;
}

double CountingMatcher::MatchProbability(const Record& a,
                                         const Record& b) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++calls_;
    const int ua = std::stoi(std::string(a.Get("_uid")));
    const int ub = std::stoi(std::string(b.Get("_uid")));
    seen_.insert({std::min(ua, ub), std::max(ua, ub)});
  }
  return inner_->MatchProbability(a, b);
}

size_t CountingMatcher::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

size_t CountingMatcher::distinct_pairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_.size();
}

double BatchingMatcher::MatchProbability(const Record& a,
                                         const Record& b) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++single_calls_;
  }
  return inner_->MatchProbability(a, b);
}

void BatchingMatcher::ScoreBatch(const RecordTable& records,
                                 Span<const RecordPair> pairs,
                                 Span<double> out) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++batch_calls_;
    batched_pairs_ += pairs.size();
    max_batch_ = std::max(max_batch_, pairs.size());
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    out[i] = inner_->MatchProbability(records.at(pairs[i].a),
                                      records.at(pairs[i].b));
  }
}

size_t BatchingMatcher::single_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return single_calls_;
}

size_t BatchingMatcher::batch_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_calls_;
}

size_t BatchingMatcher::batched_pairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batched_pairs_;
}

size_t BatchingMatcher::max_batch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_batch_;
}

double ThrowingMatcher::MatchProbability(const Record& a,
                                         const Record& b) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (budget_ == 0) throw std::runtime_error("scorer backend unavailable");
    if (budget_ != SIZE_MAX) --budget_;
  }
  return JaccardMatcher().MatchProbability(a, b);
}

void ThrowingMatcher::ArmAfter(size_t calls) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = calls;
}

// ---------------------------------------------------------------------------
// Fixtures and references
// ---------------------------------------------------------------------------

std::vector<Record> WithUids(const RecordTable& table) {
  std::vector<Record> out;
  out.reserve(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    Record rec = table.at(static_cast<RecordId>(i));
    rec.Set("_uid", std::to_string(i));
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<Record> FinancialRecords(size_t num_groups, uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_groups = num_groups;
  return WithUids(FinancialGenerator(config).Generate().securities.records);
}

std::vector<Record> WdcRecords(size_t num_entities, uint64_t seed) {
  WdcConfig config;
  config.num_entities = num_entities;
  config.seed = seed;
  return WithUids(WdcProductsGenerator(config).Generate().records);
}

std::vector<size_t> EqualBatches(size_t n, size_t k) {
  std::vector<size_t> sizes(k, n / k);
  sizes.back() += n % k;
  return sizes;
}

std::vector<Record> Slice(const std::vector<Record>& records, size_t begin,
                          size_t end) {
  return std::vector<Record>(records.begin() + static_cast<long>(begin),
                             records.begin() + static_cast<long>(end));
}

IncrementalPipelineConfig TightConfig(size_t num_threads,
                                      double match_threshold) {
  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 6;
  config.pipeline.cleanup.mu = 3;
  config.pipeline.pre_cleanup_threshold = 9;
  config.pipeline.match_threshold = match_threshold;
  config.pipeline.num_threads = num_threads;
  config.token.top_n = 5;
  return config;
}

PipelineResult RunBatchReference(const RecordTable& records,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher) {
  Dataset ds;
  ds.records = records;
  CandidateSet candidates;
  if (config.use_id_blocker) {
    IdOverlapBlocker::Options opts;
    opts.num_threads = config.pipeline.num_threads;
    IdOverlapBlocker(opts).AddCandidates(ds, &candidates);
  }
  if (config.use_token_blocker) {
    TokenOverlapBlocker::Options opts = config.token;
    opts.num_threads = config.pipeline.num_threads;
    TokenOverlapBlocker(opts).AddCandidates(ds, &candidates);
  }
  return EntityGroupPipeline(config.pipeline)
      .Run(ds, candidates.ToVector(), matcher);
}

PipelineResult SurvivorReference(const RecordTable& records,
                                 const std::vector<char>& alive,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher) {
  RecordTable survivors;
  std::vector<NodeId> original;  // compact id -> original id
  original.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    if (!alive[i]) continue;
    survivors.Add(records.at(static_cast<RecordId>(i)));
    original.push_back(static_cast<NodeId>(i));
  }
  PipelineResult ref = RunBatchReference(survivors, config, matcher);
  for (RecordPair& pair : ref.predicted_pairs) {
    pair.a = static_cast<RecordId>(original[static_cast<size_t>(pair.a)]);
    pair.b = static_cast<RecordId>(original[static_cast<size_t>(pair.b)]);
  }
  for (auto* sets : {&ref.pre_cleanup_components, &ref.groups}) {
    for (std::vector<NodeId>& nodes : *sets) {
      for (NodeId& u : nodes) u = original[static_cast<size_t>(u)];
    }
  }
  return ref;
}

void ExpectEquivalent(const PipelineResult& actual,
                      const PipelineResult& reference,
                      const std::string& context) {
  EXPECT_EQ(actual.predicted_pairs, reference.predicted_pairs) << context;
  EXPECT_EQ(actual.pre_cleanup_components, reference.pre_cleanup_components)
      << context;
  EXPECT_EQ(actual.groups, reference.groups) << context;
  const CleanupStats& a = actual.cleanup_stats;
  const CleanupStats& r = reference.cleanup_stats;
  EXPECT_EQ(a.pre_cleanup_edges_removed, r.pre_cleanup_edges_removed)
      << context;
  EXPECT_EQ(a.min_cut_calls, r.min_cut_calls) << context;
  EXPECT_EQ(a.min_cut_edges_removed, r.min_cut_edges_removed) << context;
  EXPECT_EQ(a.betweenness_calls, r.betweenness_calls) << context;
  EXPECT_EQ(a.betweenness_edges_removed, r.betweenness_edges_removed)
      << context;
}

void ExpectEqualReports(const IngestReport& a, const IngestReport& b,
                        const std::string& context) {
  EXPECT_EQ(a.records_added, b.records_added) << context;
  EXPECT_EQ(a.records_removed, b.records_removed) << context;
  EXPECT_EQ(a.candidates_added, b.candidates_added) << context;
  EXPECT_EQ(a.candidates_removed, b.candidates_removed) << context;
  EXPECT_EQ(a.pairs_scored, b.pairs_scored) << context;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << context;
  EXPECT_EQ(a.cache_evictions, b.cache_evictions) << context;
  EXPECT_EQ(a.components_rebuilt, b.components_rebuilt) << context;
  EXPECT_EQ(a.components_reused, b.components_reused) << context;
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string WithFixedChecksum(std::string image) {
  image.resize(image.size() - 8);
  return image + EncodeU64(Fnv1a64(image));
}

std::string EncodeU64(uint64_t v) {
  BinaryWriter writer;
  writer.WriteU64(v);
  return writer.buffer();
}

std::string EncodeI32(int32_t v) {
  BinaryWriter writer;
  writer.WriteI32(v);
  return writer.buffer();
}

uint64_t DecodeU64(const std::string& bytes, size_t pos) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return v;
}

int32_t DecodeI32(const std::string& bytes, size_t pos) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return static_cast<int32_t>(v);
}

// ---------------------------------------------------------------------------
// Layouts
// ---------------------------------------------------------------------------

LayoutPipeline::LayoutPipeline(size_t shards,
                               const IncrementalPipelineConfig& config,
                               uint64_t router_seed)
    : shards_(shards) {
  if (shards == 0) {
    incremental_ = std::make_unique<IncrementalPipeline>(config);
    return;
  }
  ShardedPipelineConfig sharded;
  sharded.base = config;
  sharded.num_shards = shards;
  sharded.router_seed = router_seed;
  sharded_ = std::make_unique<ShardedPipeline>(sharded);
}

LayoutPipeline::~LayoutPipeline() = default;

// Forward one call to whichever pipeline the layout holds.
#define GRALMATCH_FORWARD(call) \
  (sharded_ != nullptr ? sharded_->call : incremental_->call)

Result<IngestReport> LayoutPipeline::Ingest(const std::vector<Record>& batch,
                                            const PairwiseMatcher& matcher) {
  return GRALMATCH_FORWARD(Ingest(batch, matcher));
}
Result<IngestReport> LayoutPipeline::Remove(const std::vector<RecordId>& ids,
                                            const PairwiseMatcher& matcher) {
  return GRALMATCH_FORWARD(Remove(ids, matcher));
}
Result<IngestReport> LayoutPipeline::Update(
    const std::vector<RecordUpdate>& batch, const PairwiseMatcher& matcher) {
  return GRALMATCH_FORWARD(Update(batch, matcher));
}
Result<PipelineResult> LayoutPipeline::Snapshot() const {
  return GRALMATCH_FORWARD(Snapshot());
}
Status LayoutPipeline::status() const { return GRALMATCH_FORWARD(status()); }
const RecordTable& LayoutPipeline::records() const {
  return GRALMATCH_FORWARD(records());
}
const std::vector<char>& LayoutPipeline::alive() const {
  return GRALMATCH_FORWARD(alive());
}
bool LayoutPipeline::is_alive(RecordId id) const {
  return GRALMATCH_FORWARD(is_alive(id));
}
size_t LayoutPipeline::num_dead() const {
  return GRALMATCH_FORWARD(num_dead());
}
size_t LayoutPipeline::num_live() const {
  return GRALMATCH_FORWARD(num_live());
}
const IncrementalPipelineConfig& LayoutPipeline::config() const {
  return sharded_ != nullptr ? sharded_->config().base
                             : incremental_->config();
}
const std::string& LayoutPipeline::fingerprint() const {
  return GRALMATCH_FORWARD(fingerprint());
}
size_t LayoutPipeline::total_matcher_calls() const {
  return GRALMATCH_FORWARD(total_matcher_calls());
}
size_t LayoutPipeline::total_cache_hits() const {
  return GRALMATCH_FORWARD(total_cache_hits());
}

#undef GRALMATCH_FORWARD

Status LayoutPipeline::Save(const std::string& path) const {
  if (sharded_ != nullptr) return SaveShardedCheckpoint(*sharded_, path);
  return SaveCheckpoint(*incremental_, path);
}

Result<std::unique_ptr<LayoutPipeline>> LayoutPipeline::Load(
    size_t shards, const std::string& path, const PairwiseMatcher& matcher,
    size_t num_threads_override) {
  std::unique_ptr<LayoutPipeline> loaded(new LayoutPipeline(shards));
  if (shards == 0) {
    GRALMATCH_ASSIGN_OR_RETURN(
        loaded->incremental_,
        LoadCheckpoint(path, matcher, num_threads_override));
  } else {
    GRALMATCH_ASSIGN_OR_RETURN(
        loaded->sharded_,
        LoadShardedCheckpoint(path, matcher, num_threads_override));
  }
  return loaded;
}

std::map<std::string, std::string> CheckpointFiles(size_t shards,
                                                   const std::string& path) {
  std::map<std::string, std::string> files;
  if (shards == 0) {
    files[""] = ReadFileBytes(path);
    return files;
  }
  files["manifest.grlm"] = ReadFileBytes(ShardedManifestPath(path));
  Result<std::vector<std::string>> paths = ShardFilePaths(path);
  EXPECT_TRUE(paths.ok()) << paths.status().ToString();
  if (!paths.ok()) return files;
  for (const std::string& file : *paths) {
    files[file.substr(path.size() + 1)] = ReadFileBytes(file);
  }
  return files;
}

std::string FramingFile(size_t shards, const std::string& path) {
  return shards == 0 ? path : ShardedManifestPath(path);
}

std::vector<std::string> StateFiles(size_t shards, const std::string& path) {
  if (shards == 0) return {path};
  Result<std::vector<std::string>> paths = ShardFilePaths(path);
  EXPECT_TRUE(paths.ok()) << paths.status().ToString();
  return paths.ok() ? *paths : std::vector<std::string>{};
}

void RewriteStateFile(size_t shards, const std::string& path, size_t index,
                      size_t pos, size_t length,
                      const std::string& replacement) {
  const std::string file = StateFiles(shards, path).at(index);
  std::string image = ReadFileBytes(file);
  ASSERT_LE(pos + length, image.size() - 8);
  image.replace(pos, length, replacement);
  // The body's u64 length prefix: after magic 8 + version 4 and, for an
  // image, the length-prefixed fingerprint; for a shard file, the u32
  // shard index.
  const size_t body_length_at =
      shards == 0 ? 20 + static_cast<size_t>(DecodeU64(image, 12)) : 16;
  const uint64_t body_length = DecodeU64(image, body_length_at);
  image.replace(body_length_at, 8,
                EncodeU64(body_length + replacement.size() - length));
  image = WithFixedChecksum(std::move(image));
  if (shards == 0) {
    WriteFileBytes(file, image);
    return;
  }

  // A shard file is named after its checksum, and the manifest lists it:
  // manifest = magic 8, version u32, fingerprint (u64 length + bytes),
  // u64 shard count, then one u64 checksum per shard.
  const uint64_t checksum = Fnv1a64(image);
  ASSERT_EQ(std::remove(file.c_str()), 0);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  WriteFileBytes(path + "/shard-" + std::to_string(index) + "-" + hex + ".grlm",
                 image);
  std::string manifest = ReadFileBytes(ShardedManifestPath(path));
  const size_t fingerprint_length =
      static_cast<size_t>(DecodeU64(manifest, 12));
  manifest.replace(28 + fingerprint_length + 8 * index, 8,
                   EncodeU64(checksum));
  WriteFileBytes(ShardedManifestPath(path),
                 WithFixedChecksum(std::move(manifest)));
}

void RewriteFramingFile(size_t shards, const std::string& path, size_t pos,
                        size_t length, const std::string& replacement) {
  if (shards == 0) {
    RewriteStateFile(0, path, 0, pos, length, replacement);
    return;
  }
  // Manifest: magic 8, version u32, fingerprint (u64 length + bytes), u64
  // shard count, one u64 checksum per shard, then the body's u64 length.
  const std::string file = ShardedManifestPath(path);
  std::string manifest = ReadFileBytes(file);
  ASSERT_LE(pos + length, manifest.size() - 8);
  const size_t fingerprint_length =
      static_cast<size_t>(DecodeU64(manifest, 12));
  const size_t body_length_at =
      28 + fingerprint_length +
      8 * static_cast<size_t>(DecodeU64(manifest, 20 + fingerprint_length));
  ASSERT_GE(pos, body_length_at + 8);
  manifest.replace(pos, length, replacement);
  const uint64_t body_length = DecodeU64(manifest, body_length_at);
  manifest.replace(body_length_at, 8,
                   EncodeU64(body_length + replacement.size() - length));
  WriteFileBytes(file, WithFixedChecksum(std::move(manifest)));
}

}  // namespace testing_support
}  // namespace gralmatch
