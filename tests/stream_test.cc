// The incremental pipeline's own contracts that no other layout shares:
// the canonical emission order when groups of one component interleave
// with another component and with tombstoned records, and the pipeline
// config codec. The schedule differentials every layout shares live in
// pipeline_equivalence_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "stream/incremental_pipeline.h"
#include "test_support.h"

namespace gralmatch {
namespace {

using testing_support::ExpectEquivalent;
using testing_support::SurvivorReference;
using testing_support::TightConfig;

// ---------------------------------------------------------------------------
// Canonical emission order
// ---------------------------------------------------------------------------

/// Scores 1 exactly for the listed pairs of record names "r<k>", else 0.
class EdgeListMatcher : public PairwiseMatcher {
 public:
  explicit EdgeListMatcher(std::set<std::pair<int, int>> edges)
      : edges_(std::move(edges)) {}

  std::string name() const override { return "edge-list"; }
  std::string Fingerprint() const override { return "edge-list"; }
  double MatchProbability(const Record& a, const Record& b) const override {
    const int x = std::stoi(std::string(a.Get("name")).substr(1));
    const int y = std::stoi(std::string(b.Get("name")).substr(1));
    return edges_.count({std::min(x, y), std::max(x, y)}) ? 1.0 : 0.0;
  }

 private:
  std::set<std::pair<int, int>> edges_;
};

TEST(CanonicalOrderTest, InterleavedGroupsAndTombstonesMatchTheBatchOrder) {
  // Twelve records from twelve sources in one identifier bucket, so every
  // pair is a candidate and the matcher alone draws the graph. Component A is the path
  // 0-3-6-9-8; removing 8 leaves 0-3-6-9, which the betweenness phase
  // (mu = 3) splits into {0,3} and {6,9}. Component B = {4,5} has its
  // smallest node between A's two groups, and the tombstoned singletons 1
  // and 7 sit between them too. A is rebuilt by the removal under a fresh
  // component id, so store order differs from canonical order.
  const EdgeListMatcher matcher({{0, 3}, {3, 6}, {6, 9}, {8, 9}, {4, 5}});
  std::vector<Record> records;
  for (int k = 0; k < 12; ++k) {
    Record rec(static_cast<SourceId>(k), RecordKind::kSecurity);
    rec.Set("name", "r" + std::to_string(k));
    rec.Set("isin", "SHARED");
    records.push_back(std::move(rec));
  }
  const std::vector<std::vector<NodeId>> expected_components = {
      {0, 3, 6, 9}, {2}, {4, 5}, {10}, {11}};
  const std::vector<std::vector<NodeId>> expected_groups = {
      {0, 3}, {2}, {4, 5}, {6, 9}, {10}, {11}};

  for (const size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    IncrementalPipelineConfig config = TightConfig(num_threads, 0.5);
    config.use_token_blocker = false;
    IncrementalPipeline pipeline(config);
    ASSERT_TRUE(pipeline
                    .Ingest(std::vector<Record>(records.begin(),
                                                records.begin() + 6),
                            matcher)
                    .ok());
    ASSERT_TRUE(
        pipeline
            .Ingest(std::vector<Record>(records.begin() + 6, records.end()),
                    matcher)
            .ok());
    ASSERT_TRUE(pipeline.Remove({1, 7, 8}, matcher).ok());
    const PipelineResult snapshot = pipeline.Snapshot().ValueOrDie();
    EXPECT_EQ(snapshot.pre_cleanup_components, expected_components);
    EXPECT_EQ(snapshot.groups, expected_groups);

    ExpectEquivalent(snapshot,
                     SurvivorReference(pipeline.records(), pipeline.alive(),
                                       config, matcher),
                     "survivor reference");
  }
}

TEST(PipelineConfigCodecTest, RoundTripsAndRejectsNonBooleanFlags) {
  IncrementalPipelineConfig config = TightConfig(3, 0.25);
  config.use_id_blocker = false;
  BinaryWriter writer;
  WritePipelineConfig(config, &writer);

  BinaryReader reader(writer.buffer());
  IncrementalPipelineConfig decoded;
  ASSERT_TRUE(ReadPipelineConfig(&reader, 0, &decoded).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded.pipeline.cleanup.gamma, config.pipeline.cleanup.gamma);
  EXPECT_EQ(decoded.pipeline.match_threshold, config.pipeline.match_threshold);
  EXPECT_EQ(decoded.pipeline.num_threads, 3u);
  EXPECT_EQ(decoded.token.top_n, config.token.top_n);
  EXPECT_TRUE(decoded.use_token_blocker);
  EXPECT_FALSE(decoded.use_id_blocker);

  BinaryReader overridden(writer.buffer());
  ASSERT_TRUE(ReadPipelineConfig(&overridden, 8, &decoded).ok());
  EXPECT_EQ(decoded.pipeline.num_threads, 8u);

  // The two flag bytes end the section; 2 would load as "on" and re-save
  // as 1, so it is corruption.
  std::string bytes = writer.buffer();
  bytes[bytes.size() - 2] = 2;
  BinaryReader bad(bytes);
  EXPECT_EQ(ReadPipelineConfig(&bad, 0, &decoded).code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace gralmatch
