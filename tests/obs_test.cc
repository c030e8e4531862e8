// Test suite for the `obs` observability module, in two halves.
//
// Unit half: registry semantics (stable instrument pointers, name-ordered
// scrapes), the `le` bucket convention with pinned bucket assignments,
// pinned nearest-rank quantiles for both Histogram::Quantile (bucket
// upper-bound) and SampleQuantile (exact — the definition the bench
// harness shares), deterministic text/JSON exposition, and a writers ×
// scrapers stress test (run under TSan in CI) over the lock-free hot
// path.
//
// Inertness half: the differential contract that makes instrumentation
// safe to wire anywhere. An instrumented pipeline run — metrics recording
// live into a registry — must produce identical snapshots and
// byte-identical serialized state to an uninstrumented run of the same
// schedule, on both the financial-securities and WDC-products fixtures,
// across thread counts and shard counts. A pipeline restored from a
// checkpoint must come back uninstrumented (the registry pointer never
// enters checkpoint bytes) until explicitly re-wired with set_metrics().
// The phase histograms of one mutation are disjoint spans inside
// pipeline_mutation_seconds.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "matching/matcher.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "shard/sharded_pipeline.h"
#include "stream/incremental_pipeline.h"
#include "test_support.h"

namespace gralmatch {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Instrument and registry unit tests
// ---------------------------------------------------------------------------

TEST(ObsInstrumentTest, CounterAndGaugeBasics) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);

  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(-7);
  EXPECT_EQ(gauge.Value(), -7);
  gauge.Set(9);
  EXPECT_EQ(gauge.Value(), 9);
}

TEST(ObsInstrumentTest, HistogramBucketAssignmentFollowsTheLeConvention) {
  Histogram histogram;
  histogram.Observe(1e-6);   // exactly on a bound -> that bucket (le)
  histogram.Observe(1.5e-6); // between bounds -> next bucket up
  histogram.Observe(0.0);    // zero -> first bucket
  histogram.Observe(-3.0);   // negative clamps to zero -> first bucket
  histogram.Observe(100.0);  // exactly the last finite bound
  histogram.Observe(250.0);  // past every bound -> overflow

  const auto counts = histogram.BucketCounts();
  EXPECT_EQ(counts[0], 3u);  // le=1e-6: the 1e-6, 0.0 and clamped -3.0
  EXPECT_EQ(counts[1], 1u);  // le=2e-6: the 1.5e-6
  EXPECT_EQ(counts[kLatencyBucketBounds.size() - 1], 1u);  // le=100
  EXPECT_EQ(counts[kNumLatencyBuckets - 1], 1u);           // overflow
  EXPECT_EQ(histogram.TotalCount(), 6u);
  EXPECT_NEAR(histogram.SumSeconds(), 1e-6 + 1.5e-6 + 100.0 + 250.0, 1e-9);
}

TEST(ObsInstrumentTest, HistogramQuantileIsTheBucketUpperBound) {
  Histogram histogram;
  for (int i = 0; i < 50; ++i) histogram.Observe(1e-6);  // bucket le=1e-6
  for (int i = 0; i < 45; ++i) histogram.Observe(3e-3);  // bucket le=5e-3
  for (int i = 0; i < 5; ++i) histogram.Observe(0.3);    // bucket le=0.5
  // Nearest rank over 100 observations: rank 50 is still in the first
  // bucket, rank 95 in the middle one, rank 99 in the slowest.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.50), 1e-6);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.95), 5e-3);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 0.5);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.5);

  // The overflow bucket reports the last finite bound (the dump cannot
  // invent an upper edge for +Inf), and an empty histogram reports 0.
  Histogram overflow;
  for (int i = 0; i < 3; ++i) overflow.Observe(1e4);
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.5), kLatencyBucketBounds.back());
  EXPECT_DOUBLE_EQ(Histogram().Quantile(0.5), 0.0);
}

TEST(ObsInstrumentTest, SampleQuantileIsExactNearestRank) {
  // 1..100 delivered unsorted: SampleQuantile must sort internally.
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(SampleQuantile(samples, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(samples, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(samples, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(samples, 1.0), 100.0);
  // ceil(0.99 * 3) = 3 -> the largest of three samples.
  EXPECT_DOUBLE_EQ(SampleQuantile({2.0, 9.0, 4.0}, 0.99), 9.0);
  EXPECT_DOUBLE_EQ(SampleQuantile({7.5}, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(SampleQuantile({}, 0.99), 0.0);
}

TEST(ObsRegistryTest, ReturnsStablePointersAndNameOrderedSnapshots) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("zebra_total");
  Counter* b = registry.GetCounter("apple_total");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.GetCounter("zebra_total"), a);  // same name, same pointer
  a->Increment(3);
  registry.GetGauge("depth")->Set(12);
  registry.GetHistogram("latency_seconds")->Observe(1e-3);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "apple_total");  // sorted by name
  EXPECT_EQ(snapshot.counters[1].name, "zebra_total");
  EXPECT_EQ(snapshot.counters[1].value, 3u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, 12);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].p50, 1e-3);
}

TEST(ObsRegistryTest, MetricBundlesResolveEveryInstrumentOrStayNull) {
  MetricsRegistry registry;
  const PipelineMetrics pipeline = PipelineMetrics::Create(&registry);
  const ServeMetrics serve = ServeMetrics::Create(&registry);
  const NetMetrics net = NetMetrics::Create(&registry);
  EXPECT_NE(pipeline.scoring_seconds, nullptr);
  EXPECT_NE(pipeline.snapshot_seconds, nullptr);
  EXPECT_NE(pipeline.cascade_escalated, nullptr);
  EXPECT_NE(serve.publish_seconds, nullptr);
  EXPECT_NE(serve.current_epoch, nullptr);
  EXPECT_NE(net.shed_framing_fatal, nullptr);
  // Bundles share the registry's instruments, not copies.
  EXPECT_EQ(pipeline.mutations,
            registry.GetCounter("pipeline_mutations_total"));

  const PipelineMetrics off = PipelineMetrics::Create(nullptr);
  EXPECT_EQ(off.scoring_seconds, nullptr);
  EXPECT_EQ(off.snapshot_seconds, nullptr);
  EXPECT_EQ(off.mutations, nullptr);
  EXPECT_EQ(ServeMetrics::Create(nullptr).publish_seconds, nullptr);
  EXPECT_EQ(NetMetrics::Create(nullptr).requests_served, nullptr);
}

TEST(ObsDumpTest, TextDumpIsDeterministicWithCumulativeBuckets) {
  MetricsRegistry registry;
  registry.GetCounter("events_total")->Increment(3);
  registry.GetGauge("depth")->Set(-2);
  Histogram* histogram = registry.GetHistogram("span_seconds");
  histogram->Observe(1.5e-6);  // bucket le=2e-06
  histogram->Observe(250.0);   // overflow

  const std::string text = DumpMetricsText(registry);
  EXPECT_NE(text.find("# TYPE events_total counter\nevents_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\ndepth -2\n"), std::string::npos);
  // Buckets are cumulative at dump time: empty below 2e-06, then 1 for
  // every finite bucket, and +Inf picks up the overflow observation.
  EXPECT_NE(text.find("span_seconds_bucket{le=\"1e-06\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("span_seconds_bucket{le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("span_seconds_bucket{le=\"100\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("span_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("span_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("span_seconds{quantile=\"0.5\"} 2e-06\n"),
            std::string::npos);
  // Deterministic: an unchanged registry dumps the same bytes.
  EXPECT_EQ(DumpMetricsText(registry), text);
}

TEST(ObsDumpTest, JsonDumpCarriesTheSameNumbers) {
  MetricsRegistry registry;
  registry.GetCounter("events_total")->Increment(7);
  registry.GetHistogram("span_seconds")->Observe(1e-3);
  const std::string json = DumpMetricsJson(registry);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"events_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"span_seconds\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":0.001"), std::string::npos);
}

TEST(ObsDumpTest, TraceScopeRecordsOnceOnDestructionAndNullIsANoOp) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("span_seconds");
  { TraceScope span(histogram); }
  EXPECT_EQ(histogram->TotalCount(), 1u);
  { TraceScope noop(nullptr); }  // must not crash
  EXPECT_EQ(histogram->TotalCount(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrency: writers on the lock-free hot path racing registration and
// scrapes. Run under TSan in CI — the assertions here are secondary to the
// absence of data-race reports.
// ---------------------------------------------------------------------------

TEST(ObsRegistryTest, ConcurrentWritersAndScrapersAreRaceFree) {
  constexpr size_t kWriters = 8;
  constexpr size_t kIterations = 2000;
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("shared_total");
  Histogram* histogram = registry.GetHistogram("shared_seconds");
  std::atomic<bool> stop{false};

  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      ASSERT_GE(snapshot.counters.size(), 1u);
      const std::string text = DumpMetricsText(registry);
      ASSERT_NE(text.find("shared_total"), std::string::npos);
    }
  });

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kIterations; ++i) {
        counter->Increment();
        histogram->Observe(static_cast<double>(i % 7) * 1e-5);
        registry.GetGauge("writer_gauge")->Set(static_cast<int64_t>(i));
        if (i % 64 == 0) {
          // Race registration against the scraper too.
          registry.GetCounter("writer_" + std::to_string(t) + "_total")
              ->Increment();
        }
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(counter->Value(), kWriters * kIterations);
  EXPECT_EQ(histogram->TotalCount(), kWriters * kIterations);
  const MetricsSnapshot final_snapshot = registry.Snapshot();
  EXPECT_EQ(final_snapshot.counters.size(), 1u + kWriters);
}

// ---------------------------------------------------------------------------
// Inertness differential: instrumented == uninstrumented, bitwise
// ---------------------------------------------------------------------------

using testing_support::JaccardMatcher;

std::vector<Record> FinancialRecords() {
  return testing_support::FinancialRecords(40);
}

std::vector<Record> WdcRecords() { return testing_support::WdcRecords(80); }

IncrementalPipelineConfig StreamConfig(size_t num_threads) {
  return testing_support::TightConfig(num_threads, 0.3);
}

/// Ingest `records` in three batches.
template <typename Pipeline>
void IngestInBatches(Pipeline* pipeline, const std::vector<Record>& records,
                     const PairwiseMatcher& matcher) {
  size_t begin = 0;
  for (size_t size : testing_support::EqualBatches(records.size(), 3)) {
    ASSERT_TRUE(pipeline
                    ->Ingest(testing_support::Slice(records, begin,
                                                    begin + size),
                             matcher)
                    .ok());
    begin += size;
  }
}

void ExpectSameSnapshot(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.predicted_pairs, b.predicted_pairs);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.pre_cleanup_components, b.pre_cleanup_components);
}

std::string Body(const IncrementalPipeline& pipeline) {
  BinaryWriter writer;
  EXPECT_TRUE(pipeline.Serialize(&writer).ok());
  return writer.buffer();
}

std::string ManifestBody(const ShardedPipeline& pipeline) {
  BinaryWriter writer;
  EXPECT_TRUE(pipeline.SerializeManifestBody(&writer).ok());
  return writer.buffer();
}

TEST(ObsInertnessTest, InstrumentedIncrementalRunIsBitwiseIdentical) {
  JaccardMatcher matcher;
  for (const auto& records : {FinancialRecords(), WdcRecords()}) {
    for (const size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("records=" + std::to_string(records.size()) +
                   " threads=" + std::to_string(num_threads));
      IncrementalPipelineConfig off_config = StreamConfig(num_threads);
      IncrementalPipeline off(off_config);
      IngestInBatches(&off, records, matcher);

      MetricsRegistry registry;
      IncrementalPipelineConfig on_config = StreamConfig(num_threads);
      on_config.pipeline.metrics = &registry;
      IncrementalPipeline on(on_config);
      IngestInBatches(&on, records, matcher);

      // The instrumented run really recorded...
      EXPECT_EQ(registry.GetCounter("pipeline_mutations_total")->Value(), 3u);
      EXPECT_EQ(registry.GetCounter("pipeline_records_added_total")->Value(),
                records.size());
      EXPECT_GT(
          registry.GetHistogram("pipeline_scoring_seconds")->TotalCount(), 0u);
      // ...and changed nothing: identical snapshots and byte-identical
      // serialized state (which also proves no registry state leaked into
      // the serialized config).
      ExpectSameSnapshot(on.Snapshot().ValueOrDie(),
                         off.Snapshot().ValueOrDie());
      EXPECT_EQ(Body(on), Body(off));
    }
  }
}

TEST(ObsInertnessTest, InstrumentedShardedRunIsBitwiseIdentical) {
  JaccardMatcher matcher;
  for (const auto& records : {FinancialRecords(), WdcRecords()}) {
    for (const size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("records=" + std::to_string(records.size()) +
                   " shards=" + std::to_string(num_shards));
      ShardedPipelineConfig off_config;
      off_config.base = StreamConfig(2);
      off_config.num_shards = num_shards;
      off_config.router_seed = 17;
      ShardedPipeline off(off_config);
      IngestInBatches(&off, records, matcher);

      MetricsRegistry registry;
      ShardedPipelineConfig on_config = off_config;
      on_config.base.pipeline.metrics = &registry;
      ShardedPipeline on(on_config);
      IngestInBatches(&on, records, matcher);

      EXPECT_EQ(registry.GetCounter("pipeline_mutations_total")->Value(), 3u);
      EXPECT_GT(registry.GetHistogram("shard_route_seconds")->TotalCount(),
                0u);
      EXPECT_GT(
          registry.GetHistogram("pipeline_blocking_seconds")->TotalCount(),
          0u);
      ExpectSameSnapshot(on.Snapshot().ValueOrDie(),
                         off.Snapshot().ValueOrDie());

      EXPECT_EQ(ManifestBody(on), ManifestBody(off));
      std::vector<BinaryWriter> on_shards, off_shards;
      ASSERT_TRUE(on.SerializeShardBodies(&on_shards).ok());
      ASSERT_TRUE(off.SerializeShardBodies(&off_shards).ok());
      ASSERT_EQ(on_shards.size(), off_shards.size());
      for (size_t s = 0; s < on_shards.size(); ++s) {
        EXPECT_EQ(on_shards[s].buffer(), off_shards[s].buffer())
            << "shard " << s;
      }
    }
  }
}

TEST(ObsInertnessTest, EverySnapshotIsOneObservationAndChangesNoByte) {
  // Snapshot() is the leg of an update epoch between the mutation's phases
  // and serve_publish_seconds: each call records exactly one
  // pipeline_snapshot_seconds observation (mutations record none), and
  // recording changes no snapshot or checkpoint byte.
  JaccardMatcher matcher;
  const std::vector<Record> records = FinancialRecords();
  IncrementalPipeline off(StreamConfig(2));
  IngestInBatches(&off, records, matcher);

  MetricsRegistry registry;
  IncrementalPipelineConfig on_config = StreamConfig(2);
  on_config.pipeline.metrics = &registry;
  IncrementalPipeline on(on_config);
  IngestInBatches(&on, records, matcher);
  const Histogram* snapshots =
      registry.GetHistogram("pipeline_snapshot_seconds");
  EXPECT_EQ(snapshots->TotalCount(), 0u);
  const PipelineResult reference = off.Snapshot().ValueOrDie();
  for (uint64_t calls = 1; calls <= 3; ++calls) {
    ExpectSameSnapshot(on.Snapshot().ValueOrDie(), reference);
    EXPECT_EQ(snapshots->TotalCount(), calls);
  }
  EXPECT_EQ(Body(on), Body(off));

  // The sharded layer snapshots through the engine: one observation too.
  ShardedPipelineConfig sharded_config;
  sharded_config.base = on_config;
  sharded_config.num_shards = 2;
  ShardedPipeline sharded(sharded_config);
  IngestInBatches(&sharded, records, matcher);
  const uint64_t before = snapshots->TotalCount();
  ExpectSameSnapshot(sharded.Snapshot().ValueOrDie(), reference);
  EXPECT_EQ(snapshots->TotalCount(), before + 1);
}

/// The phase histograms' sums, and the mutation span's.
struct PhaseSums {
  double phases = 0.0;
  double mutation = 0.0;
};

PhaseSums ReadPhaseSums(MetricsRegistry* registry) {
  PhaseSums sums;
  for (const char* phase :
       {"pipeline_blocking_seconds", "pipeline_scoring_seconds",
        "pipeline_cleanup_seconds"}) {
    sums.phases += registry->GetHistogram(phase)->SumSeconds();
  }
  sums.mutation =
      registry->GetHistogram("pipeline_mutation_seconds")->SumSeconds();
  return sums;
}

/// Ingest, remove and update through `pipeline`, wired to `registry`. After
/// every mutation, each phase histogram and the mutation span hold one more
/// observation, and the mutation's phase times sum to at most its span: the
/// three phases are disjoint stopwatches inside it.
template <typename Pipeline>
void ExpectPhasesWithinEachMutation(Pipeline* pipeline,
                                    MetricsRegistry* registry) {
  JaccardMatcher matcher;
  const std::vector<Record> records = FinancialRecords();
  std::vector<RecordUpdate> update(1);
  update[0].id = 2;
  update[0].record = records[5];
  const std::vector<Record> first = testing_support::Slice(records, 0, 60);
  const std::vector<Record> rest =
      testing_support::Slice(records, 60, records.size());
  const std::vector<std::function<Result<IngestReport>()>> mutations = {
      [&] { return pipeline->Ingest(first, matcher); },
      [&] { return pipeline->Ingest(rest, matcher); },
      [&] { return pipeline->Remove({1, 4, 9}, matcher); },
      [&] { return pipeline->Update(update, matcher); },
  };
  for (size_t k = 0; k < mutations.size(); ++k) {
    SCOPED_TRACE("mutation " + std::to_string(k));
    const PhaseSums before = ReadPhaseSums(registry);
    ASSERT_TRUE(mutations[k]().ok());
    const PhaseSums after = ReadPhaseSums(registry);
    for (const char* name :
         {"pipeline_mutation_seconds", "pipeline_blocking_seconds",
          "pipeline_scoring_seconds", "pipeline_cleanup_seconds"}) {
      EXPECT_EQ(registry->GetHistogram(name)->TotalCount(), k + 1) << name;
    }
    EXPECT_GT(after.mutation - before.mutation, 0.0);
    EXPECT_LE(after.phases - before.phases, after.mutation - before.mutation);
  }
}

TEST(ObsPhaseTest, IncrementalPhasesAreDisjointInsideTheMutationSpan) {
  MetricsRegistry registry;
  IncrementalPipelineConfig config = StreamConfig(2);
  config.pipeline.metrics = &registry;
  IncrementalPipeline pipeline(config);
  ExpectPhasesWithinEachMutation(&pipeline, &registry);
}

TEST(ObsPhaseTest, ShardedPhasesAreDisjointInsideTheMutationSpan) {
  MetricsRegistry registry;
  ShardedPipelineConfig config;
  config.base = StreamConfig(2);
  config.base.pipeline.metrics = &registry;
  config.num_shards = 2;
  ShardedPipeline pipeline(config);
  ExpectPhasesWithinEachMutation(&pipeline, &registry);
}

TEST(ObsInertnessTest, RestoredPipelineIsUninstrumentedUntilRewired) {
  JaccardMatcher matcher;
  const std::vector<Record> records = FinancialRecords();

  MetricsRegistry registry;
  IncrementalPipelineConfig config = StreamConfig(2);
  config.pipeline.metrics = &registry;
  IncrementalPipeline pipeline(config);
  IngestInBatches(&pipeline, records, matcher);

  auto restored =
      ParseCheckpoint(SerializeCheckpoint(pipeline).ValueOrDie(), matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The registry pointer is runtime-only state: it never survives the
  // round trip, whatever the saved pipeline had wired.
  EXPECT_EQ((*restored)->config().pipeline.metrics, nullptr);

  const uint64_t mutations_before =
      registry.GetCounter("pipeline_mutations_total")->Value();
  std::vector<Record> extra;
  Record rec;
  rec.Set("name", "restored probe record");
  rec.Set("_uid", "probe");
  extra.push_back(std::move(rec));
  ASSERT_TRUE((*restored)->Ingest(extra, matcher).ok());
  EXPECT_EQ(registry.GetCounter("pipeline_mutations_total")->Value(),
            mutations_before);  // uninstrumented: nothing recorded

  (*restored)->set_metrics(&registry);
  ASSERT_TRUE((*restored)->Ingest({}, matcher).ok());
  EXPECT_EQ(registry.GetCounter("pipeline_mutations_total")->Value(),
            mutations_before + 1);  // re-wired: recording resumes
}

}  // namespace
}  // namespace obs
}  // namespace gralmatch
