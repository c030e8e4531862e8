// Sharded serving story end to end: a synthetic securities feed streams in
// batches through a ShardedPipeline (records content-hash routed across
// --shards shards over one incremental engine that blocks, scores and
// cleans globally). Mid-stream the run exercises durability: the pipeline
// is checkpointed to a manifest + per-shard files, destroyed, restored
// from disk, and ingestion resumes.
//
// The run exits nonzero unless the final snapshot is identical to BOTH
//   (a) a from-scratch batch EntityGroupPipeline::Run on the union, and
//   (b) an unsharded (S=1) run of the same schedule,
// i.e. it drives the shard-count-invariance and checkpoint contracts that
// tests/shard_test.cc pins, through the public API.
//
// The sharded run is instrumented (obs/metrics.h): routing / blocking /
// scoring / cleanup phase latencies, mutation counters, and the sharded
// checkpoint save/load timings all land in one MetricsRegistry (the
// unsharded control runs uninstrumented so the dump reflects the sharded
// path only). `--metrics-dump text|json` prints the final scrape.
//
//   ./examples/sharded_loop [--groups N] [--batches K] [--shards S]
//       [--num_threads T] [--checkpoint_dir PATH] [--metrics-dump text|json]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/cli.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "exec/thread_pool.h"
#include "matching/baselines.h"
#include "obs/metrics.h"
#include "serve/sharded_checkpoint.h"
#include "shard/sharded_pipeline.h"

using namespace gralmatch;

namespace {

PipelineResult Reference(const RecordTable& records,
                         const IncrementalPipelineConfig& config,
                         const PairwiseMatcher& matcher) {
  Dataset ds;
  ds.records = records;
  CandidateSet candidates;
  IdOverlapBlocker().AddCandidates(ds, &candidates);
  TokenOverlapBlocker(config.token).AddCandidates(ds, &candidates);
  return EntityGroupPipeline(config.pipeline)
      .Run(ds, candidates.ToVector(), matcher);
}

bool SameResult(const PipelineResult& a, const PipelineResult& b) {
  return a.predicted_pairs == b.predicted_pairs && a.groups == b.groups &&
         a.pre_cleanup_components == b.pre_cleanup_components;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags = CliFlags::Parse(argc, argv);
  const size_t num_groups =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("groups", 80)));
  const size_t num_batches =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("batches", 8)));
  const size_t num_shards =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("shards", 4)));
  const std::string checkpoint_dir =
      flags.GetString("checkpoint_dir", "sharded_loop_ckpt");

  SyntheticConfig gen_config;
  gen_config.seed = 404;
  gen_config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(gen_config).Generate();
  const std::vector<Record>& records = bench.securities.records.records();
  const size_t batch_size = (records.size() + num_batches - 1) / num_batches;
  std::printf("Feed: %zu security records in %zu batches of <=%zu across "
              "%zu shards.\n",
              records.size(), num_batches, batch_size, num_shards);

  ShardedPipelineConfig config;
  config.base.pipeline.cleanup.gamma = 8;
  config.base.pipeline.cleanup.mu = 4;
  config.base.pipeline.pre_cleanup_threshold = 12;
  config.base.pipeline.match_threshold = 0.5;
  config.base.pipeline.num_threads =
      ResolveNumThreads(flags.GetInt("num_threads", 2));
  config.num_shards = num_shards;
  config.router_seed = 7;
  HeuristicIdMatcher matcher;

  // The sharded pipeline and the checkpoint drill record into one registry;
  // the unsharded control below stays uninstrumented so the dump reflects
  // the sharded path only.
  obs::MetricsRegistry registry;
  config.base.pipeline.metrics = &registry;

  auto sharded = std::make_unique<ShardedPipeline>(config);
  // The unsharded control runs the same schedule; shard-count invariance
  // says the two snapshots never diverge.
  IncrementalPipelineConfig control_config = config.base;
  control_config.pipeline.metrics = nullptr;
  IncrementalPipeline unsharded(control_config);

  auto ingest_batch = [&](size_t index) {
    const size_t begin = std::min(index * batch_size, records.size());
    const size_t end = std::min(begin + batch_size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(begin),
                              records.begin() + static_cast<long>(end));
    Result<IngestReport> sharded_report = sharded->Ingest(batch, matcher);
    Result<IngestReport> mono_report = unsharded.Ingest(batch, matcher);
    if (!sharded_report.ok() || !mono_report.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   (!sharded_report.ok() ? sharded_report.status()
                                         : mono_report.status())
                       .ToString()
                       .c_str());
      std::exit(1);
    }
    std::printf("  batch %2zu: +%zu records, %zu scored, %zu cache hits, "
                "%zu/%zu components rebuilt\n",
                index + 1, sharded_report->records_added,
                sharded_report->pairs_scored, sharded_report->cache_hits,
                sharded_report->components_rebuilt,
                sharded_report->components_rebuilt +
                    sharded_report->components_reused);
  };

  const size_t half = num_batches / 2;
  std::printf("Ingesting first %zu batches...\n", half);
  for (size_t b = 0; b < half; ++b) ingest_batch(b);

  // Durability drill: manifest + per-shard files, destroy, restore, verify.
  // Passing the registry times the save/load into the checkpoint_*_seconds
  // histograms; the bytes written are identical either way.
  Status saved = SaveShardedCheckpoint(*sharded, checkpoint_dir, &registry);
  if (!saved.ok()) {
    std::fprintf(stderr, "sharded checkpoint save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  const PipelineResult before = sharded->Snapshot().ValueOrDie();
  sharded.reset();
  auto restored = LoadShardedCheckpoint(checkpoint_dir, matcher,
                                        /*num_threads_override=*/0, &registry);
  if (!restored.ok()) {
    std::fprintf(stderr, "sharded checkpoint load failed: %s\n",
                 restored.status().ToString().c_str());
    return 1;
  }
  sharded = restored.MoveValueUnsafe();
  // The registry pointer never enters the manifest or shard bodies, so the
  // restored pipeline comes back uninstrumented until re-wired.
  sharded->set_metrics(&registry);
  if (!SameResult(sharded->Snapshot().ValueOrDie(), before)) {
    std::fprintf(stderr, "restored snapshot differs from saved state\n");
    return 1;
  }
  std::printf("Checkpointed %zu records to %s/ (manifest + %zu shard "
              "files), restarted from it (snapshot identical).\n",
              sharded->records().size(), checkpoint_dir.c_str(),
              sharded->num_shards());

  std::printf("Ingesting remaining batches...\n");
  for (size_t b = half; b < num_batches; ++b) ingest_batch(b);

  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    std::printf("  shard %zu owns %zu records\n", s,
                sharded->ShardRecordCount(s));
  }

  const PipelineResult final_snapshot = sharded->Snapshot().ValueOrDie();
  if (!SameResult(final_snapshot, unsharded.Snapshot().ValueOrDie())) {
    std::fprintf(stderr, "FAIL: sharded snapshot differs from the "
                         "unsharded (S=1) run\n");
    return 1;
  }
  if (!SameResult(final_snapshot,
                  Reference(sharded->records(), control_config, matcher))) {
    std::fprintf(stderr, "FAIL: final snapshot differs from the "
                         "from-scratch reference\n");
    return 1;
  }
  std::printf("PASS: sharded + restarted run equals both the unsharded run "
              "and the from-scratch reference (%zu matcher calls, %zu cache "
              "hits).\n",
              sharded->total_matcher_calls(), sharded->total_cache_hits());

  const std::string dump_mode = flags.GetString("metrics-dump", "");
  if (dump_mode == "json") {
    std::printf("%s\n", obs::DumpMetricsJson(registry).c_str());
  } else if (!dump_mode.empty()) {
    std::printf("%s", obs::DumpMetricsText(registry).c_str());
  }
  return 0;
}
