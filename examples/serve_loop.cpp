// Ingest-while-querying: the serving story end to end. A synthetic
// securities feed arrives in batches; the ingest thread streams each batch
// through the pipeline and publishes an epoch snapshot to a MatchService,
// while reader threads concurrently answer GroupOf / Members / Stats
// queries against whatever epoch is current — every reader always sees one
// consistent epoch.
//
// Without --shards the pipeline is one IncrementalPipeline. With --shards S
// it is a ShardedPipeline (records content-hash routed across S shards over
// one incremental engine), and an unsharded control ingests the same
// schedule: shard-count invariance says the two never diverge.
//
// With --checkpoint PATH the run also exercises durability: after the first
// half of the batches the pipeline state is saved (a GRLMCKPT file, or a
// manifest + per-shard-file directory when sharded), the pipeline is
// destroyed, and ingestion resumes from the restored checkpoint — the
// restore must be bitwise-identical to the saved state.
//
// The run exits nonzero unless the final snapshot equals a from-scratch
// batch run on the union of all batches (and, when sharded, the unsharded
// control's).
//
// The run is instrumented (obs/metrics.h): pipeline phase latencies,
// publish timings and the checkpoint drill land in one MetricsRegistry,
// and the restored pipeline is re-wired via set_metrics() — the registry
// pointer never enters checkpoint bytes. The reference and the control run
// uninstrumented. `--metrics-dump text|json` prints the final scrape.
//
//   ./examples/serve_loop [--groups N] [--batches K] [--readers R]
//       [--num_threads T] [--shards S] [--checkpoint PATH]
//       [--metrics-dump text|json]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/cli.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "exec/thread_pool.h"
#include "matching/baselines.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/match_service.h"
#include "serve/sharded_checkpoint.h"
#include "shard/sharded_pipeline.h"
#include "stream/incremental_pipeline.h"

using namespace gralmatch;

namespace {

/// From-scratch reference on the union of all batches (the batch-equivalence
/// oracle the stream/serve tests pin).
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

// One save/restore pair per checkpoint layout. The single-file layer is
// deliberately obs-free (nothing in it may observe the registry), so it is
// timed here at the call site; the sharded helpers time themselves.
Status Save(const IncrementalPipeline& pipeline, const std::string& path,
            obs::MetricsRegistry* registry) {
  obs::TraceScope span(registry->GetHistogram("checkpoint_save_seconds"));
  return SaveCheckpoint(pipeline, path);
}

Status Save(const ShardedPipeline& pipeline, const std::string& dir,
            obs::MetricsRegistry* registry) {
  return SaveShardedCheckpoint(pipeline, dir, registry);
}

Status Restore(const std::string& path, const PairwiseMatcher& matcher,
               obs::MetricsRegistry* registry,
               std::unique_ptr<IncrementalPipeline>* out) {
  obs::TraceScope span(registry->GetHistogram("checkpoint_load_seconds"));
  GRALMATCH_ASSIGN_OR_RETURN(*out, LoadCheckpoint(path, matcher));
  return Status::OK();
}

Status Restore(const std::string& dir, const PairwiseMatcher& matcher,
               obs::MetricsRegistry* registry,
               std::unique_ptr<ShardedPipeline>* out) {
  GRALMATCH_ASSIGN_OR_RETURN(
      *out, LoadShardedCheckpoint(dir, matcher, /*num_threads_override=*/0,
                                  registry));
  return Status::OK();
}

/// Streams `records` through `pipeline` in `num_batches` batches while
/// readers query the published epochs; returns the exit status.
template <typename Pipeline>
int ServeLoop(std::unique_ptr<Pipeline> pipeline,
              const IncrementalPipelineConfig& config,
              const std::vector<Record>& records, const CliFlags& flags,
              obs::MetricsRegistry* registry) {
  constexpr bool kSharded = std::is_same_v<Pipeline, ShardedPipeline>;
  const size_t num_batches =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("batches", 8)));
  const size_t num_readers =
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt("readers", 3)));
  const std::string checkpoint_path = flags.GetString("checkpoint", "");
  const size_t batch_size = (records.size() + num_batches - 1) / num_batches;
  std::printf("Feed: %zu security records in %zu batches of <=%zu",
              records.size(), num_batches, batch_size);
  if constexpr (kSharded) {
    std::printf(" across %zu shards", pipeline->num_shards());
  }
  std::printf(".\n");

  HeuristicIdMatcher matcher;
  MatchService service(registry);
  // The reference and the unsharded control run uninstrumented, so the
  // dump reflects only the serving pipeline.
  IncrementalPipelineConfig plain_config = config;
  plain_config.pipeline.metrics = nullptr;
  std::optional<IncrementalPipeline> control;
  if constexpr (kSharded) control.emplace(plain_config);

  // Readers hammer the service for the whole run: they see epoch 0 (empty)
  // until the first publish, then whichever epoch is current.
  std::atomic<bool> done{false};
  std::atomic<size_t> total_queries{0};
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (size_t t = 0; t < num_readers; ++t) {
    readers.emplace_back([&service, &done, &total_queries, t] {
      size_t queries = 0;
      uint32_t rng_state = static_cast<uint32_t>(t) * 2654435761u + 1u;
      while (!done.load(std::memory_order_acquire)) {
        MatchSnapshotPtr view = service.View();
        const ServeStats stats = view->stats();
        if (stats.num_records == 0) continue;
        rng_state = rng_state * 1664525u + 1013904223u;
        const RecordId r = static_cast<RecordId>(rng_state % stats.num_records);
        const GroupId gid = view->GroupOf(r);
        // Within one view, GroupOf and Members always agree — a torn read
        // across epochs would trip this.
        const auto& members = view->Members(gid);
        bool found = false;
        for (RecordId m : members) found = found || m == r;
        if (!found) {
          std::fprintf(stderr, "reader %zu: record %d missing from its own "
                               "group at epoch %llu\n",
                       t, r, static_cast<unsigned long long>(stats.epoch));
          std::abort();
        }
        ++queries;
      }
      total_queries.fetch_add(queries);
    });
  }
  // Every return below this point stops the readers first: a joinable
  // std::thread destroyed on an early return would terminate the process.
  auto stop_readers = [&done, &readers] {
    done.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();
  };

  auto ingest_batch = [&](size_t index) {
    // Clamp both ends: more batches than records leaves trailing indexes
    // with an empty (but well-defined) slice.
    const size_t begin = std::min(index * batch_size, records.size());
    const size_t end = std::min(begin + batch_size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(begin),
                              records.begin() + static_cast<long>(end));
    Result<IngestReport> ingested = pipeline->Ingest(batch, matcher);
    Status control_status =
        control ? control->Ingest(batch, matcher).status() : Status::OK();
    if (!ingested.ok() || !control_status.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   (!ingested.ok() ? ingested.status() : control_status)
                       .ToString()
                       .c_str());
      std::abort();
    }
    const IngestReport& report = *ingested;
    const uint64_t epoch =
        service.Publish(pipeline->Snapshot().ValueOrDie(),
                        pipeline->records().size());
    std::printf("  epoch %2llu: +%zu records, %zu scored, %zu cache hits, "
                "%zu/%zu components rebuilt\n",
                static_cast<unsigned long long>(epoch), report.records_added,
                report.pairs_scored, report.cache_hits,
                report.components_rebuilt,
                report.components_rebuilt + report.components_reused);
  };

  const size_t half = num_batches / 2;
  std::printf("Ingesting first %zu batches...\n", half);
  for (size_t b = 0; b < half; ++b) ingest_batch(b);

  if (!checkpoint_path.empty()) {
    // Durability drill: save, destroy, restore, and verify the restored
    // snapshot matches the live one bitwise before continuing.
    const PipelineResult before = pipeline->Snapshot().ValueOrDie();
    Status st = Save(*pipeline, checkpoint_path, registry);
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint save failed: %s\n",
                   st.ToString().c_str());
      stop_readers();
      return 1;
    }
    pipeline.reset();
    st = Restore(checkpoint_path, matcher, registry, &pipeline);
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint load failed: %s\n",
                   st.ToString().c_str());
      stop_readers();
      return 1;
    }
    // The metrics pointer is runtime-only state, never serialized: a
    // restored pipeline comes back uninstrumented until re-wired.
    pipeline->set_metrics(registry);
    if (!SameResult(pipeline->Snapshot().ValueOrDie(), before)) {
      std::fprintf(stderr, "restored snapshot differs from saved state\n");
      stop_readers();
      return 1;
    }
    std::printf("Checkpointed %zu records to %s, restarted from it "
                "(snapshot identical).\n",
                pipeline->records().size(), checkpoint_path.c_str());
  }

  std::printf("Ingesting remaining batches while readers query...\n");
  for (size_t b = half; b < num_batches; ++b) ingest_batch(b);

  stop_readers();

  const ServeStats stats = service.Stats();
  std::printf("\nFinal epoch %llu: %zu records, %zu groups (%zu matched), "
              "%zu positive pairs, %zu matcher calls, %zu cache hits; "
              "readers answered %zu queries during ingestion.\n",
              static_cast<unsigned long long>(stats.epoch), stats.num_records,
              stats.num_groups, stats.num_matched_groups,
              stats.num_predicted_pairs, pipeline->total_matcher_calls(),
              pipeline->total_cache_hits(), total_queries.load());

  const PipelineResult final_snapshot = pipeline->Snapshot().ValueOrDie();
  if constexpr (kSharded) {
    for (size_t s = 0; s < pipeline->num_shards(); ++s) {
      std::printf("  shard %zu owns %zu records\n", s,
                  pipeline->ShardRecordCount(s));
    }
    if (!SameResult(final_snapshot, control->Snapshot().ValueOrDie())) {
      std::fprintf(stderr, "FAIL: sharded snapshot differs from the "
                           "unsharded run\n");
      return 1;
    }
  }
  if (!SameResult(final_snapshot,
                  Reference(pipeline->records(), plain_config, matcher))) {
    std::fprintf(stderr, "FAIL: final snapshot differs from the from-scratch "
                         "reference\n");
    return 1;
  }
  std::fputs(kSharded ? "PASS: sharded + restarted run equals both the "
                        "unsharded run and the from-scratch reference.\n"
                      : "PASS: final snapshot equals the from-scratch "
                        "reference.\n",
             stdout);

  const std::string dump_mode = flags.GetString("metrics-dump", "");
  if (dump_mode == "json") {
    std::printf("%s\n", obs::DumpMetricsJson(*registry).c_str());
  } else if (!dump_mode.empty()) {
    std::printf("%s", obs::DumpMetricsText(*registry).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags = CliFlags::Parse(argc, argv);
  SyntheticConfig gen_config;
  gen_config.seed = 404;
  gen_config.num_groups =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("groups", 80)));
  FinancialBenchmark bench = FinancialGenerator(gen_config).Generate();
  const std::vector<Record>& records = bench.securities.records.records();

  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 8;
  config.pipeline.cleanup.mu = 4;
  config.pipeline.pre_cleanup_threshold = 12;
  config.pipeline.match_threshold = 0.5;
  config.pipeline.num_threads =
      ResolveNumThreads(flags.GetInt("num_threads", 2));
  // One registry for the run: pipeline phases, publish latency, and the
  // checkpoint drill all record into it.
  obs::MetricsRegistry registry;
  config.pipeline.metrics = &registry;

  if (!flags.Has("shards")) {
    return ServeLoop(std::make_unique<IncrementalPipeline>(config), config,
                     records, flags, &registry);
  }
  ShardedPipelineConfig sharded_config;
  sharded_config.base = config;
  sharded_config.num_shards =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("shards", 1)));
  sharded_config.router_seed = 7;
  return ServeLoop(std::make_unique<ShardedPipeline>(sharded_config), config,
                   records, flags, &registry);
}
