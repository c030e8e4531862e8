#include "harness/workloads.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>
#include <type_traits>

#include "blocking/incremental_index.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "exec/thread_pool.h"
#include "harness/load.h"
#include "harness/trace.h"
#include "matching/baselines.h"
#include "matching/pair_sampling.h"
#include "matching/transformer_matcher.h"
#include "matching/variants.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/match_service.h"
#include "serve/sharded_checkpoint.h"
#include "shard/sharded_pipeline.h"
#include "stream/incremental_pipeline.h"

namespace gralmatch {
namespace e2e {

namespace {

namespace fs = std::filesystem;

constexpr char kStreamWorkload[] = "stream_companies_lm";
constexpr char kShardWorkload[] = "shard_securities_id";
constexpr char kServeWorkload[] = "serve_reads_under_updates";

// ---------------------------------------------------------------------------
// Sizes
// ---------------------------------------------------------------------------

/// Every size the workloads use. "full" is the committed benchmark; "tiny"
/// runs the same code paths in seconds, for the self-test.
struct Scale {
  size_t companies_groups;
  size_t securities_groups;
  size_t serve_groups;
  size_t batches;
  size_t stream_rounds;
  double stream_churn;  ///< removed and updated share per round, each
  size_t shard_rounds;
  double shard_churn;
  double serve_update_share;
  double serve_period_s;
  std::vector<double> rates;  ///< requests per second, one ladder step each
  size_t setups;              ///< set-ups per run (the median is reported)
  size_t serve_setups;        ///< the same for serve, whose set-ups also
                              ///< give its ingest samples
  /// Timed checkpoint loads per repetition (LM, shard) and per ladder
  /// cycle (serve); cheap loads get more, for a steadier median.
  size_t stream_recovery_loads;
  size_t shard_recovery_loads;
  size_t serve_recovery_loads;
  size_t train_positives;
  size_t val_positives;
  size_t epochs;
};

Scale MakeScale(const std::string& name) {
  if (name == "tiny") {
    return {40, 60, 60, 8, 4, 0.02, 4, 0.03, 0.02, 0.05,
            {300, 600, 1200}, 2, 3, 2, 2, 1, 60, 30, 1};
  }
  return {400, 1500, 1200, 32, 16, 0.01, 10, 0.02, 0.005, 0.1,
          {2000, 4000, 8000}, 3, 9, 10, 3, 3, 400, 150, 2};
}

/// Share of a stream/shard run spent on repetitions of the mutation
/// schedule; the rest is the read ladder against the final epoch.
constexpr double kScheduleShare = 0.7;

/// Host-speed samples taken after each set-up and between serve's ladder
/// cycles.
constexpr size_t kPauseSamples = 3;

/// Seed of a run's k-th schedule; schedule 0 is the run's own. The
/// repetitions of a run replay different schedules, so that a run's
/// medians average over arrival orders and correction victims and vary
/// less with the seed; checks and exact counts use schedule 0.
uint64_t ScheduleSeed(uint64_t seed, size_t k) {
  return k == 0 ? seed : seed * 0x9E3779B97F4A7C15ULL + k;
}

IncrementalPipelineConfig PipelineConfigFor(size_t num_threads) {
  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 25;
  config.pipeline.cleanup.mu = 5;
  config.pipeline.pre_cleanup_threshold = 50;
  config.pipeline.num_threads = num_threads;
  config.token.top_n = 5;
  return config;
}

// ---------------------------------------------------------------------------
// Metric records
// ---------------------------------------------------------------------------

/// The end-to-end metrics of an untraced run, as measured; EmitEndToEnd
/// scales them.
struct EndToEnd {
  std::vector<double> setup_s;
  double ingest_records_per_s = 0.0;
  double churn_records_per_s = 0.0;
  std::vector<double> freshness_ms;
  std::vector<StepResult> ladder;
  double echo_p50_us = 0.0;
  std::vector<double> recovery_s;
  double group_f1 = 0.0;
  /// Host-speed samples beside the set-ups, and beside the measured phase:
  /// the schedule repetitions (serve: the ladder and its writer).
  HostSpeed setup_host, host;
  /// Ingest was measured in the set-ups (serve's pre-ingests).
  bool ingest_in_setup = false;
};

/// Timings and rates are scaled by the host-speed factor of the samples
/// taken beside them (see HostSpeed). Read latencies are scaled by the
/// echo baseline instead (kReferenceEchoUs): the loopback path does not
/// slow with cache contention the way the pipeline does. The sustained
/// rate, quality and memory are not scaled.
void EmitEndToEnd(const EndToEnd& e, MetricSink* sink) {
  const double setup = e.setup_host.Factor();
  const double f = e.host.Factor();
  const double ingest = e.ingest_in_setup ? setup : f;
  const double echo = e.echo_p50_us > 0 ? e.echo_p50_us / kReferenceEchoUs : 1.0;
  std::fprintf(stderr,
               "e2ebench: host-speed factor %.3f, set-up %.3f, echo %.3f\n", f,
               setup, echo);
  const StepResult middle =
      e.ladder.empty() ? StepResult{} : e.ladder[e.ladder.size() / 2];
  sink->Add("setup_s", Median(e.setup_s) / setup, "s");
  sink->Add("ingest_records_per_s", e.ingest_records_per_s * ingest,
            "records/s");
  sink->Add("churn_records_per_s", e.churn_records_per_s * f, "records/s");
  sink->Add("freshness_p50_ms", obs::SampleQuantile(e.freshness_ms, 0.50) / f,
            "ms");
  sink->Add("freshness_p90_ms", obs::SampleQuantile(e.freshness_ms, 0.90) / f,
            "ms");
  sink->Add("query_p50_us", middle.p50_us / echo, "us");
  sink->Add("query_p90_us", middle.p90_us / echo, "us");
  sink->Add("query_sustained_qps", SustainedQps(e.ladder), "requests/s");
  sink->Add("recovery_s",
            e.recovery_s.empty() ? 0.0 : Median(e.recovery_s) / f, "s");
  sink->Add("group_f1", e.group_f1, "ratio");
  sink->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// The per-layer metrics of a traced run. Layers a workload does not
/// exercise stay 0. Times and counts are per repetition of the schedule.
struct PerLayer {
  double matching_busy_s = 0;
  uint64_t matching_pairs = 0;
  double stream_mutate_s = 0, stream_self_s = 0, stream_snapshot_s = 0;
  uint64_t cache_hits = 0, cache_evictions = 0, candidates_added = 0,
           candidates_removed = 0, pairs_scored = 0;
  double cleanup_s = 0, cleanup_max_s = 0, scoring_s = 0, reference_run_s = 0;
  uint64_t components_rebuilt = 0, components_reused = 0;
  double blocking_add_s = 0, blocking_remove_s = 0, obs_blocking_s = 0;
  uint64_t blocking_delta_pairs = 0;
  double shard_mutate_s = 0, shard_self_s = 0, shard_snapshot_s = 0,
         shard_record_skew = 0, obs_route_s = 0, obs_exchange_s = 0,
         obs_merge_s = 0;
  double publish_s = 0, publish_p90_s = 0, checkpoint_save_s = 0,
         checkpoint_load_s = 0;
  uint64_t epochs = 0, checkpoint_bytes = 0, live_records = 0,
           restore_failed = 0;
  double requests_per_batch = 0, obs_decode_s = 0, obs_dispatch_s = 0,
         obs_encode_s = 0;
  uint64_t requests_rejected = 0, connections_rejected = 0;
  double query_p99_us = 0, late_p99_ms = 0;
  uint64_t backlog_max = 0;
  double cpu_s = 0, cpu_util = 0, overhead_fraction = 0,
         unattributed_fraction = 0;
};

void EmitPerLayer(const PerLayer& p, size_t num_threads, MetricSink* sink) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  sink->Add("matching.busy_s", p.matching_busy_s, "s");
  sink->Add("matching.pairs_per_busy_s",
            ratio(count(p.matching_pairs), p.matching_busy_s), "1/s");
  sink->Add("matching.parallel_eff",
            ratio(p.matching_busy_s,
                  p.scoring_s * static_cast<double>(num_threads)),
            "ratio");
  sink->Add("matching.pairs", count(p.matching_pairs), "count");
  sink->Add("stream.mutate_s", p.stream_mutate_s, "s");
  sink->Add("stream.self_s", p.stream_self_s, "s");
  sink->Add("stream.snapshot_s", p.stream_snapshot_s, "s");
  sink->Add("stream.cache_hit_ratio",
            ratio(count(p.cache_hits), count(p.cache_hits + p.pairs_scored)),
            "ratio");
  sink->Add("stream.cache_hits", count(p.cache_hits), "count");
  sink->Add("stream.cache_evictions", count(p.cache_evictions), "count");
  sink->Add("stream.candidates_added", count(p.candidates_added), "count");
  sink->Add("stream.candidates_removed", count(p.candidates_removed), "count");
  sink->Add("core.cleanup_s", p.cleanup_s, "s");
  sink->Add("core.cleanup_max_ms", p.cleanup_max_s * 1e3, "ms");
  sink->Add("core.rebuild_ratio",
            ratio(count(p.components_rebuilt),
                  count(p.components_rebuilt + p.components_reused)),
            "ratio");
  sink->Add("core.reference_run_s", p.reference_run_s, "s");
  sink->Add("core.components_rebuilt", count(p.components_rebuilt), "count");
  sink->Add("core.components_reused", count(p.components_reused), "count");
  sink->Add("blocking.add_s", p.blocking_add_s, "s");
  sink->Add("blocking.remove_s", p.blocking_remove_s, "s");
  sink->Add("blocking.delta_pairs", count(p.blocking_delta_pairs), "count");
  sink->Add("obs.pipeline_blocking_s", p.obs_blocking_s, "s");
  sink->Add("shard.mutate_s", p.shard_mutate_s, "s");
  sink->Add("shard.self_s", p.shard_self_s, "s");
  sink->Add("shard.snapshot_s", p.shard_snapshot_s, "s");
  sink->Add("shard.record_skew", p.shard_record_skew, "ratio");
  sink->Add("obs.shard_route_s", p.obs_route_s, "s");
  sink->Add("obs.shard_exchange_s", p.obs_exchange_s, "s");
  sink->Add("obs.shard_merge_s", p.obs_merge_s, "s");
  sink->Add("serve.publish_s", p.publish_s, "s");
  sink->Add("serve.publish_p90_ms", p.publish_p90_s * 1e3, "ms");
  sink->Add("serve.checkpoint_save_s", p.checkpoint_save_s, "s");
  sink->Add("serve.checkpoint_load_s", p.checkpoint_load_s, "s");
  sink->Add("serve.bytes_per_live_record",
            ratio(count(p.checkpoint_bytes), count(p.live_records)), "B");
  sink->Add("serve.epochs", count(p.epochs), "count");
  sink->Add("serve.checkpoint_bytes", count(p.checkpoint_bytes), "B");
  sink->Add("serve.restore_failed", count(p.restore_failed), "count");
  sink->Add("net.requests_per_batch", p.requests_per_batch, "ratio");
  sink->Add("net.requests_rejected", count(p.requests_rejected), "count");
  sink->Add("net.connections_rejected", count(p.connections_rejected), "count");
  sink->Add("obs.rpc_decode_s", p.obs_decode_s, "s");
  sink->Add("obs.rpc_dispatch_s", p.obs_dispatch_s, "s");
  sink->Add("obs.rpc_encode_s", p.obs_encode_s, "s");
  sink->Add("load.query_p99_us", p.query_p99_us, "us");
  sink->Add("load.late_p99_ms", p.late_p99_ms, "ms");
  sink->Add("load.backlog_max", count(p.backlog_max), "count");
  sink->Add("proc.cpu_s", p.cpu_s, "s");
  sink->Add("proc.cpu_util", p.cpu_util, "ratio");
  sink->Add("trace.overhead_fraction", p.overhead_fraction, "ratio");
  sink->Add("trace.unattributed_fraction", p.unattributed_fraction, "ratio");
}

double HistogramSum(const obs::MetricsSnapshot& scrape, const std::string& name) {
  for (const obs::HistogramSample& h : scrape.histograms) {
    if (h.name == name) return h.sum_seconds;
  }
  return 0.0;
}

/// Span-derived fields, scaled by 1 / `reps`.
void FillFromSpans(const Tracer& tracer, double reps, PerLayer* p) {
  const std::map<std::string, SpanTotals> totals = tracer.Totals();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s / reps;
  };
  p->matching_busy_s = total("matching.score_batch");
  p->stream_mutate_s = total("stream.mutate");
  p->stream_snapshot_s = total("stream.snapshot");
  p->shard_mutate_s = total("shard.mutate");
  p->shard_snapshot_s = total("shard.snapshot");
  p->publish_s = total("serve.publish");
  p->checkpoint_save_s = total("serve.checkpoint_save");
  p->checkpoint_load_s = total("serve.checkpoint_load");
  // Glue time inside a mutation phase that no public call covers.
  double phase = 0.0, unattributed = 0.0;
  for (const char* name : {"phase.ingest", "phase.churn", "phase.update_round"}) {
    auto it = totals.find(name);
    if (it == totals.end()) continue;
    phase += it->second.total_s;
    unattributed += it->second.self_s;
  }
  p->unattributed_fraction = phase > 0 ? unattributed / phase : 0.0;
}

/// The one scrape of the obs registry, taken when the run ends; pipeline
/// phases are scaled by 1 / `reps`.
void FillFromScrape(const obs::MetricsRegistry& registry, double reps,
                    PerLayer* p) {
  const obs::MetricsSnapshot scrape = registry.Snapshot();
  p->obs_blocking_s = HistogramSum(scrape, "pipeline_blocking_seconds") / reps;
  p->obs_route_s = HistogramSum(scrape, "shard_route_seconds") / reps;
  p->obs_exchange_s = HistogramSum(scrape, "shard_exchange_seconds") / reps;
  p->obs_merge_s = HistogramSum(scrape, "shard_merge_seconds") / reps;
  p->obs_decode_s = HistogramSum(scrape, "net_rpc_decode_seconds");
  p->obs_dispatch_s = HistogramSum(scrape, "net_rpc_dispatch_seconds");
  p->obs_encode_s = HistogramSum(scrape, "net_rpc_encode_seconds");
}

// ---------------------------------------------------------------------------
// Driving a pipeline
// ---------------------------------------------------------------------------

/// What the mutations of one pass did, summed from their IngestReports,
/// plus per-mutation freshness and publish times.
struct RunTotals {
  IngestReport sum;
  double cleanup_max_s = 0.0;
  uint64_t epochs = 0;
  std::vector<double> freshness_ms;
  std::vector<double> publish_s;
  /// Mutation call to epoch visible, per mutation.
  std::vector<double> busy_s;

  void Add(const IngestReport& r) {
    sum.records_added += r.records_added;
    sum.records_removed += r.records_removed;
    sum.candidates_added += r.candidates_added;
    sum.candidates_removed += r.candidates_removed;
    sum.pairs_scored += r.pairs_scored;
    sum.cache_hits += r.cache_hits;
    sum.cache_evictions += r.cache_evictions;
    sum.components_rebuilt += r.components_rebuilt;
    sum.components_reused += r.components_reused;
    sum.scoring_seconds += r.scoring_seconds;
    sum.cleanup_seconds += r.cleanup_seconds;
    cleanup_max_s = std::max(cleanup_max_s, r.cleanup_seconds);
  }

  /// The counts that must repeat exactly for one schedule.
  std::vector<uint64_t> Exact() const {
    return {sum.records_added,      sum.records_removed,
            sum.candidates_added,   sum.candidates_removed,
            sum.pairs_scored,       sum.cache_hits,
            sum.cache_evictions,    sum.components_rebuilt,
            sum.components_reused,  epochs};
  }
};

void FillFromTotals(const RunTotals& t, PerLayer* p) {
  p->cache_hits = t.sum.cache_hits;
  p->cache_evictions = t.sum.cache_evictions;
  p->candidates_added = t.sum.candidates_added;
  p->candidates_removed = t.sum.candidates_removed;
  p->pairs_scored = t.sum.pairs_scored;
  p->components_rebuilt = t.sum.components_rebuilt;
  p->components_reused = t.sum.components_reused;
  p->cleanup_max_s = t.cleanup_max_s;
  p->epochs = t.epochs;
  p->publish_p90_s = obs::SampleQuantile(t.publish_s, 0.90);
}

template <typename Pipeline>
struct Names;
template <>
struct Names<IncrementalPipeline> {
  static constexpr const char* kMutate = "stream.mutate";
  static constexpr const char* kSnapshot = "stream.snapshot";
};
template <>
struct Names<ShardedPipeline> {
  static constexpr const char* kMutate = "shard.mutate";
  static constexpr const char* kSnapshot = "shard.snapshot";
};

/// Applies one mutation, snapshots, publishes, and waits until View()
/// shows the epoch. Freshness is measured from `due_ns`; every span of the
/// mutation carries op id `id`.
template <typename Pipeline>
bool Apply(Pipeline* pipeline, const Op& op, const PairwiseMatcher& matcher,
           MatchService* service, int64_t due_ns, Tracer* tracer, uint64_t id,
           int64_t parent, RunTotals* totals, MetricSink* sink) {
  const int64_t start = NowNs();
  Result<IngestReport> report = [&]() -> Result<IngestReport> {
    SpanScope span(tracer, Names<Pipeline>::kMutate, id, parent);
    if (tracer != nullptr) tracer->SetCurrent(id, span.index());
    switch (op.kind) {
      case Op::Kind::kRemove:
        return pipeline->Remove(op.removals, matcher);
      case Op::Kind::kUpdate:
        return pipeline->Update(op.updates, matcher);
      case Op::Kind::kIngest:
        break;
    }
    return pipeline->Ingest(op.adds, matcher);
  }();
  sink->Attempt();
  if (!report.ok()) {
    sink->Fail("mutation: " + report.status().message());
    return false;
  }
  totals->Add(*report);
  Result<PipelineResult> snapshot = [&] {
    SpanScope span(tracer, Names<Pipeline>::kSnapshot, id, parent);
    return pipeline->Snapshot();
  }();
  if (!snapshot.ok()) {
    sink->Fail("snapshot: " + snapshot.status().message());
    return false;
  }
  const int64_t publish_start = NowNs();
  uint64_t epoch = 0;
  {
    SpanScope span(tracer, "serve.publish", id, parent);
    epoch = service->Publish(*snapshot, pipeline->records().size());
  }
  const int64_t published = NowNs();
  while (service->View()->epoch() < epoch) std::this_thread::yield();
  const int64_t visible = NowNs();
  ++totals->epochs;
  totals->publish_s.push_back(NsToSeconds(published - publish_start));
  totals->freshness_ms.push_back(static_cast<double>(visible - due_ns) * 1e-6);
  totals->busy_s.push_back(NsToSeconds(visible - start));
  return true;
}

/// Applies `ops` back to back, with one host-speed sample after each; an
/// op is due when the previous one's sample ended. Returns the wall time
/// from the first call to the last publish, less the samples.
template <typename Pipeline>
double ApplyAll(Pipeline* pipeline, const std::vector<Op>& ops,
                const PairwiseMatcher& matcher, MatchService* service,
                Tracer* tracer, const char* phase, RunTotals* totals,
                HostSpeed* host, MetricSink* sink) {
  const uint64_t id = tracer != nullptr ? tracer->NextOp() : 0;
  SpanScope span(tracer, phase, id);
  const int64_t start = NowNs();
  double calibration_s = 0.0;
  for (const Op& op : ops) {
    const uint64_t op_id = tracer != nullptr ? tracer->NextOp() : 0;
    if (!Apply(pipeline, op, matcher, service, NowNs(), tracer, op_id,
               span.index(), totals, sink)) {
      break;
    }
    calibration_s += host->Sample();
  }
  return NsToSeconds(NowNs() - start) - calibration_s;
}

RecordId FirstLive(const std::vector<char>& alive) {
  for (size_t i = 0; i < alive.size(); ++i) {
    if (alive[i]) return static_cast<RecordId>(i);
  }
  return 0;
}

uint64_t PathBytes(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    uint64_t bytes = 0;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
    }
    return bytes;
  }
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// Restart from the checkpoint at `path`: load and validate it, snapshot,
/// publish, answer the first GroupOf. Returns the wall time of all of it;
/// the restored result is checked against `expected` afterwards.
template <typename Pipeline>
double Recover(const std::string& path, const PairwiseMatcher& matcher,
               size_t num_threads, const PipelineResult& expected,
               obs::MetricsRegistry* registry, Tracer* tracer,
               MetricSink* sink) {
  const uint64_t id = tracer != nullptr ? tracer->NextOp() : 0;
  const int64_t start = NowNs();
  SpanScope span(tracer, "serve.recovery", id);
  Result<std::unique_ptr<Pipeline>> restored = [&] {
    SpanScope load(tracer, "serve.checkpoint_load", id, span.index());
    if constexpr (std::is_same_v<Pipeline, ShardedPipeline>) {
      return LoadShardedCheckpoint(path, matcher, num_threads, registry);
    } else {
      return LoadCheckpoint(path, matcher, num_threads);
    }
  }();
  sink->Attempt();
  if (!restored.ok()) {
    sink->Fail("recovery load: " + restored.status().message());
    return -1.0;
  }
  const Pipeline& pipeline = **restored;
  Result<PipelineResult> snapshot = [&] {
    SpanScope s(tracer, Names<Pipeline>::kSnapshot, id, span.index());
    return pipeline.Snapshot();
  }();
  if (!snapshot.ok()) {
    sink->Fail("recovery snapshot: " + snapshot.status().message());
    return -1.0;
  }
  MatchService service;
  {
    SpanScope s(tracer, "serve.publish", id, span.index());
    service.Publish(*snapshot, pipeline.records().size());
  }
  const GroupId group = service.GroupOf(FirstLive(pipeline.alive()));
  const double seconds = NsToSeconds(NowNs() - start);

  sink->Attempt();
  const std::string diff = Diff(*snapshot, expected);
  if (!diff.empty()) sink->Mismatch("restored snapshot: " + diff);
  if (group == kNoGroup) sink->Mismatch("restored service has no group");
  return seconds;
}

/// Blocking cost of a schedule, measured by replaying its record additions
/// and removals through the two incremental indexes on their own, in the
/// order the pipelines apply them.
struct BlockingCost {
  double add_s = 0.0;
  double remove_s = 0.0;
  uint64_t delta_pairs = 0;
};

/// Ops before `timed_from` only warm the indexes up (a pipeline restored
/// from a checkpoint starts with them already absorbed).
BlockingCost ReplayBlocking(const std::vector<const Op*>& ops,
                            const IncrementalPipelineConfig& config,
                            size_t timed_from = 0) {
  std::unique_ptr<ThreadPool> pool = MaybeMakePool(config.pipeline.num_threads);
  RecordTable table;
  IncrementalIdOverlapIndex id_index;
  IncrementalTokenOverlapIndex token_index(config.token);
  BlockingCost cost;
  BlockingCost warmup;
  BlockingCost* into = &warmup;
  auto timed = [&](double BlockingCost::*field, auto&& call) {
    const int64_t start = NowNs();
    const CandidateDelta delta = call();
    into->*field += NsToSeconds(NowNs() - start);
    into->delta_pairs += delta.added.size() + delta.removed.size();
  };
  for (size_t k = 0; k < ops.size(); ++k) {
    if (k == timed_from) into = &cost;
    const Op* op = ops[k];
    std::vector<RecordId> removals = op->removals;
    for (const Record& rec : op->adds) table.Add(rec);
    for (const RecordUpdate& u : op->updates) {
      removals.push_back(u.id);
      table.Add(u.record);
    }
    if (!removals.empty()) {
      timed(&BlockingCost::remove_s,
            [&] { return id_index.RemoveRecords(table, removals, pool.get()); });
    }
    timed(&BlockingCost::add_s, [&] { return id_index.AddRecords(table, pool.get()); });
    if (!removals.empty()) {
      timed(&BlockingCost::remove_s, [&] {
        return token_index.RemoveRecords(table, removals, pool.get());
      });
    }
    timed(&BlockingCost::add_s, [&] { return token_index.AddRecords(table, pool.get()); });
  }
  return cost;
}

/// Load connections to the server; the server also admits one more, the
/// checker's, which the correctness sweep uses.
constexpr size_t kLoadConnections = 2;

/// Where the read path runs. With at least four CPUs: the load generator
/// on one, the server's threads on two, the serve workload's writer on the
/// last; `rest` is every CPU but the writer's. Read latency then measures
/// contention in the program (the snapshot swap, the allocator, caches),
/// not where the kernel happened to place a woken thread. With fewer CPUs
/// nothing is pinned.
struct CpuPlan {
  std::vector<int> generator, server, writer, rest;
};

CpuPlan MakeCpuPlan() {
  const std::vector<int> all = ThreadCpus();
  CpuPlan plan;
  if (all.size() < 4) return plan;
  plan.generator = {all[0]};
  plan.server = {all[1], all[2]};
  plan.writer = {all[3]};
  plan.rest = {all[0], all[1], all[2]};
  return plan;
}

/// A NetServer over a service, with the load connections and one checker
/// client.
struct Frontend {
  std::unique_ptr<NetServer> server;
  std::vector<std::unique_ptr<LoadConnection>> load;
  std::unique_ptr<NetClient> checker;
};

Frontend StartFrontend(const MatchService* service,
                       obs::MetricsRegistry* registry, const CpuPlan& cpus,
                       MetricSink* sink) {
  Frontend front;
  NetServerOptions options;
  options.max_connections = kLoadConnections + 1;
  options.metrics = registry;
  // The server's threads inherit this thread's CPUs.
  const std::vector<int> own = ThreadCpus();
  PinThread(cpus.server);
  Result<std::unique_ptr<NetServer>> server = NetServer::Start(service, options);
  PinThread(own);
  sink->Attempt();
  if (!server.ok()) {
    sink->Fail("server start: " + server.status().message());
    return front;
  }
  front.server = std::move(*server);
  for (size_t c = 0; c < kLoadConnections; ++c) {
    Result<std::unique_ptr<LoadConnection>> conn =
        LoadConnection::Open(front.server->port());
    sink->Attempt();
    if (!conn.ok()) {
      sink->Fail("connect: " + conn.status().message());
      front.load.clear();
      return front;
    }
    front.load.push_back(std::move(*conn));
  }
  Result<std::unique_ptr<NetClient>> checker =
      NetClient::Connect(front.server->port());
  sink->Attempt();
  if (!checker.ok()) {
    sink->Fail("connect: " + checker.status().message());
  } else {
    front.checker = std::move(*checker);
  }
  return front;
}

/// Runs the read ladder and folds its outcome into the metrics. `end_ns`
/// is LadderConfig's; the echo baseline goes to `*echo_p50_us`.
std::vector<StepResult> ReadLadder(const Frontend& front,
                                   const MatchService& service,
                                   const std::vector<double>& rates,
                                   double seconds, uint64_t seed,
                                   const CpuPlan& cpus,
                                   std::function<void()> between_cycles,
                                   int64_t end_ns, Tracer* tracer,
                                   double* echo_p50_us, MetricSink* sink) {
  if (front.load.empty()) return {};
  LadderConfig config;
  config.generator_cpus = cpus.generator;
  config.server_cpus = cpus.server;
  config.between_cycles = std::move(between_cycles);
  config.end_ns = end_ns;
  config.rates = rates;
  // Many short interleaved cycles: each rate's figures are medians over
  // its cycles, which passing stalls of the machine cannot move. A cycle
  // has one step per rate and the echo step.
  constexpr double kCycleStepSeconds = 0.3;
  const double steps_per_cycle = static_cast<double>(rates.size() + 1);
  config.cycles = std::max<size_t>(
      1, static_cast<size_t>(seconds / (kCycleStepSeconds * steps_per_cycle)));
  config.step_seconds =
      seconds / (steps_per_cycle * static_cast<double>(config.cycles));
  config.seed = seed;
  const MatchSnapshotPtr view = service.View();
  const uint64_t id = tracer != nullptr ? tracer->NextOp() : 0;
  SpanScope span(tracer, "phase.read", id);
  std::vector<StepResult> steps =
      RunLadder(front.load, view->stats().num_records, view->num_groups(),
                config, tracer, span.index(), echo_p50_us);
  std::fprintf(stderr, "e2ebench: echo baseline p50 %.1f us\n", *echo_p50_us);
  for (const StepResult& step : steps) {
    std::fprintf(stderr,
                 "e2ebench: ladder %.0f/s: p50 %.1f us, p99 %.1f us, "
                 "achieved %.0f/s, late p99 %.3f ms, backlog max %llu end %llu, "
                 "failed %llu%s\n",
                 step.rate, step.p50_us, step.p99_us, step.achieved_qps,
                 step.late_p99_ms, static_cast<unsigned long long>(step.backlog_max),
                 static_cast<unsigned long long>(step.backlog_end),
                 static_cast<unsigned long long>(step.failed),
                 step.met_limit ? "" : " (limit missed)");
    sink->Attempt(step.sent);
    if (step.failed > 0) sink->Fail("queries at the ladder", step.failed);
  }
  return steps;
}

void FillFromLadder(const std::vector<StepResult>& steps, const NetServer* server,
                    PerLayer* p) {
  if (!steps.empty()) p->query_p99_us = steps[steps.size() / 2].p99_us;
  for (const StepResult& step : steps) {
    p->late_p99_ms = std::max(p->late_p99_ms, step.late_p99_ms);
    p->backlog_max = std::max(p->backlog_max, step.backlog_max);
  }
  if (server != nullptr) {
    const NetServerCounters c = server->counters();
    p->requests_per_batch =
        c.batches > 0 ? static_cast<double>(c.requests_served) /
                            static_cast<double>(c.batches)
                      : 0.0;
    p->requests_rejected = c.requests_rejected;
    p->connections_rejected = c.connections_rejected;
  }
}

void CheckExact(const RunTotals& a, const RunTotals& b, const char* what,
                MetricSink* sink) {
  sink->Attempt();
  if (a.Exact() != b.Exact()) {
    sink->Mismatch(std::string(what) + ": exact counts differ between passes");
  }
}

void CheckSame(const PipelineResult& a, const PipelineResult& b,
               const std::string& what, MetricSink* sink) {
  sink->Attempt();
  const std::string diff = Diff(a, b);
  if (!diff.empty()) sink->Mismatch(what + ": " + diff);
}

void WriteSpans(const Tracer& tracer, const Options& options) {
  const std::string path =
      (fs::path(options.out_dir) / (options.workload + ".spans.tsv")).string();
  if (!tracer.WriteTsv(path)) {
    std::fprintf(stderr, "e2ebench: could not write %s\n", path.c_str());
  }
}

std::string ScratchPath(const Options& options, const std::string& stem) {
  return (fs::path(options.out_dir) /
          (stem + "-" + std::to_string(::getpid())))
      .string();
}

// ---------------------------------------------------------------------------
// stream_companies_lm and shard_securities_id
// ---------------------------------------------------------------------------

std::unique_ptr<TransformerMatcher> TrainCompanyMatcher(const Fixture& fixture,
                                                        uint64_t seed,
                                                        const Scale& scale) {
  Dataset data;
  for (size_t i = 0; i < fixture.records.size(); ++i) {
    data.records.Add(fixture.records[i]);
    data.truth.Assign(static_cast<RecordId>(i), fixture.entity[i]);
  }
  Rng rng(seed);
  const GroupSplit split = SplitByGroups(data.truth, &rng);
  TransformerMatcherConfig config =
      MakeVariantConfig(ModelVariant::kDistilBert128All, seed, 32, 96);
  config.trainer.epochs = scale.epochs;
  config.trainer.lr = 1.5e-3f;
  auto matcher = std::make_unique<TransformerMatcher>(config);
  RecordTable train_records;
  for (size_t i = 0; i < data.records.size(); ++i) {
    if (split.part(static_cast<RecordId>(i)) == SplitPart::kTrain) {
      train_records.Add(data.records.at(static_cast<RecordId>(i)));
    }
  }
  matcher->BuildVocab(train_records);
  PairSamplingOptions opts;
  opts.max_positives = scale.train_positives;
  const auto train = SamplePairs(data, split, SplitPart::kTrain, opts);
  opts.max_positives = scale.val_positives;
  const auto val = SamplePairs(data, split, SplitPart::kValidation, opts);
  matcher->FineTune(data.records, train, val);
  return matcher;
}

/// One repetition of the mutation schedule on a fresh pipeline.
template <typename Pipeline>
struct Rep {
  std::unique_ptr<MatchService> service;
  std::unique_ptr<Pipeline> pipeline;
  RunTotals totals;
  PipelineResult final_result;
  double ingest_s = 0.0;
  double churn_s = 0.0;
  double wall_s = 0.0;
  uint64_t checkpoint_bytes = 0;
  bool restore_failed = false;
  std::vector<double> recovery_s;
};

struct StreamSetup {
  IncrementalPipelineConfig config;
  size_t num_shards = 0;  ///< 0 = IncrementalPipeline
  const PairwiseMatcher* matcher = nullptr;
  const Schedule* schedule = nullptr;
  size_t recovery_loads = 1;
  std::string checkpoint_path;
};

template <typename Pipeline>
std::unique_ptr<Pipeline> MakePipeline(const StreamSetup& setup,
                                       obs::MetricsRegistry* registry) {
  IncrementalPipelineConfig config = setup.config;
  config.pipeline.metrics = registry;
  if constexpr (std::is_same_v<Pipeline, ShardedPipeline>) {
    ShardedPipelineConfig sharded;
    sharded.base = config;
    sharded.num_shards = setup.num_shards;
    return std::make_unique<ShardedPipeline>(sharded);
  } else {
    return std::make_unique<IncrementalPipeline>(config);
  }
}

template <typename Pipeline>
Rep<Pipeline> RunRep(const StreamSetup& setup, const PairwiseMatcher& matcher,
                     obs::MetricsRegistry* registry, Tracer* tracer,
                     HostSpeed* host, MetricSink* sink) {
  constexpr bool kSharded = std::is_same_v<Pipeline, ShardedPipeline>;
  const size_t threads = setup.config.pipeline.num_threads;
  Rep<Pipeline> rep;
  const int64_t start = NowNs();
  rep.service = std::make_unique<MatchService>(registry);
  rep.pipeline = MakePipeline<Pipeline>(setup, registry);
  Pipeline* pipeline = rep.pipeline.get();

  rep.ingest_s = ApplyAll(pipeline, setup.schedule->ingest, matcher,
                          rep.service.get(), tracer, "phase.ingest",
                          &rep.totals, host, sink);
  // IncrementalPipeline: the restart point is the ingested state (see the
  // known restore failure below).
  PipelineResult restart_point;
  if constexpr (!kSharded) {
    restart_point = pipeline->Snapshot().ValueOrDie();
    SpanScope span(tracer, "serve.checkpoint_save", 0);
    const Status saved = SaveCheckpoint(*pipeline, setup.checkpoint_path);
    sink->Attempt();
    if (!saved.ok()) sink->Fail("checkpoint save: " + saved.message());
  }
  rep.churn_s = ApplyAll(pipeline, setup.schedule->churn, matcher,
                         rep.service.get(), tracer, "phase.churn",
                         &rep.totals, host, sink);
  rep.final_result = pipeline->Snapshot().ValueOrDie();

  if constexpr (kSharded) {
    {
      SpanScope span(tracer, "serve.checkpoint_save", 0);
      const Status saved =
          SaveShardedCheckpoint(*pipeline, setup.checkpoint_path, registry);
      sink->Attempt();
      if (!saved.ok()) sink->Fail("checkpoint save: " + saved.message());
    }
    rep.checkpoint_bytes = PathBytes(setup.checkpoint_path);
    restart_point = rep.final_result;
  } else {
    // Round trip of the corrected state. ParseCheckpoint rejects images
    // saved after Update calls (zero-provenance candidate entries survive a
    // pass that adds and retracts the same pair); this is counted as
    // serve.restore_failed, not as a failed operation, until it is fixed.
    Result<std::string> image = SerializeCheckpoint(*pipeline);
    sink->Attempt();
    if (!image.ok()) {
      sink->Fail("checkpoint serialize: " + image.status().message());
    } else {
      rep.checkpoint_bytes = image->size();
      Result<std::unique_ptr<IncrementalPipeline>> parsed =
          ParseCheckpoint(*image, matcher, threads);
      if (!parsed.ok()) {
        rep.restore_failed = true;
      } else {
        CheckSame((*parsed)->Snapshot().ValueOrDie(), rep.final_result,
                  "restored corrected state", sink);
      }
    }
  }
  // The first load only warms the heap up; the rest are timed.
  for (size_t k = 0; k <= setup.recovery_loads; ++k) {
    const double seconds =
        Recover<Pipeline>(setup.checkpoint_path, matcher, threads,
                          restart_point, registry, tracer, sink);
    if (k > 0 && seconds >= 0) rep.recovery_s.push_back(seconds);
  }
  rep.wall_s = NsToSeconds(NowNs() - start);
  return rep;
}


template <typename Pipeline>
void RunStreamWorkload(const Options& options, const Scale& scale,
                       MetricSink* sink) {
  constexpr bool kSharded = std::is_same_v<Pipeline, ShardedPipeline>;
  // Declared first: the pipelines and services below record into them.
  obs::MetricsRegistry registry;
  Tracer tracer;
  EndToEnd e2e;

  // Set-up: generate the fixture and, for the LM workload, fine-tune the
  // matcher. Repeated; setup_s is their median.
  Fixture fixture;
  std::unique_ptr<TransformerMatcher> lm;
  HeuristicIdMatcher id_matcher;
  for (size_t k = 0; k < scale.setups; ++k) {
    const int64_t start = NowNs();
    lm.reset();
    fixture = MakeFixture(
        kSharded ? FixtureKind::kSecurities : FixtureKind::kCompanies,
        kSharded ? scale.securities_groups : scale.companies_groups);
    if (!kSharded) lm = TrainCompanyMatcher(fixture, kCorpusSeed, scale);
    e2e.setup_s.push_back(NsToSeconds(NowNs() - start));
    e2e.setup_host.Sample(kPauseSamples);
  }
  const PairwiseMatcher& matcher =
      kSharded ? static_cast<const PairwiseMatcher&>(id_matcher) : *lm;
  const size_t rounds = kSharded ? scale.shard_rounds : scale.stream_rounds;
  const double churn = kSharded ? scale.shard_churn : scale.stream_churn;
  const Schedule schedule = MakeSchedule(fixture, scale.batches, rounds, churn,
                                         churn, options.seed);
  StreamSetup setup;
  setup.config = PipelineConfigFor(kSharded ? 1 : 2);
  setup.num_shards = kSharded ? 2 : 0;
  setup.schedule = &schedule;
  setup.recovery_loads =
      kSharded ? scale.shard_recovery_loads : scale.stream_recovery_loads;
  setup.checkpoint_path =
      ScratchPath(options, kSharded ? "shard-ckpt" : "stream.ckpt");

  // Repetitions, each on a fresh pipeline and repetition k on schedule k
  // (ScheduleSeed). A traced run spends half its schedule budget
  // untraced, so the tracing overhead is measured within the run; its
  // traced repetitions all replay schedule 0.
  const double schedule_s = options.seconds * kScheduleShare;
  const double untraced_budget = options.trace ? schedule_s / 2 : schedule_s;
  std::vector<double> ingest_rates, churn_rates, untraced_walls;
  std::vector<std::vector<double>> freshness_per_rep;
  Rep<Pipeline> first, last;
  uint64_t restore_failed = 0;
  double last_wall = 0.0;
  const int64_t begin = NowNs();
  do {
    const size_t k = untraced_walls.size();
    Schedule variant;
    if (k > 0) {
      variant = MakeSchedule(fixture, scale.batches, rounds, churn, churn,
                             ScheduleSeed(options.seed, k));
    }
    const Schedule& current = k == 0 ? schedule : variant;
    setup.schedule = &current;
    if constexpr (kSharded) {
      // The sharded set-up is only data generation, tens of milliseconds:
      // one more sample per repetition spreads them over the run.
      const int64_t start = NowNs();
      const Fixture again =
          MakeFixture(FixtureKind::kSecurities, scale.securities_groups);
      e2e.setup_s.push_back(NsToSeconds(NowNs() - start));
      e2e.setup_host.Sample();
    }
    Rep<Pipeline> rep =
        RunRep<Pipeline>(setup, matcher, nullptr, nullptr, &e2e.host, sink);
    ingest_rates.push_back(static_cast<double>(current.records_ingested) /
                           rep.ingest_s);
    churn_rates.push_back(static_cast<double>(current.records_churned) /
                          rep.churn_s);
    freshness_per_rep.push_back(rep.totals.freshness_ms);
    e2e.recovery_s.insert(e2e.recovery_s.end(), rep.recovery_s.begin(),
                          rep.recovery_s.end());
    restore_failed += rep.restore_failed ? 1 : 0;
    untraced_walls.push_back(rep.wall_s);
    last_wall = rep.wall_s;
    if (k == 0) first = std::move(rep);
  } while (NsToSeconds(NowNs() - begin) + last_wall <= untraced_budget);
  setup.schedule = &schedule;
  std::fprintf(stderr, "e2ebench: %zu repetitions, on as many schedules\n",
               untraced_walls.size());
  if (restore_failed > 0) {
    std::fprintf(stderr,
                 "e2ebench: known issue: the checkpoint of the corrected state "
                 "did not load in %llu of %zu repetitions (serve.restore_failed)\n",
                 static_cast<unsigned long long>(restore_failed),
                 untraced_walls.size());
  }
  e2e.ingest_records_per_s = Median(ingest_rates);
  e2e.churn_records_per_s = Median(churn_rates);
  for (const std::vector<double>& freshness : freshness_per_rep) {
    e2e.freshness_ms.insert(e2e.freshness_ms.end(), freshness.begin(),
                            freshness.end());
  }

  // Correctness, outside every timed region: the final snapshot of
  // schedule 0 equals a from-scratch run on the survivors (the sharded
  // pipeline too — the schedule-equivalence contract).
  PerLayer layers;
  {
    const PipelineResult reference = SurvivorReference(
        first.pipeline->records(), first.pipeline->alive(), setup.config,
        matcher, schedule.entity_of_id, &layers.reference_run_s, &e2e.group_f1);
    CheckSame(first.final_result, reference, "final snapshot vs reference", sink);
  }

  // The traced pass: the same schedule with every public call in a span,
  // the matcher behind the timing wrapper and the obs registry wired in.
  double traced_reps = 1.0;
  if (options.trace) {
    const TimingMatcher timing(&matcher, &tracer);
    std::vector<double> traced_walls;
    double scoring_s = 0.0, cleanup_s = 0.0;
    const double cpu_start = ProcessCpuSeconds();
    const int64_t traced_begin = NowNs();
    do {
      Rep<Pipeline> rep =
          RunRep<Pipeline>(setup, timing, &registry, &tracer, &e2e.host,
                           sink);
      CheckSame(rep.final_result, first.final_result, "traced vs untraced", sink);
      CheckExact(rep.totals, first.totals, "traced vs untraced", sink);
      traced_walls.push_back(rep.wall_s);
      scoring_s += rep.totals.sum.scoring_seconds;
      cleanup_s += rep.totals.sum.cleanup_seconds;
      last = std::move(rep);
    } while (traced_walls.size() < untraced_walls.size() &&
             NsToSeconds(NowNs() - traced_begin) + last.wall_s <=
                 schedule_s - untraced_budget);
    const double reps = static_cast<double>(traced_walls.size());
    traced_reps = reps;
    const double cpu_s = ProcessCpuSeconds() - cpu_start;
    layers.cpu_s = cpu_s / reps;
    layers.cpu_util = cpu_s / NsToSeconds(NowNs() - traced_begin);
    layers.overhead_fraction =
        Median(traced_walls) / Median(untraced_walls) - 1.0;
    layers.matching_pairs = timing.pairs() / traced_walls.size();
    layers.scoring_s = scoring_s / reps;
    layers.cleanup_s = cleanup_s / reps;
    FillFromTotals(last.totals, &layers);
    FillFromSpans(tracer, reps, &layers);
    layers.checkpoint_bytes = last.checkpoint_bytes;
    layers.live_records = last.pipeline->num_live();
    layers.restore_failed = last.restore_failed ? 1 : 0;
    if constexpr (kSharded) {
      layers.shard_self_s =
          layers.shard_mutate_s - layers.scoring_s - layers.cleanup_s;
      double largest = 0.0, total = 0.0;
      for (size_t k = 0; k < last.pipeline->num_shards(); ++k) {
        const double n = static_cast<double>(last.pipeline->ShardRecordCount(k));
        largest = std::max(largest, n);
        total += n;
      }
      layers.shard_record_skew =
          total > 0 ? largest *
                          static_cast<double>(last.pipeline->num_shards()) / total
                    : 0.0;
    } else {
      layers.stream_self_s =
          layers.stream_mutate_s - layers.scoring_s - layers.cleanup_s;
    }
    std::vector<const Op*> ops;
    for (const Op& op : schedule.ingest) ops.push_back(&op);
    for (const Op& op : schedule.churn) ops.push_back(&op);
    const BlockingCost blocking = ReplayBlocking(ops, setup.config);
    layers.blocking_add_s = blocking.add_s;
    layers.blocking_remove_s = blocking.remove_s;
    layers.blocking_delta_pairs = blocking.delta_pairs;
  }

  // Read ladder against the final epoch (no writer: the quiet baseline of
  // serve_reads_under_updates).
  {
    const CpuPlan cpus = MakeCpuPlan();
    const Frontend front = StartFrontend(
        first.service.get(), options.trace ? &registry : nullptr, cpus, sink);
    e2e.ladder = ReadLadder(front, *first.service, scale.rates,
                            options.seconds * (1.0 - kScheduleShare),
                            options.seed, cpus,
                            nullptr, 0,
                            options.trace ? &tracer : nullptr, &e2e.echo_p50_us,
                            sink);
    FillFromLadder(e2e.ladder, front.server.get(), &layers);
  }
  std::error_code ec;
  fs::remove_all(setup.checkpoint_path, ec);

  if (options.trace) {
    FillFromScrape(registry, traced_reps, &layers);
    EmitPerLayer(layers, setup.config.pipeline.num_threads, sink);
    WriteSpans(tracer, options);
  } else {
    EmitEndToEnd(e2e, sink);
  }
}

// ---------------------------------------------------------------------------
// serve_reads_under_updates
// ---------------------------------------------------------------------------

/// The served state: a pre-ingested pipeline behind NetServer. Members are
/// declared so the frontend goes down before the service it serves.
struct Served {
  std::unique_ptr<MatchService> service;
  std::unique_ptr<IncrementalPipeline> pipeline;
  Frontend front;
};

/// What one phase of reads-under-updates measured.
struct ServePhase {
  RunTotals writes;
  /// How many update rounds fell due before the ladder ended (the first
  /// ones); only these had reads beside them.
  size_t read_rounds = 0;
  std::vector<StepResult> ladder;
  double echo_p50_us = 0.0;
  /// Timed restarts from the set-up checkpoint (the warm-up load excluded).
  std::vector<double> recovery_s;
};

/// Work the generator does between ladder cycles, while no read is in
/// flight: restart from the set-up checkpoint (`path`, whose state is
/// `expected`). Spread over the phase, these samples do not all share one
/// moment's machine state.
struct Drills {
  std::string path;
  const PipelineResult* expected = nullptr;
  obs::MetricsRegistry* registry = nullptr;
};

/// One serve set-up: generate the corpus, pre-ingest it in the seeded
/// arrival order (publishing every batch), checkpoint the ingested state
/// to `checkpoint`, and start the frontend. Appends its time (less the
/// host-speed samples) to `setup_s` and its ingest rate to `ingest_rates`.
Served SetUpServe(const Scale& scale, uint64_t seed,
                  const IncrementalPipelineConfig& config,
                  const PairwiseMatcher& matcher, const std::string& checkpoint,
                  const CpuPlan& cpus, Schedule* pre,
                  std::vector<double>* setup_s,
                  std::vector<double>* ingest_rates, HostSpeed* host,
                  MetricSink* sink) {
  const int64_t start = NowNs();
  const double calibration_start = host->seconds();
  Served served;
  *pre = MakeSchedule(MakeFixture(FixtureKind::kSecurities, scale.serve_groups),
                      scale.batches, 0, 0.0, 0.0, seed);
  served.service = std::make_unique<MatchService>();
  served.pipeline = std::make_unique<IncrementalPipeline>(config);
  RunTotals totals;
  const double ingest_s =
      ApplyAll(served.pipeline.get(), pre->ingest, matcher,
               served.service.get(), nullptr, "phase.ingest", &totals, host,
               sink);
  ingest_rates->push_back(static_cast<double>(pre->records_ingested) / ingest_s);
  const Status saved = SaveCheckpoint(*served.pipeline, checkpoint);
  sink->Attempt();
  if (!saved.ok()) sink->Fail("checkpoint save: " + saved.message());
  served.front = StartFrontend(served.service.get(), nullptr, cpus, sink);
  setup_s->push_back(NsToSeconds(NowNs() - start) -
                     (host->seconds() - calibration_start));
  return served;
}

void SleepUntil(int64_t due_ns) {
  const int64_t ahead = due_ns - NowNs();
  if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
}

/// The writer applies one update round every `period_s` (each due on a
/// fixed schedule) while the generator runs the read ladder and, between
/// its cycles, the drills. The ladder starts no cycle that would outlast
/// the writer's schedule, so every read has the writer beside it. Both
/// threads take host-speed samples: the writer after each round, the
/// generator between cycles.
ServePhase RunServePhase(Served* served, const std::vector<Op>& rounds,
                         const PairwiseMatcher& matcher, const Scale& scale,
                         double seconds, uint64_t seed, const CpuPlan& cpus,
                         const Drills& drills, Tracer* tracer, HostSpeed* host,
                         MetricSink* sink) {
  ServePhase phase;
  MetricSink writer_sink;
  HostSpeed writer_host;
  const int64_t period_ns =
      static_cast<int64_t>(scale.serve_period_s * 1e9);
  const int64_t start = NowNs();
  auto due = [&](size_t r) {
    return start + static_cast<int64_t>(r + 1) * period_ns;
  };
  std::thread writer([&] {
    PinThread(cpus.writer);
    for (size_t r = 0; r < rounds.size(); ++r) {
      SleepUntil(due(r));
      const uint64_t id = tracer != nullptr ? tracer->NextOp() : 0;
      SpanScope span(tracer, "phase.update_round", id);
      if (!Apply(served->pipeline.get(), rounds[r], matcher,
                 served->service.get(), due(r), tracer, id, span.index(),
                 &phase.writes, &writer_sink)) {
        return;
      }
      writer_host.Sample();
    }
  });
  size_t loads = 0;
  auto between_cycles = [&] {
    for (size_t k = 0; k < scale.serve_recovery_loads; ++k) {
      const double s = Recover<IncrementalPipeline>(drills.path, matcher, 1,
                                                    *drills.expected,
                                                    drills.registry, tracer, sink);
      if (loads > 0 && s >= 0) phase.recovery_s.push_back(s);  // 1st warms up
      ++loads;
    }
    host->Sample(kPauseSamples);
  };
  const int64_t last_due = rounds.empty() ? 0 : due(rounds.size() - 1);
  phase.ladder = ReadLadder(served->front, *served->service, scale.rates,
                            seconds, seed, cpus, between_cycles, last_due,
                            tracer, &phase.echo_p50_us, sink);
  const int64_t reads_end = NowNs();
  while (phase.read_rounds < rounds.size() &&
         due(phase.read_rounds) <= reads_end) {
    ++phase.read_rounds;
  }
  std::fprintf(stderr, "e2ebench: %zu of %zu update rounds had reads beside them\n",
               phase.read_rounds, rounds.size());
  writer.join();
  sink->Merge(writer_sink);
  host->Merge(writer_host);
  return phase;
}

/// Correctness of the served state, outside the timed phase: every wire
/// GroupOf answer equals View() at the final epoch, and the final snapshot
/// equals a from-scratch run on the survivors.
void CheckServed(const Served& served, const IncrementalPipelineConfig& config,
                 const PairwiseMatcher& matcher,
                 const std::vector<EntityId>& entity_of_id, double* reference_s,
                 double* f1, MetricSink* sink) {
  const MatchSnapshotPtr view = served.service->View();
  const int64_t n = static_cast<int64_t>(view->stats().num_records);
  size_t wrong = 0;
  if (served.front.checker != nullptr) {
    NetClient* client = served.front.checker.get();
    for (int64_t first = 0; first < n; first += 64) {
      std::vector<NetRequest> burst;
      for (int64_t id = first; id < std::min(n, first + 64); ++id) {
        burst.push_back(NetRequest::GroupOf(id));
      }
      sink->Attempt(burst.size());
      Result<std::vector<NetReply>> replies = client->Call(burst);
      if (!replies.ok() || replies->size() != burst.size()) {
        sink->Fail("sweep burst", burst.size());
        continue;
      }
      for (size_t k = 0; k < burst.size(); ++k) {
        const NetReply& reply = (*replies)[k];
        if (!reply.status.ok() || reply.epoch != view->epoch() ||
            reply.group != view->GroupOf(static_cast<RecordId>(burst[k].id))) {
          ++wrong;
        }
      }
    }
  }
  if (wrong > 0) {
    sink->Mismatch(std::to_string(wrong) + " wire answers differ from View()");
  }
  const PipelineResult reference =
      SurvivorReference(served.pipeline->records(), served.pipeline->alive(),
                        config, matcher, entity_of_id, reference_s, f1);
  CheckSame(served.pipeline->Snapshot().ValueOrDie(), reference,
            "served snapshot vs reference", sink);
}

void RunServeWorkload(const Options& options, const Scale& scale,
                      MetricSink* sink) {
  const IncrementalPipelineConfig config = PipelineConfigFor(1);
  const HeuristicIdMatcher matcher;
  const std::string checkpoint = ScratchPath(options, "serve.ckpt");
  // Declared first: the traced service and pipeline record into them.
  obs::MetricsRegistry registry;
  Tracer tracer;
  EndToEnd e2e;
  e2e.ingest_in_setup = true;

  const CpuPlan cpus = MakeCpuPlan();
  PinThread(cpus.rest);

  // Set-up, repeated; the last one, on the run's own arrival order,
  // serves. Each pre-ingest is one ingest sample; the others use the run's
  // other schedules (ScheduleSeed).
  Schedule pre;
  Served served;
  std::vector<double> ingest_rates;
  for (size_t k = 0; k < scale.serve_setups; ++k) {
    served.front = Frontend{};  // the server goes down before its service
    const uint64_t seed = ScheduleSeed(options.seed, scale.serve_setups - 1 - k);
    served = SetUpServe(scale, seed, config, matcher, checkpoint, cpus,
                        &pre, &e2e.setup_s, &ingest_rates, &e2e.setup_host,
                        sink);
  }
  const PipelineResult ingested = served.pipeline->Snapshot().ValueOrDie();

  // One update schedule for the whole run: a traced run plays it twice,
  // once untraced and once traced on a pipeline restored from the set-up
  // checkpoint, and both must end in the same state.
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<EntityId> entity_of_id = pre.entity_of_id;
  const std::vector<Op> rounds = MakeUpdateRounds(
      pre.arrival,
      static_cast<size_t>(std::floor(phase_s / scale.serve_period_s)),
      scale.serve_update_share, options.seed, &entity_of_id);

  Drills drills;
  drills.path = checkpoint;
  drills.expected = &ingested;
  const ServePhase untraced =
      RunServePhase(&served, rounds, matcher, scale, phase_s, options.seed,
                    cpus, drills, nullptr, &e2e.host, sink);
  PerLayer layers;
  if (!options.trace) {
    CheckServed(served, config, matcher, entity_of_id, &layers.reference_run_s,
                &e2e.group_f1, sink);
    // The update rounds that had reads beside them: churn is the median
    // round's records per second of its busy time.
    const RunTotals& w = untraced.writes;
    const size_t measured = std::min(untraced.read_rounds, w.busy_s.size());
    std::vector<double> round_rates;
    for (size_t r = 0; r < measured; ++r) {
      round_rates.push_back(static_cast<double>(rounds[r].size()) / w.busy_s[r]);
      e2e.freshness_ms.push_back(w.freshness_ms[r]);
    }
    e2e.churn_records_per_s = round_rates.empty() ? 0.0 : Median(round_rates);
    e2e.ladder = untraced.ladder;
    e2e.echo_p50_us = untraced.echo_p50_us;
    e2e.recovery_s = untraced.recovery_s;
    e2e.ingest_records_per_s = Median(ingest_rates);
    EmitEndToEnd(e2e, sink);
  } else {
    const PipelineResult untraced_final = served.pipeline->Snapshot().ValueOrDie();
    served.front = Frontend{};
    Served traced;
    traced.service = std::make_unique<MatchService>(&registry);
    Result<std::unique_ptr<IncrementalPipeline>> restored =
        LoadCheckpoint(checkpoint, matcher, 1);
    sink->Attempt();
    if (!restored.ok()) {
      sink->Fail("restore for the traced phase: " + restored.status().message());
      EmitPerLayer(layers, 1, sink);
      return;
    }
    traced.pipeline = std::move(*restored);
    traced.pipeline->set_metrics(&registry);
    {
      SpanScope span(&tracer, "serve.checkpoint_save", 0);
      const Status saved = SaveCheckpoint(*traced.pipeline, checkpoint);
      sink->Attempt();
      if (!saved.ok()) sink->Fail("checkpoint save: " + saved.message());
    }
    layers.checkpoint_bytes = PathBytes(checkpoint);
    layers.live_records = traced.pipeline->num_live();
    traced.service->Publish(traced.pipeline->Snapshot().ValueOrDie(),
                            traced.pipeline->records().size());
    traced.front = StartFrontend(traced.service.get(), &registry, cpus, sink);

    const TimingMatcher timing(&matcher, &tracer);
    const double cpu_start = ProcessCpuSeconds();
    const int64_t begin = NowNs();
    drills.registry = &registry;
    const ServePhase phase = RunServePhase(&traced, rounds, timing, scale, phase_s,
                                           options.seed, cpus, drills, &tracer,
                                           &e2e.host, sink);
    const double cpu_s = ProcessCpuSeconds() - cpu_start;
    layers.cpu_s = cpu_s;
    layers.cpu_util = cpu_s / NsToSeconds(NowNs() - begin);
    CheckSame(traced.pipeline->Snapshot().ValueOrDie(), untraced_final,
              "traced vs untraced", sink);
    CheckExact(phase.writes, untraced.writes, "traced vs untraced", sink);
    CheckServed(traced, config, matcher, entity_of_id, &layers.reference_run_s,
                &e2e.group_f1, sink);

    layers.overhead_fraction =
        Median(phase.writes.busy_s) / Median(untraced.writes.busy_s) - 1.0;
    layers.matching_pairs = timing.pairs();
    layers.scoring_s = phase.writes.sum.scoring_seconds;
    layers.cleanup_s = phase.writes.sum.cleanup_seconds;
    FillFromTotals(phase.writes, &layers);
    FillFromSpans(tracer, 1.0, &layers);
    layers.checkpoint_load_s /= static_cast<double>(phase.recovery_s.size() + 1);
    layers.stream_self_s =
        layers.stream_mutate_s - layers.scoring_s - layers.cleanup_s;
    std::vector<const Op*> ops;
    for (const Op& op : pre.ingest) ops.push_back(&op);
    for (const Op& op : rounds) ops.push_back(&op);
    const BlockingCost blocking =
        ReplayBlocking(ops, config, pre.ingest.size());
    layers.blocking_add_s = blocking.add_s;
    layers.blocking_remove_s = blocking.remove_s;
    layers.blocking_delta_pairs = blocking.delta_pairs;
    FillFromLadder(phase.ladder, traced.front.server.get(), &layers);
    FillFromScrape(registry, 1.0, &layers);
    EmitPerLayer(layers, 1, sink);
    WriteSpans(tracer, options);
  }
  std::error_code ec;
  fs::remove(checkpoint, ec);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == kStreamWorkload || name == kShardWorkload ||
         name == kServeWorkload;
}

void RunWorkload(const Options& options, MetricSink* sink) {
  const Scale scale = MakeScale(options.scale);
  if (options.workload == kStreamWorkload) {
    RunStreamWorkload<IncrementalPipeline>(options, scale, sink);
  } else if (options.workload == kShardWorkload) {
    RunStreamWorkload<ShardedPipeline>(options, scale, sink);
  } else {
    RunServeWorkload(options, scale, sink);
  }
}

}  // namespace e2e
}  // namespace gralmatch
