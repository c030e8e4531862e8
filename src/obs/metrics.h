#ifndef GRALMATCH_OBS_METRICS_H_
#define GRALMATCH_OBS_METRICS_H_

/// \file metrics.h
/// Process-local observability: named counters, gauges and fixed-bucket
/// latency histograms behind a `MetricsRegistry`, plus the `TraceScope`
/// RAII span that feeds phase durations into a histogram.
///
/// Design rules (docs/observability.md):
///  - The hot path is lock-free: `Counter::Increment`, `Gauge::Set` and
///    `Histogram::Observe` are relaxed atomic operations. The registry
///    mutex guards only registration (name → instrument lookup) and
///    scraping, both of which happen off the request path.
///  - Instrument pointers returned by the registry are stable for the
///    registry's lifetime, so callers resolve names once (see the
///    `PipelineMetrics`/`ServeMetrics`/`NetMetrics` bundles) and keep raw
///    pointers.
///  - Instrumentation is **inert**: nothing in this module is reachable
///    from checkpoint bytes, snapshots, `Fingerprint()`s or any
///    `operator==`. Pipelines take an optional `MetricsRegistry*` that
///    defaults to `nullptr`, every recording site is null-guarded, and
///    `tests/obs_test.cc` pins an instrumented run bitwise-identical to an
///    uninstrumented one. `tools/check_invariants.py` (`obs-inertness`)
///    keeps obs includes out of serialization code.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"

namespace gralmatch {
namespace obs {

/// Upper bounds (seconds, `le` convention) of the shared latency-histogram
/// bucket layout: a 1–2–5 ladder from 1µs to 100s. One extra overflow
/// bucket catches anything slower. Every histogram in the process uses
/// this layout, so dumps are directly comparable across phases.
inline constexpr std::array<double, 25> kLatencyBucketBounds = {
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1,
    1.0,  2.0,  5.0,  1e1,  2e1,  5e1,  1e2};

/// Total bucket count including the overflow bucket.
inline constexpr size_t kNumLatencyBuckets = kLatencyBucketBounds.size() + 1;

/// \brief Monotonically increasing event count (relaxed atomic).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (relaxed atomic).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket latency histogram over kLatencyBucketBounds.
///
/// Observations land in the first bucket whose upper bound is >= the
/// value (the Prometheus `le` convention); values past the last bound go
/// to the overflow bucket. Count, per-bucket tallies and the running sum
/// are all relaxed atomics, so concurrent Observe/scrape is race-free
/// without locks. The sum is a double carried as a bit pattern in a
/// uint64 (C++17 has no std::atomic<double>::fetch_add) updated by a CAS
/// loop.
class Histogram {
 public:
  /// Record one observation, in seconds. Negative values clamp to zero.
  void Observe(double seconds);

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  double SumSeconds() const;

  /// Quantile estimate from the bucket tallies: the upper bound of the
  /// bucket holding the ceil(q * count)-th smallest observation (the
  /// overflow bucket reports the last finite bound). Returns 0 for an
  /// empty histogram. q must be in (0, 1].
  double Quantile(double q) const;

  /// Non-cumulative per-bucket counts; index kNumLatencyBuckets - 1 is
  /// the overflow bucket.
  std::array<uint64_t, kNumLatencyBuckets> BucketCounts() const;

 private:
  std::array<std::atomic<uint64_t>, kNumLatencyBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // bit pattern of a double
};

/// One scraped counter / gauge / histogram, in registration-name order.
struct CounterSample {
  std::string name;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  int64_t value = 0;
};
struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  double sum_seconds = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::array<uint64_t, kNumLatencyBuckets> bucket_counts{};
};

/// A consistent-order scrape of every registered instrument.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// \brief Name → instrument registry with stable instrument pointers.
///
/// GetCounter/GetGauge/GetHistogram register on first use and return the
/// same pointer for the same name thereafter; a name may only be used for
/// one instrument kind. The registry owns the instruments and never
/// removes one, so returned pointers stay valid for the registry's
/// lifetime and may be cached and incremented without the lock.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Scrape every instrument, sorted by name within each kind.
  MetricsSnapshot Snapshot() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> instrument;
  };

  /// Sorted-insert lookup keeping each vector name-ordered.
  template <typename T>
  static T* GetOrCreate(std::vector<Named<T>>* instruments,
                        const std::string& name);

  mutable Mutex mu_;
  std::vector<Named<Counter>> counters_ GUARDED_BY(mu_);
  std::vector<Named<Gauge>> gauges_ GUARDED_BY(mu_);
  std::vector<Named<Histogram>> histograms_ GUARDED_BY(mu_);
};

/// \brief RAII phase span: times its scope on a Stopwatch and records the
/// elapsed seconds into `histogram` on destruction. A null histogram makes
/// the scope a no-op, so uninstrumented runs pay one branch per phase.
class TraceScope {
 public:
  explicit TraceScope(Histogram* histogram) : histogram_(histogram) {}
  ~TraceScope() {
    if (histogram_ != nullptr) histogram_->Observe(watch_.ElapsedSeconds());
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Histogram* const histogram_;
  Stopwatch watch_;
};

/// Exact nearest-rank sample quantile: the ceil(q * n)-th smallest of
/// `samples` (q in (0, 1]; returns 0 on an empty input). This is the one
/// percentile definition shared by the bench harness and the tests —
/// unlike Histogram::Quantile it is exact, not bucket-rounded.
double SampleQuantile(std::vector<double> samples, double q);

/// Prometheus-style text exposition: `# TYPE` comments, `_total` counter
/// lines, cumulative `_bucket{le="..."}` lines plus `_sum`/`_count` and
/// `{quantile="0.5|0.95|0.99"}` lines per histogram. Deterministic
/// ordering (registration-name order) and formatting.
std::string DumpMetricsText(const MetricsRegistry& registry);

/// The same scrape as one JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,p50,...}}}.
std::string DumpMetricsJson(const MetricsRegistry& registry);

/// \brief Pipeline-phase instruments (core/stream/shard). `Create`
/// resolves every name once; all members stay null when `registry` is
/// null, which is what makes `PipelineConfig::metrics = nullptr` free.
struct PipelineMetrics {
  static PipelineMetrics Create(MetricsRegistry* registry);

  Histogram* mutation_seconds = nullptr;   ///< one whole Ingest/Remove/Update
  Histogram* blocking_seconds = nullptr;   ///< incremental index delta apply
  Histogram* scoring_seconds = nullptr;    ///< batched matcher inference
  Histogram* cleanup_seconds = nullptr;    ///< dirty-component graph cleanup
  Histogram* snapshot_seconds = nullptr;   ///< IncrementalPipeline::Snapshot
  Histogram* route_seconds = nullptr;      ///< shard routing of a mutation
  Counter* mutations = nullptr;            ///< ingest/remove/update batches
  Counter* records_added = nullptr;
  Counter* records_removed = nullptr;
  Counter* pairs_scored = nullptr;
  Counter* cache_hits = nullptr;
  Counter* cache_evictions = nullptr;
  Counter* components_rebuilt = nullptr;
  Counter* components_reused = nullptr;
  Counter* cascade_gate_resolved = nullptr;
  Counter* cascade_escalated = nullptr;
};

/// \brief Serving-layer instruments (MatchService + checkpoints).
struct ServeMetrics {
  static ServeMetrics Create(MetricsRegistry* registry);

  Histogram* publish_seconds = nullptr;
  Histogram* checkpoint_save_seconds = nullptr;
  Histogram* checkpoint_load_seconds = nullptr;
  Counter* epochs_published = nullptr;
  Gauge* current_epoch = nullptr;
  Gauge* serving_records = nullptr;
};

/// \brief RPC-layer instruments (NetServer), including the four
/// load-shedding classes of the admission-control design.
struct NetMetrics {
  static NetMetrics Create(MetricsRegistry* registry);

  Histogram* rpc_decode_seconds = nullptr;
  Histogram* rpc_dispatch_seconds = nullptr;
  Histogram* rpc_encode_seconds = nullptr;
  Counter* requests_served = nullptr;
  Counter* shed_connection_cap = nullptr;  ///< connections past max_connections
  Counter* shed_overload = nullptr;        ///< requests past max_in_flight
  Counter* shed_frame_size = nullptr;      ///< bodies past max_frame_size
  Counter* shed_framing_fatal = nullptr;   ///< bad magic/version/checksum
};

}  // namespace obs
}  // namespace gralmatch

#endif  // GRALMATCH_OBS_METRICS_H_
