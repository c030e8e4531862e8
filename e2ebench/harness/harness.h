#ifndef GRALMATCH_E2EBENCH_HARNESS_H_
#define GRALMATCH_E2EBENCH_HARNESS_H_

/// \file harness.h
/// Shared pieces of the end-to-end benchmark: seeded fixtures and mutation
/// schedules, the from-scratch survivor reference the correctness checks
/// compare against, and the metric sink that prints the result line.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/record.h"
#include "stream/incremental_pipeline.h"

namespace gralmatch {
namespace e2e {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the committed benchmark) or "tiny" (the self-test).
  std::string scale = "full";
  /// Scratch directory for checkpoints and span files.
  std::string out_dir = ".";
};

/// A corpus of records with the ground-truth entity of each.
struct Fixture {
  std::vector<Record> records;
  std::vector<EntityId> entity;
};

enum class FixtureKind { kCompanies, kSecurities };

/// Seed of every workload's corpus. The corpus is fixed so that the run
/// seed varies the traffic — arrival order, which records are corrected,
/// which keys are read — while run-to-run differences in the figures stay
/// differences of the traffic, not of the data set.
constexpr uint64_t kCorpusSeed = 21;

/// One side of the synthetic financial benchmark (datagen) at `num_groups`
/// companies, in generation order.
Fixture MakeFixture(FixtureKind kind, size_t num_groups);

/// One pipeline mutation, with concrete ids: the schedule simulates id
/// assignment (contiguous, never recycled), so it replays identically on
/// any pipeline.
struct Op {
  enum class Kind { kIngest, kRemove, kUpdate };
  Kind kind = Kind::kIngest;
  std::vector<Record> adds;
  std::vector<RecordId> removals;
  std::vector<RecordUpdate> updates;

  size_t size() const { return adds.size() + removals.size() + updates.size(); }
};

/// Ingest batches, then correction rounds, plus the ground truth of every
/// id the schedule assigns (an update keeps its record's entity).
struct Schedule {
  /// The fixture's records in their seeded arrival order (ids 0..n-1).
  std::vector<Record> arrival;
  std::vector<Op> ingest;
  std::vector<Op> churn;
  std::vector<EntityId> entity_of_id;
  size_t records_ingested = 0;
  size_t records_churned = 0;
};

/// The fixture shuffled into a seeded arrival order, in `num_batches`
/// equal ingest batches, then `rounds` correction rounds, each a Remove of
/// `remove_fraction` of the live records followed by an Update of
/// `update_fraction` of them (payload re-published, entity unchanged).
/// Either fraction may be 0.
Schedule MakeSchedule(const Fixture& fixture, size_t num_batches,
                      size_t rounds, double remove_fraction,
                      double update_fraction, uint64_t seed);

/// Update-only rounds against ingested records `payloads` (ids
/// 0..n-1, all live, entities `entity_of_id`); appends the entities of the
/// ids the rounds assign.
std::vector<Op> MakeUpdateRounds(const std::vector<Record>& payloads,
                                 size_t rounds, double update_fraction,
                                 uint64_t seed,
                                 std::vector<EntityId>* entity_of_id);

/// Corrected payload of a record: the vendor re-publishes the record's own
/// payload, marked by a metadata attribute that matching and blocking
/// ignore, so its ground-truth entity and blocking keys are unchanged.
Record Revised(const Record& record);

/// From-scratch EntityGroupPipeline::Run on the live records (blockers and
/// config as the incremental pipeline maintains them), remapped back to
/// the original sparse ids through the monotone survivor list. Its wall
/// time goes to `*seconds`, and the GroupPrf F1 of its groups against
/// `entity_of_id` to `*f1`.
PipelineResult SurvivorReference(const RecordTable& records,
                                 const std::vector<char>& alive,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher,
                                 const std::vector<EntityId>& entity_of_id,
                                 double* seconds, double* f1);

/// Empty when the two results agree on predicted pairs, pre-cleanup
/// components, groups and every cleanup counter; else what differs.
std::string Diff(const PipelineResult& actual, const PipelineResult& expected);

/// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

/// CPUs the calling thread may run on, and a best-effort pin of it to
/// `cpus` (no-op when empty). Threads inherit their creator's CPUs.
std::vector<int> ThreadCpus();
void PinThread(const std::vector<int>& cpus);

/// \brief How fast the host runs, measured next to the workload.
///
/// Shared VMs run the same code 30-50 % slower for minutes at a time while
/// neighbours contend for caches and memory, and the phases slow every
/// figure of a run together. A run therefore interleaves a fixed
/// calibration kernel with its work (after every mutation and set-up, and
/// between serve's ladder cycles) and scales its timings by Factor(),
/// reporting them in reference-host units. The kernel builds a token index, derives
/// candidate pairs and sorts them, like blocking does; it is benchmark
/// code that no change to the library can alter. Not thread-safe: each
/// thread samples into its own instance, merged afterwards.
class HostSpeed {
 public:
  /// Kernel wall time on the reference host (a quiet 4-core VM).
  static constexpr double kReferenceSeconds = 0.011;

  /// Runs the kernel once; returns its wall time, also recorded.
  double Sample();
  /// Runs the kernel `n` times; returns their total wall time.
  double Sample(size_t n);
  void Merge(const HostSpeed& other) {
    total_s_ += other.total_s_;
    samples_ += other.samples_;
  }
  /// Mean kernel time over the reference time: above 1 when the host ran
  /// slower than the reference. 1 before any sample.
  double Factor() const;
  /// Total wall time of the samples so far.
  double seconds() const { return total_s_; }

 private:
  double total_s_ = 0.0;
  size_t samples_ = 0;
};

/// \brief Keeps CPUs from going idle while it lives: one thread pinned to
/// each CPU spins at SCHED_IDLE priority, so any other thread there
/// preempts it at once. An idle vCPU of a VM halts, and waking it again
/// takes the host scheduler from microseconds to milliseconds, depending
/// on the neighbours; with the CPUs kept busy, read latency measures the
/// program's request path instead.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Process CPU seconds (user + system), less what IdleSpinners spent, and
/// peak resident set size.
double ProcessCpuSeconds();
double PeakRssMb();

/// \brief Metrics printed in the result line, in insertion order.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Counts operations attempted across the run: mutations, queries,
  /// restores and correctness checks.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// `n` attempted operations failed (an error, a shed request).
  void Fail(const std::string& what, uint64_t n = 1);
  /// A correctness check failed: counts as one failed operation and makes
  /// the run incorrect.
  void Mismatch(const std::string& what);

  /// Folds in the counts of a sink another thread recorded into.
  void Merge(const MetricSink& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    mismatches_ += other.mismatches_;
  }

  bool correct() const { return mismatches_ == 0; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string ResultLine() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

}  // namespace e2e
}  // namespace gralmatch

#endif  // GRALMATCH_E2EBENCH_HARNESS_H_
