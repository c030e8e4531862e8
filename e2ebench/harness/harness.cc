#include "harness/harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/rng.h"
#include "datagen/financial_gen.h"
#include "eval/metrics.h"
#include "harness/trace.h"
#include "obs/metrics.h"

namespace gralmatch {
namespace e2e {

namespace {

/// Draws `count` distinct entries of `live` (swap-removing them), in draw
/// order.
std::vector<RecordId> Draw(std::vector<RecordId>* live, size_t count,
                           Rng* rng) {
  std::vector<RecordId> out;
  for (size_t k = 0; k < count && !live->empty(); ++k) {
    const size_t j = static_cast<size_t>(rng->Uniform(live->size()));
    out.push_back((*live)[j]);
    (*live)[j] = live->back();
    live->pop_back();
  }
  return out;
}

size_t Share(size_t live, double fraction) {
  if (fraction <= 0.0) return 0;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(fraction * static_cast<double>(live))));
}

/// Appends an Update op revising `victims` (drawn from the pre-round live
/// set); the replacements get the next ids and become live after the round.
Op UpdateOp(const std::vector<RecordId>& victims, std::vector<Record>* payload,
            std::vector<EntityId>* entity, std::vector<RecordId>* born) {
  Op op;
  op.kind = Op::Kind::kUpdate;
  for (RecordId id : victims) {
    RecordUpdate update;
    update.id = id;
    update.record = Revised((*payload)[static_cast<size_t>(id)]);
    born->push_back(static_cast<RecordId>(payload->size()));
    payload->push_back(update.record);
    entity->push_back((*entity)[static_cast<size_t>(id)]);
    op.updates.push_back(std::move(update));
  }
  return op;
}

}  // namespace

Fixture MakeFixture(FixtureKind kind, size_t num_groups) {
  SyntheticConfig config;
  config.seed = kCorpusSeed;
  config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();
  const Dataset& data =
      kind == FixtureKind::kCompanies ? bench.companies : bench.securities;
  Fixture fixture;
  for (size_t i = 0; i < data.records.size(); ++i) {
    fixture.records.push_back(data.records.at(static_cast<RecordId>(i)));
    fixture.entity.push_back(data.truth.entity_of(static_cast<RecordId>(i)));
  }
  return fixture;
}

Record Revised(const Record& record) {
  Record out = record;
  out.Set("_corrected", "1");
  return out;
}

Schedule MakeSchedule(const Fixture& fixture, size_t num_batches,
                      size_t rounds, double remove_fraction,
                      double update_fraction, uint64_t seed) {
  Schedule schedule;
  const size_t n = fixture.records.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(seed);
  rng.Shuffle(&order);
  for (size_t i : order) {
    schedule.arrival.push_back(fixture.records[i]);
    schedule.entity_of_id.push_back(fixture.entity[i]);
  }
  const size_t batch = (n + num_batches - 1) / std::max<size_t>(1, num_batches);
  for (size_t offset = 0; offset < n; offset += batch) {
    Op op;
    op.kind = Op::Kind::kIngest;
    op.adds.assign(schedule.arrival.begin() + static_cast<long>(offset),
                   schedule.arrival.begin() +
                       static_cast<long>(std::min(n, offset + batch)));
    schedule.ingest.push_back(std::move(op));
  }
  schedule.records_ingested = n;

  std::vector<Record> payload = schedule.arrival;
  std::vector<RecordId> live(n);
  std::iota(live.begin(), live.end(), RecordId{0});
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<RecordId> doomed =
        Draw(&live, Share(live.size(), remove_fraction), &rng);
    if (!doomed.empty()) {
      Op op;
      op.kind = Op::Kind::kRemove;
      op.removals = std::move(doomed);
      std::sort(op.removals.begin(), op.removals.end());
      schedule.records_churned += op.removals.size();
      schedule.churn.push_back(std::move(op));
    }
    const std::vector<RecordId> victims =
        Draw(&live, Share(live.size(), update_fraction), &rng);
    if (!victims.empty()) {
      std::vector<RecordId> born;
      schedule.churn.push_back(
          UpdateOp(victims, &payload, &schedule.entity_of_id, &born));
      schedule.records_churned += victims.size();
      live.insert(live.end(), born.begin(), born.end());
    }
  }
  return schedule;
}

std::vector<Op> MakeUpdateRounds(const std::vector<Record>& payloads,
                                 size_t rounds, double update_fraction,
                                 uint64_t seed,
                                 std::vector<EntityId>* entity_of_id) {
  std::vector<Record> payload = payloads;
  std::vector<RecordId> live(payload.size());
  std::iota(live.begin(), live.end(), RecordId{0});
  Rng rng(seed ^ 0x0DDBA11ULL);
  std::vector<Op> ops;
  for (size_t round = 0; round < rounds; ++round) {
    const std::vector<RecordId> victims =
        Draw(&live, Share(live.size(), update_fraction), &rng);
    std::vector<RecordId> born;
    ops.push_back(UpdateOp(victims, &payload, entity_of_id, &born));
    live.insert(live.end(), born.begin(), born.end());
  }
  return ops;
}

PipelineResult SurvivorReference(const RecordTable& records,
                                 const std::vector<char>& alive,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher,
                                 const std::vector<EntityId>& entity_of_id,
                                 double* seconds, double* f1) {
  Dataset survivors;
  std::vector<NodeId> original;  // compact id -> original id
  for (size_t i = 0; i < records.size(); ++i) {
    if (!alive[i]) continue;
    const RecordId compact = survivors.records.Add(records.at(static_cast<RecordId>(i)));
    survivors.truth.Assign(compact, entity_of_id[i]);
    original.push_back(static_cast<NodeId>(i));
  }
  const int64_t start = NowNs();
  CandidateSet candidates;
  if (config.use_id_blocker) {
    IdOverlapBlocker::Options opts;
    opts.num_threads = config.pipeline.num_threads;
    IdOverlapBlocker(opts).AddCandidates(survivors, &candidates);
  }
  if (config.use_token_blocker) {
    TokenOverlapBlocker::Options opts = config.token;
    opts.num_threads = config.pipeline.num_threads;
    TokenOverlapBlocker(opts).AddCandidates(survivors, &candidates);
  }
  PipelineConfig pipeline = config.pipeline;
  pipeline.metrics = nullptr;
  PipelineResult ref = EntityGroupPipeline(pipeline).Run(
      survivors, candidates.ToVector(), matcher);
  *seconds = NsToSeconds(NowNs() - start);
  *f1 = GroupPrf(ref.groups, survivors.truth).F1();

  for (RecordPair& pair : ref.predicted_pairs) {
    pair = RecordPair(static_cast<RecordId>(original[static_cast<size_t>(pair.a)]),
                      static_cast<RecordId>(original[static_cast<size_t>(pair.b)]));
  }
  for (auto* sets : {&ref.pre_cleanup_components, &ref.groups}) {
    for (std::vector<NodeId>& nodes : *sets) {
      for (NodeId& u : nodes) u = original[static_cast<size_t>(u)];
    }
  }
  return ref;
}

std::string Diff(const PipelineResult& actual, const PipelineResult& expected) {
  if (actual.predicted_pairs != expected.predicted_pairs) {
    return "predicted pairs differ (" +
           std::to_string(actual.predicted_pairs.size()) + " vs " +
           std::to_string(expected.predicted_pairs.size()) + ")";
  }
  if (actual.pre_cleanup_components != expected.pre_cleanup_components) {
    return "pre-cleanup components differ";
  }
  if (actual.groups != expected.groups) {
    return "groups differ (" + std::to_string(actual.groups.size()) + " vs " +
           std::to_string(expected.groups.size()) + ")";
  }
  const CleanupStats& a = actual.cleanup_stats;
  const CleanupStats& e = expected.cleanup_stats;
  if (a.pre_cleanup_edges_removed != e.pre_cleanup_edges_removed ||
      a.min_cut_calls != e.min_cut_calls ||
      a.min_cut_edges_removed != e.min_cut_edges_removed ||
      a.betweenness_calls != e.betweenness_calls ||
      a.betweenness_edges_removed != e.betweenness_edges_removed) {
    return "cleanup counters differ";
  }
  return "";
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<int> ThreadCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);  // best effort
}

double HostSpeed::Sample() {
  // Fixed inputs: 20k tokens, 40k postings. Generated once per process.
  static const std::vector<std::string> tokens = [] {
    Rng rng(7);
    std::vector<std::string> out;
    for (size_t i = 0; i < 20000; ++i) {
      std::string token(6 + rng.Uniform(9), 'a');
      for (char& c : token) c = static_cast<char>('a' + rng.Uniform(26));
      out.push_back(std::move(token));
    }
    return out;
  }();
  const int64_t start = NowNs();
  std::unordered_map<std::string, std::vector<uint32_t>> index;
  uint64_t x = 88172645463325252ULL;  // xorshift64
  for (uint32_t posting = 0; posting < 40000; ++posting) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    index[tokens[x % tokens.size()]].push_back(posting);
  }
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& [token, postings] : index) {
    for (size_t k = 0; k + 1 < postings.size(); ++k) {
      pairs.emplace_back(postings[k], postings[k + 1]);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  const double seconds = NsToSeconds(NowNs() - start);
  total_s_ += seconds;
  ++samples_;
  return seconds;
}

double HostSpeed::Sample(size_t n) {
  double seconds = 0.0;
  for (size_t k = 0; k < n; ++k) seconds += Sample();
  return seconds;
}

double HostSpeed::Factor() const {
  if (samples_ == 0) return 1.0;
  return total_s_ / static_cast<double>(samples_) / kReferenceSeconds;
}

namespace {
/// CPU time IdleSpinners threads have spent, in nanoseconds.
std::atomic<int64_t> spinner_cpu_ns{0};
}  // namespace

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      PinThread({cpu});
      sched_param param{};
      (void)sched_setscheduler(0, SCHED_IDLE, &param);  // best effort
      while (!stop_.load(std::memory_order_relaxed)) {
      }
      timespec used{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &used);
      spinner_cpu_ns += static_cast<int64_t>(used.tv_sec) * 1000000000 + used.tv_nsec;
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime) -
         NsToSeconds(spinner_cpu_ns.load());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void MetricSink::Fail(const std::string& what, uint64_t n) {
  std::fprintf(stderr, "e2ebench: %llu failed: %s\n",
               static_cast<unsigned long long>(n), what.c_str());
  failed_ += n;
}

void MetricSink::Mismatch(const std::string& what) {
  std::fprintf(stderr, "e2ebench: MISMATCH: %s\n", what.c_str());
  ++failed_;
  ++mismatches_;
}

std::string MetricSink::ResultLine() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(1, attempted_)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double value = std::isfinite(e.value) ? e.value : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace e2e
}  // namespace gralmatch
