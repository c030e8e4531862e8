// Schedule-equivalence differential suite for full CRUD streaming: after ANY
// interleaved add/update/delete schedule, at any thread count and any shard
// count, IncrementalPipeline::Snapshot() and ShardedPipeline::Snapshot()
// must be identical — predicted pairs, pre-cleanup components, groups, and
// all cleanup counters — to a from-scratch EntityGroupPipeline::Run on the
// FINAL SURVIVING record set (survivors keep their original sparse ids; the
// reference's compacted ids are remapped through the monotone survivor
// list). Schedules cover: targeted removals, updates that change blocking
// keys, delete-then-readd identity, delete-everything-then-rebuild, and
// seeded fuzz schedules (>= 200 across both fixtures x 1/2/8 threads x
// S in {1,2,4}). A counting matcher proves deletion never rescores
// unaffected pairs (every matcher call across a whole CRUD schedule is a
// distinct pair), and checkpoint round-trips carry tombstones exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "serve/checkpoint.h"
#include "serve/framing.h"
#include "serve/match_service.h"
#include "serve/sharded_checkpoint.h"
#include "shard/sharded_pipeline.h"
#include "stream/incremental_pipeline.h"
#include "text/normalize.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// Matchers (same idiom as stream_test.cc)
// ---------------------------------------------------------------------------

/// Deterministic text matcher (token Jaccard of AllText, scaled): avoids
/// transcendental math so scores are bit-identical everywhere.
class JaccardMatcher : public PairwiseMatcher {
 public:
  explicit JaccardMatcher(double scale = 1.0) : scale_(scale) {}

  std::string name() const override { return "jaccard"; }
  std::string Fingerprint() const override {
    return "jaccard#" + std::to_string(scale_);
  }
  double MatchProbability(const Record& a, const Record& b) const override {
    auto ta = Tokens(a);
    auto tb = Tokens(b);
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
    double score = scale_ * static_cast<double>(common) /
                   static_cast<double>(total == 0 ? 1 : total);
    return score > 1.0 ? 1.0 : score;
  }

 private:
  static std::vector<std::string> Tokens(const Record& rec) {
    auto toks = TokenizeContentWords(rec.AllText());
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    return toks;
  }

  double scale_;
};

/// Counts calls and the distinct pairs seen (via the "_uid" metadata the
/// fixtures stamp on every record). Thread-safe, as the pipeline requires.
class CountingMatcher : public PairwiseMatcher {
 public:
  explicit CountingMatcher(const PairwiseMatcher* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }
  double MatchProbability(const Record& a, const Record& b) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_;
      int ua = std::stoi(std::string(a.Get("_uid")));
      int ub = std::stoi(std::string(b.Get("_uid")));
      seen_.insert({std::min(ua, ub), std::max(ua, ub)});
    }
    return inner_->MatchProbability(a, b);
  }

  size_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  size_t distinct_pairs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.size();
  }

 private:
  const PairwiseMatcher* inner_;
  mutable std::mutex mu_;
  mutable size_t calls_ = 0;
  mutable std::set<std::pair<int, int>> seen_;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Records of `table` as a vector, each stamped with a unique "_uid"
/// metadata attribute (excluded from matching inputs by convention).
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

/// From-scratch reference: the same blockers and pipeline configuration the
/// incremental pipeline maintains, run on the full record set.
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

/// From-scratch reference on the SURVIVORS of a CRUD history: rebuilds a
/// compacted table of the live records, runs the batch pipeline on it, and
/// remaps the result back to the original sparse ids. The compact->original
/// map is monotone (survivors keep their relative order), so every ordering
/// the batch pipeline guarantees survives the remap unchanged.
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
  EXPECT_EQ(actual.cleanup_stats.pre_cleanup_edges_removed,
            reference.cleanup_stats.pre_cleanup_edges_removed)
      << context;
  EXPECT_EQ(actual.cleanup_stats.min_cut_calls,
            reference.cleanup_stats.min_cut_calls)
      << context;
  EXPECT_EQ(actual.cleanup_stats.min_cut_edges_removed,
            reference.cleanup_stats.min_cut_edges_removed)
      << context;
  EXPECT_EQ(actual.cleanup_stats.betweenness_calls,
            reference.cleanup_stats.betweenness_calls)
      << context;
  EXPECT_EQ(actual.cleanup_stats.betweenness_edges_removed,
            reference.cleanup_stats.betweenness_edges_removed)
      << context;
}

/// Every count of two IngestReports (the wall-clock seconds excepted).
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

IncrementalPipelineConfig CrudConfig(size_t num_threads,
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

// ---------------------------------------------------------------------------
// CRUD schedules
// ---------------------------------------------------------------------------

/// One mutation round. Ids are concrete: the schedule generator simulates
/// id assignment (contiguous, never recycled), so one schedule replays
/// identically on an IncrementalPipeline and on a ShardedPipeline at any
/// shard count.
struct CrudOp {
  std::vector<Record> adds;
  std::vector<RecordId> removals;
  std::vector<RecordUpdate> updates;
};

struct CrudSchedule {
  std::vector<Record> initial;
  std::vector<CrudOp> ops;
  /// Liveness after the whole schedule (parallel to the final id space);
  /// the executor asserts the pipeline agrees.
  std::vector<char> final_alive;
};

/// Draw a random schedule over `pool`: an initial ingest of roughly 60% of
/// the pool, then `num_ops` rounds mixing adds (from the pool's reserve),
/// removals of random live ids, and updates of random live ids — half the
/// update payloads come from the reserve (completely different blocking
/// keys), half append a token to the current payload's name.
CrudSchedule MakeSchedule(const std::vector<Record>& pool, uint64_t seed,
                          size_t num_ops) {
  Rng rng(seed);
  CrudSchedule schedule;
  const size_t n0 = (pool.size() * 3) / 5;
  schedule.initial.assign(pool.begin(), pool.begin() + static_cast<long>(n0));
  size_t reserve_next = n0;

  // Mirror of the pipeline's state: payload per id, live id list.
  std::vector<Record> payload(schedule.initial);
  std::vector<RecordId> live;
  for (size_t i = 0; i < n0; ++i) live.push_back(static_cast<RecordId>(i));
  std::vector<char> alive(n0, 1);

  auto add_record = [&](Record rec, CrudOp* op) {
    const RecordId id = static_cast<RecordId>(payload.size());
    op->adds.push_back(rec);
    payload.push_back(std::move(rec));
    alive.push_back(1);
    live.push_back(id);
  };
  auto kill = [&](size_t live_index) {
    const RecordId id = live[live_index];
    alive[static_cast<size_t>(id)] = 0;
    live[live_index] = live.back();
    live.pop_back();
    return id;
  };

  for (size_t k = 0; k < num_ops; ++k) {
    CrudOp op;
    const size_t count = 1 + rng.Uniform(4);
    size_t kind = rng.Uniform(3);
    if (live.empty()) kind = 0;                        // nothing to mutate
    if (kind != 1 && reserve_next >= pool.size()) kind = 1;  // reserve dry
    if (kind == 0) {
      for (size_t i = 0; i < count && reserve_next < pool.size(); ++i) {
        add_record(pool[reserve_next++], &op);
      }
    } else if (kind == 1) {
      for (size_t i = 0; i < count && !live.empty(); ++i) {
        op.removals.push_back(kill(rng.Uniform(live.size())));
      }
    } else {
      // One Update batch operates on the pre-batch state: the replacement
      // records only become targetable AFTER the round, so their ids are
      // published to `live` once the whole batch is drawn.
      std::vector<RecordId> born;
      for (size_t i = 0; i < count && !live.empty(); ++i) {
        RecordUpdate update;
        update.id = kill(rng.Uniform(live.size()));
        if (rng.Uniform(2) == 0 && reserve_next < pool.size()) {
          update.record = pool[reserve_next++];
        } else {
          update.record = payload[static_cast<size_t>(update.id)];
          update.record.Set(
              "name", std::string(update.record.Get("name")) + " revised");
        }
        Record replacement = update.record;
        op.updates.push_back(std::move(update));
        born.push_back(static_cast<RecordId>(payload.size()));
        payload.push_back(std::move(replacement));
        alive.push_back(1);
      }
      live.insert(live.end(), born.begin(), born.end());
    }
    schedule.ops.push_back(std::move(op));
  }
  schedule.final_alive = std::move(alive);
  return schedule;
}

/// Replay `schedule` (its rounds may mix adds, removals and updates; a
/// round runs removals+adds first, then updates) and differential-check the
/// final snapshot against the survivor reference. Works for both pipeline
/// flavors — same API surface.
template <typename Pipeline>
void RunCrudSchedule(Pipeline* pipeline, const CrudSchedule& schedule,
                     const IncrementalPipelineConfig& config,
                     const PairwiseMatcher& matcher, const std::string& context,
                     size_t check_every = 0) {
  {
    Result<IngestReport> r = pipeline->Ingest(schedule.initial, matcher);
    ASSERT_TRUE(r.ok()) << context << ": " << r.status().message();
  }
  for (size_t k = 0; k < schedule.ops.size(); ++k) {
    const CrudOp& op = schedule.ops[k];
    if (!op.removals.empty()) {
      Result<IngestReport> r = pipeline->Remove(op.removals, matcher);
      ASSERT_TRUE(r.ok()) << context << ": " << r.status().message();
    }
    if (!op.adds.empty()) {
      Result<IngestReport> r = pipeline->Ingest(op.adds, matcher);
      ASSERT_TRUE(r.ok()) << context << ": " << r.status().message();
    }
    if (!op.updates.empty()) {
      Result<IngestReport> r = pipeline->Update(op.updates, matcher);
      ASSERT_TRUE(r.ok()) << context << ": " << r.status().message()
                          << " [op " << k << ", table size "
                          << pipeline->records().size() << "]";
    }
    if (check_every != 0 && (k + 1) % check_every == 0) {
      ExpectEquivalent(
          pipeline->Snapshot().ValueOrDie(),
          SurvivorReference(pipeline->records(), pipeline->alive(), config,
                            matcher),
          context + " after op " + std::to_string(k + 1));
    }
  }
  ASSERT_EQ(pipeline->alive(), schedule.final_alive) << context;
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     config, matcher),
                   context + " (final)");
}

std::vector<Record> FinancialPool(uint64_t seed, size_t num_groups) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();
  return WithUids(bench.securities.records);
}

std::vector<Record> WdcPool(uint64_t seed, size_t num_entities) {
  WdcConfig config;
  config.num_entities = num_entities;
  config.seed = seed;
  Dataset products = WdcProductsGenerator(config).Generate();
  return WithUids(products.records);
}

// ---------------------------------------------------------------------------
// Financial fixture
// ---------------------------------------------------------------------------

class FinancialCrud : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<Record>(FinancialPool(505, 40));
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }

  static std::vector<Record>* records_;
};

std::vector<Record>* FinancialCrud::records_ = nullptr;

TEST_F(FinancialCrud, RemoveSubsetEquivalentAtEveryThreadCount) {
  JaccardMatcher matcher;
  for (size_t threads : {1u, 2u, 8u}) {
    IncrementalPipelineConfig config = CrudConfig(threads, 0.25);
    IncrementalPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
    // Every 4th record dies, in three waves.
    std::vector<RecordId> doomed;
    for (size_t i = 0; i < records_->size(); i += 4) {
      doomed.push_back(static_cast<RecordId>(i));
    }
    const size_t third = doomed.size() / 3;
    for (size_t wave = 0; wave < 3; ++wave) {
      const size_t begin = wave * third;
      const size_t end = wave == 2 ? doomed.size() : begin + third;
      std::vector<RecordId> ids(doomed.begin() + static_cast<long>(begin),
                                doomed.begin() + static_cast<long>(end));
      IngestReport report = pipeline.Remove(ids, matcher).ValueOrDie();
      EXPECT_EQ(report.records_removed, ids.size());
      EXPECT_EQ(report.records_added, 0u);
      ExpectEquivalent(
          pipeline.Snapshot().ValueOrDie(),
          SurvivorReference(pipeline.records(), pipeline.alive(), config,
                            matcher),
          "threads=" + std::to_string(threads) + " wave=" +
              std::to_string(wave));
    }
    EXPECT_EQ(pipeline.num_dead(), doomed.size());
    EXPECT_EQ(pipeline.num_live() + pipeline.num_dead(),
              pipeline.records().size());
  }
}

TEST_F(FinancialCrud, UpdateChangingBlockingKeysEquivalent) {
  // Updates whose new payload belongs to a *different* entity group: the
  // old blocking keys (identifiers, tokens) must retract and the new ones
  // must admit, moving the record across groups exactly as a from-scratch
  // run would place it.
  JaccardMatcher matcher;
  std::vector<Record> other = FinancialPool(909, 12);
  for (size_t threads : {1u, 8u}) {
    IncrementalPipelineConfig config = CrudConfig(threads, 0.25);
    IncrementalPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
    std::vector<RecordUpdate> batch;
    for (size_t k = 0; k < 12 && k < other.size(); ++k) {
      RecordUpdate update;
      update.id = static_cast<RecordId>(k * 7 % records_->size());
      update.record = other[k];
      // Ids inside one Update must be unique.
      bool duplicate = false;
      for (const RecordUpdate& prev : batch) {
        duplicate = duplicate || prev.id == update.id;
      }
      if (!duplicate) batch.push_back(std::move(update));
    }
    IngestReport report = pipeline.Update(batch, matcher).ValueOrDie();
    EXPECT_EQ(report.records_removed, batch.size());
    EXPECT_EQ(report.records_added, batch.size());
    ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                     SurvivorReference(pipeline.records(), pipeline.alive(),
                                       config, matcher),
                     "threads=" + std::to_string(threads));
  }
}

TEST_F(FinancialCrud, DeleteThenReaddRestoresTheSameGroups) {
  // Deleting the TAIL of the table and re-adding the exact payloads in the
  // same order must restore the same entity groups (under new ids — ids are
  // never recycled, so identity is checked through the stable "_uid"
  // payload attribute). The suffix restriction matters: the re-add then
  // reproduces the original record ORDER, and the pipeline's contract is
  // equivalence to a from-scratch run on the surviving sequence — blocking
  // (top-n token lists, df caps) is a function of the sequence, not the
  // set, so scattered deletions re-added at the end are a *different*
  // sequence and legitimately may group differently (covered below by the
  // schedule-equivalence check, which is order-aware).
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());

  auto uid_groups = [&](const PipelineResult& result) {
    std::set<std::vector<std::string>> groups;
    for (const std::vector<NodeId>& group : result.groups) {
      std::vector<std::string> uids;
      for (NodeId u : group) {
        uids.push_back(std::string(
            pipeline.records().at(static_cast<RecordId>(u)).Get("_uid")));
      }
      std::sort(uids.begin(), uids.end());
      groups.insert(std::move(uids));
    }
    return groups;
  };
  const auto before = uid_groups(pipeline.Snapshot().ValueOrDie());

  // Tail fifth: delete, then re-add the identical payload sequence.
  const size_t cut = (records_->size() * 4) / 5;
  std::vector<RecordId> doomed;
  std::vector<Record> payloads;
  for (size_t i = cut; i < records_->size(); ++i) {
    doomed.push_back(static_cast<RecordId>(i));
    payloads.push_back((*records_)[i]);
  }
  ASSERT_TRUE(pipeline.Remove(doomed, matcher).ok());
  ASSERT_TRUE(pipeline.Ingest(payloads, matcher).ok());
  EXPECT_EQ(uid_groups(pipeline.Snapshot().ValueOrDie()), before);

  // Scattered deletions re-added at the end: groups may differ from
  // `before`, but the snapshot must still equal the from-scratch run on
  // the new surviving sequence.
  std::vector<RecordId> scattered;
  std::vector<Record> scattered_payloads;
  for (size_t i = 3; i < cut; i += 5) {
    scattered.push_back(static_cast<RecordId>(i));
    scattered_payloads.push_back((*records_)[i]);
  }
  ASSERT_TRUE(pipeline.Remove(scattered, matcher).ok());
  ASSERT_TRUE(pipeline.Ingest(scattered_payloads, matcher).ok());
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline.records(), pipeline.alive(),
                                     config, matcher),
                   "delete-then-readd");
}

TEST_F(FinancialCrud, DeleteEverythingThenRebuild) {
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());

  // Delete every record in two waves: the snapshot must become completely
  // empty (no pairs, no components, no groups, zeroed cleanup counters).
  std::vector<RecordId> first_half, second_half;
  for (size_t i = 0; i < records_->size(); ++i) {
    (i < records_->size() / 2 ? first_half : second_half)
        .push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline.Remove(first_half, matcher).ok());
  ASSERT_TRUE(pipeline.Remove(second_half, matcher).ok());
  PipelineResult empty = pipeline.Snapshot().ValueOrDie();
  EXPECT_TRUE(empty.predicted_pairs.empty());
  EXPECT_TRUE(empty.pre_cleanup_components.empty());
  EXPECT_TRUE(empty.groups.empty());
  EXPECT_EQ(pipeline.num_live(), 0u);

  // Rebuild from the same payloads: full equivalence again.
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline.records(), pipeline.alive(),
                                     config, matcher),
                   "rebuild after delete-everything");
}

TEST_F(FinancialCrud, DeletionNeverRescoresUnaffectedPairs) {
  // Every matcher call across a whole CRUD schedule must be a DISTINCT pair
  // of record instances: the cache is keyed by record id, ids are never
  // recycled, and eviction only drops entries whose endpoint died and can
  // never become a candidate again — so under one fingerprint no id pair is
  // ever scored twice, no matter how records are removed and re-added. The
  // "_uid" stamps below are unique per record INSTANCE (re-adds get fresh
  // uids), making distinct_pairs() exactly the id-pair count.
  JaccardMatcher inner;
  CountingMatcher counting(&inner);
  IncrementalPipelineConfig config = CrudConfig(4, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, counting).ok());
  const size_t calls_after_ingest = counting.calls();
  ASSERT_GT(calls_after_ingest, 0u);

  // A pure removal wave spends matcher calls ONLY on pairs retraction newly
  // admits (a bucket dropping back under its cap exposes never-scored
  // survivor pairs); dirty-component re-cleaning itself reuses cached
  // scores, so the call delta is exactly the report's pairs_scored and
  // every one of them is a first-time pair.
  std::vector<RecordId> doomed;
  for (size_t i = 0; i < records_->size(); i += 6) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  IngestReport report = pipeline.Remove(doomed, counting).ValueOrDie();
  EXPECT_EQ(counting.calls() - calls_after_ingest, report.pairs_scored);
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
  EXPECT_GT(report.cache_evictions, 0u);

  // Mixed follow-up (re-add the dead payloads under fresh uids + more
  // removals): still never a repeated record-instance pair.
  std::vector<Record> readd;
  for (size_t i = 0; i < records_->size(); i += 6) {
    Record rec = (*records_)[i];
    rec.Set("_uid", std::to_string(10000 + i));
    readd.push_back(std::move(rec));
  }
  ASSERT_TRUE(pipeline.Ingest(readd, counting).ok());
  std::vector<RecordId> more;
  for (size_t i = 1; i < records_->size(); i += 9) {
    more.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline.Remove(more, counting).ok());
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
}

TEST_F(FinancialCrud, ReportsIdenticalBetweenIncrementalAndSharded) {
  // The sharded pipeline's reports must equal the single pipeline's on the
  // same CRUD sequence, field for field — including the new removal and
  // eviction counters.
  JaccardMatcher matcher;
  const CrudSchedule schedule = MakeSchedule(*records_, 404, 8);
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline incremental(config);
  ShardedPipelineConfig sharded_config;
  sharded_config.base = config;
  sharded_config.num_shards = 3;
  sharded_config.router_seed = 11;
  ShardedPipeline sharded(sharded_config);

  ExpectEqualReports(incremental.Ingest(schedule.initial, matcher).ValueOrDie(),
                     sharded.Ingest(schedule.initial, matcher).ValueOrDie(),
                     "initial");
  size_t evictions_total = 0;
  for (size_t k = 0; k < schedule.ops.size(); ++k) {
    const CrudOp& op = schedule.ops[k];
    const std::string context = "op " + std::to_string(k);
    if (!op.removals.empty()) {
      IngestReport a = incremental.Remove(op.removals, matcher).ValueOrDie();
      IngestReport b = sharded.Remove(op.removals, matcher).ValueOrDie();
      ExpectEqualReports(a, b, context + " remove");
      evictions_total += a.cache_evictions;
    }
    if (!op.adds.empty()) {
      ExpectEqualReports(incremental.Ingest(op.adds, matcher).ValueOrDie(),
                         sharded.Ingest(op.adds, matcher).ValueOrDie(),
                         context + " add");
    }
    if (!op.updates.empty()) {
      IngestReport a = incremental.Update(op.updates, matcher).ValueOrDie();
      IngestReport b = sharded.Update(op.updates, matcher).ValueOrDie();
      ExpectEqualReports(a, b, context + " update");
      evictions_total += a.cache_evictions;
    }
  }
  EXPECT_GT(evictions_total, 0u);
  ExpectEquivalent(sharded.Snapshot().ValueOrDie(),
                   incremental.Snapshot().ValueOrDie(), "final snapshots");
}

TEST_F(FinancialCrud, InvalidRemovalsAreCleanErrorsWithoutPoisoning) {
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = CrudConfig(1, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  const PipelineResult before = pipeline.Snapshot().ValueOrDie();

  // Out of range, negative, duplicate, and double-delete: each is an
  // InvalidArgument that mutates NOTHING (not even partially).
  const RecordId n = static_cast<RecordId>(records_->size());
  for (const std::vector<RecordId>& bad :
       {std::vector<RecordId>{n}, std::vector<RecordId>{-1},
        std::vector<RecordId>{0, 1, 0}}) {
    Result<IngestReport> result = pipeline.Remove(bad, matcher);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(pipeline.status().ok());
  }
  ASSERT_TRUE(pipeline.Remove({2}, matcher).ok());
  Result<IngestReport> twice = pipeline.Remove({2}, matcher);
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(twice.status().message().find("tombstoned"), std::string::npos);

  // Updates validate the same way, and a failed batch changes nothing —
  // including a batch whose FIRST id is fine but whose second is dead.
  RecordUpdate ok_update;
  ok_update.id = 4;
  ok_update.record = (*records_)[5];
  RecordUpdate dead_update;
  dead_update.id = 2;
  dead_update.record = (*records_)[6];
  Result<IngestReport> mixed = pipeline.Update({ok_update, dead_update}, matcher);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(pipeline.status().ok());
  EXPECT_TRUE(pipeline.is_alive(4));

  // The sharded pipeline enforces the identical contract on the same
  // inputs, and a rejected call routes nothing.
  ShardedPipelineConfig sharded_config;
  sharded_config.base = config;
  sharded_config.num_shards = 2;
  ShardedPipeline sharded(sharded_config);
  ASSERT_TRUE(sharded.Ingest(*records_, matcher).ok());
  for (const std::vector<RecordId>& bad :
       {std::vector<RecordId>{n}, std::vector<RecordId>{-1},
        std::vector<RecordId>{0, 1, 0}}) {
    Result<IngestReport> result = sharded.Remove(bad, matcher);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(sharded.status().ok());
  }
  ASSERT_TRUE(sharded.Remove({2}, matcher).ok());
  const PipelineResult sharded_before = sharded.Snapshot().ValueOrDie();
  Result<IngestReport> sharded_twice = sharded.Remove({2}, matcher);
  ASSERT_FALSE(sharded_twice.ok());
  EXPECT_EQ(sharded_twice.status().code(), StatusCode::kInvalidArgument);
  Result<IngestReport> sharded_mixed =
      sharded.Update({ok_update, dead_update}, matcher);
  ASSERT_FALSE(sharded_mixed.ok());
  EXPECT_EQ(sharded_mixed.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(sharded.status().ok());
  EXPECT_FALSE(sharded.is_alive(-1));
  EXPECT_FALSE(sharded.is_alive(n));
  EXPECT_TRUE(sharded.is_alive(4));
  EXPECT_EQ(sharded.ShardRecordCount(0) + sharded.ShardRecordCount(1),
            sharded.records().size());
  ExpectEquivalent(sharded.Snapshot().ValueOrDie(), sharded_before,
                   "sharded after rejected calls");
  ExpectEquivalent(sharded.Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), "sharded vs incremental");
}

TEST_F(FinancialCrud, CheckpointRoundTripCarriesTombstones) {
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());

  // Without tombstones, the image stamps format version 1 (byte offset 8):
  // pre-tombstone readers keep loading tombstone-free checkpoints.
  std::string clean = SerializeCheckpoint(pipeline).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(clean[8])), 1u);

  std::vector<RecordId> doomed;
  for (size_t i = 0; i < records_->size(); i += 3) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline.Remove(doomed, matcher).ok());
  std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(image[8])), 2u);

  auto restored = ParseCheckpoint(image, matcher).ValueOrDie();
  EXPECT_EQ(restored->num_dead(), doomed.size());
  EXPECT_EQ(restored->alive(), pipeline.alive());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), "restored snapshot");
  // Re-serializing the restored pipeline reproduces the image bitwise.
  EXPECT_EQ(SerializeCheckpoint(*restored).ValueOrDie(), image);

  // The restored pipeline keeps mutating exactly like the original.
  std::vector<RecordId> more = {1, 4};
  ASSERT_TRUE(pipeline.Remove(more, matcher).ok());
  ASSERT_TRUE(restored->Remove(more, matcher).ok());
  ASSERT_TRUE(pipeline.Ingest({(*records_)[0]}, matcher).ok());
  ASSERT_TRUE(restored->Ingest({(*records_)[0]}, matcher).ok());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), "after restored mutations");
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   SurvivorReference(restored->records(), restored->alive(),
                                     config, matcher),
                   "restored vs survivors");
}

/// One Update batch over the live records of `records`: every `stride`-th
/// live id from `offset` is rewritten, alternately with a payload from
/// `other` (entirely new blocking keys) and with its own payload plus a
/// name token. Both kinds move identifier buckets and token dfs, so one
/// pass both retracts and admits pairs.
std::vector<RecordUpdate> StridedUpdates(const RecordTable& records,
                                         const std::vector<char>& alive,
                                         const std::vector<Record>& other,
                                         size_t stride, size_t offset) {
  std::vector<RecordUpdate> batch;
  size_t live_index = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (!alive[i]) continue;
    if (live_index++ % stride != offset % stride) continue;
    RecordUpdate update;
    update.id = static_cast<RecordId>(i);
    if (batch.size() % 2 == 0 && !other.empty()) {
      update.record = other[batch.size() % other.size()];
    } else {
      update.record = records.at(update.id);
      update.record.Set("name",
                        std::string(update.record.Get("name")) + " revised");
    }
    batch.push_back(std::move(update));
  }
  return batch;
}

TEST_F(FinancialCrud, CheckpointRoundTripAfterUpdate) {
  // An Update is a removal and an addition in one pass, so one index delta
  // can add a pair that another retracts. Such a pair must not linger in
  // the candidate set with empty provenance: the checkpoint parser rejects
  // it, so every image saved after an Update must restore.
  JaccardMatcher matcher;
  const std::vector<Record> other = FinancialPool(909, 12);
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  for (size_t round = 0; round < 4; ++round) {
    const std::string context = "round " + std::to_string(round);
    ASSERT_TRUE(pipeline
                    .Update(StridedUpdates(pipeline.records(), pipeline.alive(),
                                           other, 4, round),
                            matcher)
                    .ok())
        << context;
    const std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
    Result<std::unique_ptr<IncrementalPipeline>> restored =
        ParseCheckpoint(image, matcher);
    ASSERT_TRUE(restored.ok()) << context << ": "
                               << restored.status().message();
    ExpectEquivalent(restored.ValueOrDie()->Snapshot().ValueOrDie(),
                     pipeline.Snapshot().ValueOrDie(), context);
    EXPECT_EQ(SerializeCheckpoint(*restored.ValueOrDie()).ValueOrDie(), image)
        << context;
  }
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline.records(), pipeline.alive(),
                                     config, matcher),
                   "after updates");
}

/// Ingest, Update with `first`, then mutate once more under `second` (a
/// different fingerprint, so every candidate is rescored): the snapshot
/// must equal the batch run with `second` on the survivors — rescoring
/// reaches exactly the current candidates. `second` scales scores up so
/// that nearly any scored pair turns positive: a non-candidate that got
/// rescored would then show as a predicted pair.
template <typename Pipeline>
void ExpectFingerprintChangeAfterUpdateMatchesSurvivors(
    Pipeline* pipeline, const std::vector<Record>& records,
    const std::vector<Record>& other, const IncrementalPipelineConfig& config,
    const std::string& context) {
  JaccardMatcher first(1.0);
  JaccardMatcher second(3.0);
  ASSERT_NE(first.Fingerprint(), second.Fingerprint());
  ASSERT_TRUE(pipeline->Ingest(records, first).ok()) << context;
  for (size_t round = 0; round < 3; ++round) {
    ASSERT_TRUE(pipeline
                    ->Update(StridedUpdates(pipeline->records(),
                                            pipeline->alive(), other, 4, round),
                             first)
                    .ok())
        << context;
  }
  ASSERT_TRUE(pipeline
                  ->Update(StridedUpdates(pipeline->records(), pipeline->alive(),
                                          other, 9, 0),
                           second)
                  .ok())
      << context;
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     config, second),
                   context);
}

TEST_F(FinancialCrud, FingerprintChangeAfterUpdateMatchesSurvivors) {
  const std::vector<Record> other = FinancialPool(909, 12);
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline incremental(config);
  ExpectFingerprintChangeAfterUpdateMatchesSurvivors(
      &incremental, *records_, other, config, "incremental");
  ShardedPipelineConfig sharded_config;
  sharded_config.base = config;
  sharded_config.num_shards = 2;
  sharded_config.router_seed = 3;
  ShardedPipeline sharded(sharded_config);
  ExpectFingerprintChangeAfterUpdateMatchesSurvivors(
      &sharded, *records_, other, config, "sharded S=2");
}

/// Save and re-load `pipeline`: a GRLMCKPT image for the engine, a shard
/// directory under `dir` for the sharded layer.
std::unique_ptr<IncrementalPipeline> Reload(const IncrementalPipeline& pipeline,
                                            const PairwiseMatcher& matcher,
                                            const std::string& /*dir*/) {
  return ParseCheckpoint(SerializeCheckpoint(pipeline).ValueOrDie(), matcher)
      .ValueOrDie();
}

std::unique_ptr<ShardedPipeline> Reload(const ShardedPipeline& pipeline,
                                        const PairwiseMatcher& matcher,
                                        const std::string& dir) {
  EXPECT_TRUE(SaveShardedCheckpoint(pipeline, dir).ok());
  return LoadShardedCheckpoint(dir, matcher).ValueOrDie();
}

/// Run a churn schedule, saving and re-loading the pipeline half-way; from
/// then on the original and the restored copy apply every mutation side by
/// side, ending with a full rescore (fingerprint change) and a removal
/// under the new fingerprint. Eviction walks per-record partner lists that
/// are never serialized — the restore rebuilds them from the loaded cache
/// and the rescore from scratch — so every report, evictions included, and
/// every snapshot must agree.
template <typename Pipeline>
void ExpectChurnSurvivesRestore(Pipeline* original,
                                const std::vector<Record>& records,
                                const IncrementalPipelineConfig& config,
                                const std::string& dir,
                                const std::string& context) {
  JaccardMatcher matcher;
  JaccardMatcher rescoring(1.5);
  const CrudSchedule schedule = MakeSchedule(records, 77, 12);
  std::unique_ptr<Pipeline> restored;
  size_t evictions = 0;
  // Applies one mutation to the original and, once it exists, to the
  // restored copy.
  auto apply = [&](const auto& mutate, const std::string& step) {
    const IngestReport report = mutate(original).ValueOrDie();
    if (restored == nullptr) return report;
    ExpectEqualReports(report, mutate(restored.get()).ValueOrDie(),
                       context + " " + step);
    ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                     original->Snapshot().ValueOrDie(), context + " " + step);
    evictions += report.cache_evictions;
    return report;
  };

  apply([&](Pipeline* p) { return p->Ingest(schedule.initial, matcher); },
        "initial");
  for (size_t k = 0; k < schedule.ops.size(); ++k) {
    if (k == schedule.ops.size() / 2) {
      restored = Reload(*original, matcher, dir);
    }
    const CrudOp& op = schedule.ops[k];
    const std::string step = "op " + std::to_string(k);
    if (!op.removals.empty()) {
      apply([&](Pipeline* p) { return p->Remove(op.removals, matcher); },
            step + " remove");
    }
    if (!op.adds.empty()) {
      apply([&](Pipeline* p) { return p->Ingest(op.adds, matcher); },
            step + " add");
    }
    if (!op.updates.empty()) {
      apply([&](Pipeline* p) { return p->Update(op.updates, matcher); },
            step + " update");
    }
  }
  EXPECT_GT(evictions, 0u) << context;

  apply([&](Pipeline* p) { return p->Ingest({}, rescoring); }, "rescore");
  std::vector<RecordId> doomed;
  for (size_t i = 0; i < original->records().size(); i += 5) {
    if (original->is_alive(static_cast<RecordId>(i))) {
      doomed.push_back(static_cast<RecordId>(i));
    }
  }
  const IngestReport removal =
      apply([&](Pipeline* p) { return p->Remove(doomed, rescoring); },
            "remove after rescore");
  EXPECT_GT(removal.cache_evictions, 0u) << context;
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   SurvivorReference(restored->records(), restored->alive(),
                                     config, rescoring),
                   context + " vs survivors");
}

TEST_F(FinancialCrud, EvictionCountsSurviveRestoreAndRescoring) {
  const IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline incremental(config);
  ExpectChurnSurvivesRestore(&incremental, *records_, config, "", "GRLMCKPT");

  ShardedPipelineConfig sharded_config;
  sharded_config.base = config;
  sharded_config.num_shards = 2;
  sharded_config.router_seed = 7;
  ShardedPipeline sharded(sharded_config);
  ExpectChurnSurvivesRestore(
      &sharded, *records_, config,
      ::testing::TempDir() + "/crud_eviction_restore_" +
          std::to_string(::testing::UnitTest::GetInstance()->random_seed()),
      "S=2 directory");
}

TEST_F(FinancialCrud, MatchServiceExcludesTombstonedRecords) {
  // The serving layer needs no tombstone plumbing: dead records are absent
  // from the snapshot's groups, so GroupOf reports kNoGroup for them and
  // group membership lists never contain them.
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(CrudConfig(1, 0.25));
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  MatchService service;
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  const RecordId victim = 0;
  ASSERT_NE(service.GroupOf(victim), kNoGroup);

  ASSERT_TRUE(pipeline.Remove({victim}, matcher).ok());
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  EXPECT_EQ(service.GroupOf(victim), kNoGroup);
  MatchSnapshotPtr view = service.View();
  size_t total_members = 0;
  for (size_t g = 0; g < view->num_groups(); ++g) {
    for (RecordId member : view->Members(static_cast<GroupId>(g))) {
      EXPECT_NE(member, victim);
      ++total_members;
    }
  }
  // Every live record sits in exactly one group (singletons included); the
  // dead one sits in none.
  EXPECT_EQ(total_members, pipeline.num_live());
}

// ---------------------------------------------------------------------------
// Seeded fuzz schedules: >= 200 across fixtures x threads x shard counts
// ---------------------------------------------------------------------------

void FuzzIncremental(const std::vector<Record>& pool, double threshold,
                     size_t threads, uint64_t seed_base, size_t num_seeds) {
  JaccardMatcher matcher;
  for (uint64_t seed = 0; seed < num_seeds; ++seed) {
    IncrementalPipelineConfig config = CrudConfig(threads, threshold);
    IncrementalPipeline pipeline(config);
    RunCrudSchedule(&pipeline, MakeSchedule(pool, seed_base + seed, 8), config,
                    matcher,
                    "incremental threads=" + std::to_string(threads) +
                        " seed=" + std::to_string(seed_base + seed));
  }
}

void FuzzSharded(const std::vector<Record>& pool, double threshold,
                 size_t num_shards, size_t threads, uint64_t seed_base,
                 size_t num_seeds) {
  JaccardMatcher matcher;
  for (uint64_t seed = 0; seed < num_seeds; ++seed) {
    ShardedPipelineConfig config;
    config.base = CrudConfig(threads, threshold);
    config.num_shards = num_shards;
    config.router_seed = seed_base + seed;
    ShardedPipeline pipeline(config);
    RunCrudSchedule(&pipeline, MakeSchedule(pool, seed_base + seed, 8),
                    config.base, matcher,
                    "sharded S=" + std::to_string(num_shards) +
                        " threads=" + std::to_string(threads) +
                        " seed=" + std::to_string(seed_base + seed));
  }
}

TEST_F(FinancialCrud, FuzzIncrementalSchedules) {
  // 3 thread counts x 20 seeds = 60 schedules.
  for (size_t threads : {1u, 2u, 8u}) {
    FuzzIncremental(*records_, 0.25, threads, 1000, 20);
  }
}

TEST_F(FinancialCrud, FuzzShardedSchedules) {
  // S in {1,2,4} x 3 thread counts x 7 seeds = 63 schedules.
  for (size_t num_shards : {1u, 2u, 4u}) {
    for (size_t threads : {1u, 2u, 8u}) {
      FuzzSharded(*records_, 0.25, num_shards, threads, 2000, 7);
    }
  }
}

// ---------------------------------------------------------------------------
// WDC products fixture
// ---------------------------------------------------------------------------

class WdcCrud : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<Record>(WdcPool(77, 80));
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }

  static std::vector<Record>* records_;
};

std::vector<Record>* WdcCrud::records_ = nullptr;

TEST_F(WdcCrud, FuzzIncrementalSchedules) {
  // 3 thread counts x 14 seeds = 42 schedules.
  for (size_t threads : {1u, 2u, 8u}) {
    FuzzIncremental(*records_, 0.35, threads, 3000, 14);
  }
}

TEST_F(WdcCrud, FuzzShardedSchedules) {
  // S in {2,4} x 3 thread counts x 7 seeds = 42 schedules.
  for (size_t num_shards : {2u, 4u}) {
    for (size_t threads : {1u, 2u, 8u}) {
      FuzzSharded(*records_, 0.35, num_shards, threads, 4000, 7);
    }
  }
}

TEST_F(WdcCrud, MidScheduleChecksStayEquivalent) {
  // A handful of schedules checked after EVERY op, not just at the end.
  JaccardMatcher matcher;
  for (uint64_t seed : {1u, 2u, 3u}) {
    IncrementalPipelineConfig config = CrudConfig(2, 0.35);
    IncrementalPipeline pipeline(config);
    RunCrudSchedule(&pipeline, MakeSchedule(*records_, seed, 6), config,
                    matcher, "wdc mid-schedule seed=" + std::to_string(seed),
                    /*check_every=*/1);
  }
}

TEST_F(WdcCrud, ShardedCheckpointRoundTripCarriesTombstones) {
  JaccardMatcher matcher;
  ShardedPipelineConfig config;
  config.base = CrudConfig(2, 0.35);
  config.num_shards = 3;
  config.router_seed = 5;
  ShardedPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  std::vector<RecordId> doomed;
  for (size_t i = 1; i < records_->size(); i += 4) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline.Remove(doomed, matcher).ok());

  const std::string dir =
      ::testing::TempDir() + "/crud_sharded_ckpt_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  ASSERT_TRUE(SaveShardedCheckpoint(pipeline, dir).ok());
  // The manifest stamps version 2 once tombstones exist (byte offset 8).
  const std::string manifest =
      ReadWholeFile(ShardedManifestPath(dir)).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(manifest[8])), 2u);

  auto restored = LoadShardedCheckpoint(dir, matcher).ValueOrDie();
  EXPECT_EQ(restored->num_dead(), doomed.size());
  EXPECT_EQ(restored->alive(), pipeline.alive());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), "restored sharded");

  // Re-saving the restored pipeline reproduces every file byte for byte.
  const std::string dir2 = dir + "_resave";
  ASSERT_TRUE(SaveShardedCheckpoint(*restored, dir2).ok());
  EXPECT_EQ(ReadWholeFile(ShardedManifestPath(dir2)).ValueOrDie(), manifest);

  // And keeps mutating identically.
  std::vector<RecordUpdate> update(1);
  update[0].id = 0;
  update[0].record = (*records_)[2];
  ASSERT_TRUE(pipeline.Update(update, matcher).ok());
  ASSERT_TRUE(restored->Update(update, matcher).ok());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(),
                   "restored sharded after update");
}

}  // namespace
}  // namespace gralmatch
