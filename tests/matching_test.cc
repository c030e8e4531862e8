// Tests for the matching module: serializers, pair sampling, the "-15K"
// filter, baseline matchers, model variants and the transformer matcher
// (fine-tuning on an easy task + persistence round-trip).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "matching/baselines.h"
#include "matching/cascade_matcher.h"
#include "matching/pair_sampling.h"
#include "matching/serializer.h"
#include "matching/transformer_matcher.h"
#include "matching/variants.h"

namespace gralmatch {
namespace {

SubwordVocab MakeVocab() {
  SubwordVocab vocab;
  vocab.Train({"acme corp zurich switzerland", "name city isin cusip",
               "beta industries basel", "crowd strike platforms"},
              1000);
  return vocab;
}

Record MakeCompany(SourceId src, const char* name, const char* city) {
  Record rec(src, RecordKind::kCompany);
  rec.Set("name", name);
  rec.Set("city", city);
  return rec;
}

TEST(SerializerTest, PlainEncodesValuesOnly) {
  SubwordVocab vocab = MakeVocab();
  Record rec = MakeCompany(0, "Acme Corp", "Zurich");
  rec.Set("_event", "acquisition");  // metadata must be skipped
  PlainSerializer plain;
  std::vector<int32_t> tokens;
  plain.AppendRecordTokens(rec, vocab, &tokens);
  ASSERT_FALSE(tokens.empty());
  for (int32_t id : tokens) {
    EXPECT_NE(id, SpecialTokens::kCol);
    EXPECT_NE(id, SpecialTokens::kVal);
  }
  // "acquisition" tokens must not appear: encoding "Acme Corp Zurich" only.
  auto direct = vocab.EncodeText("Acme Corp Zurich");
  EXPECT_EQ(tokens, direct);
}

TEST(SerializerTest, DittoEncodesTagsAndColumnNames) {
  SubwordVocab vocab = MakeVocab();
  Record rec = MakeCompany(0, "Acme Corp", "Zurich");
  DittoSerializer ditto;
  std::vector<int32_t> tokens;
  ditto.AppendRecordTokens(rec, vocab, &tokens);
  size_t cols = std::count(tokens.begin(), tokens.end(),
                           static_cast<int32_t>(SpecialTokens::kCol));
  size_t vals = std::count(tokens.begin(), tokens.end(),
                           static_cast<int32_t>(SpecialTokens::kVal));
  EXPECT_EQ(cols, 2u);
  EXPECT_EQ(vals, 2u);

  // Ditto encoding is strictly longer than plain for the same record.
  PlainSerializer plain;
  std::vector<int32_t> plain_tokens;
  plain.AppendRecordTokens(rec, vocab, &plain_tokens);
  EXPECT_GT(tokens.size(), plain_tokens.size());
}

TEST(SerializerTest, EncodePairStructure) {
  SubwordVocab vocab = MakeVocab();
  Record a = MakeCompany(0, "Acme Corp", "Zurich");
  Record b = MakeCompany(1, "Beta Industries", "Basel");
  PlainSerializer plain;
  EncodedSequence seq = plain.EncodePair(a, b, vocab, 64);
  ASSERT_GT(seq.tokens.size(), 3u);
  EXPECT_EQ(seq.tokens[0], SpecialTokens::kCls);
  EXPECT_EQ(std::count(seq.tokens.begin(), seq.tokens.end(),
                       static_cast<int32_t>(SpecialTokens::kSep)),
            1);
  EXPECT_LE(seq.tokens.size(), 64u);
  // Parallel feature vectors are aligned with the tokens.
  EXPECT_EQ(seq.segments.size(), seq.tokens.size());
  EXPECT_EQ(seq.shared.size(), seq.tokens.size());
  // Segment ids switch from 0 to 1 at the [SEP].
  EXPECT_EQ(seq.segments.front(), 0);
  EXPECT_EQ(seq.segments.back(), 1);
}

TEST(SerializerTest, SharedFlagsMarkCrossRecordTokens) {
  SubwordVocab vocab = MakeVocab();
  Record a = MakeCompany(0, "Acme Corp", "Zurich");
  Record b = MakeCompany(1, "Acme Industries", "Basel");  // shares "acme"
  PlainSerializer plain;
  EncodedSequence seq = plain.EncodePair(a, b, vocab, 64);
  // The id of a whole-word vocabulary entry (kUnk when it has none).
  auto word_id = [&vocab](std::string_view word) {
    std::vector<int32_t> ids;
    vocab.EncodeWord(word, &ids);
    return ids.size() == 1 ? ids[0] : SpecialTokens::kUnk;
  };
  int32_t acme_id = word_id("acme");
  ASSERT_NE(acme_id, SpecialTokens::kUnk);
  size_t shared_count = 0;
  for (size_t i = 0; i < seq.tokens.size(); ++i) {
    if (seq.tokens[i] == acme_id) {
      EXPECT_EQ(seq.shared[i], 1);
      ++shared_count;
    } else if (seq.tokens[i] == word_id("zurich")) {
      EXPECT_EQ(seq.shared[i], 0);  // only on one side
    }
  }
  EXPECT_EQ(shared_count, 2u);  // once per side
}

TEST(SerializerTest, TruncationIsSymmetric) {
  SubwordVocab vocab = MakeVocab();
  Record a(0, RecordKind::kCompany);
  std::string huge;
  for (int i = 0; i < 200; ++i) huge += "acme ";
  a.Set("name", huge);
  Record b = MakeCompany(1, "Beta Industries", "Basel");

  PlainSerializer plain;
  EncodedSequence seq = plain.EncodePair(a, b, vocab, 20);
  EXPECT_LE(seq.tokens.size(), 20u);
  // Record B must still be present after the [SEP].
  auto sep = std::find(seq.tokens.begin(), seq.tokens.end(),
                       static_cast<int32_t>(SpecialTokens::kSep));
  ASSERT_NE(sep, seq.tokens.end());
  EXPECT_GT(std::distance(sep, seq.tokens.end()), 3);
}

Dataset MakeSamplingDataset() {
  Dataset ds;
  Rng rng(4);
  // 40 entities x 3 records across 3 sources.
  for (EntityId e = 0; e < 40; ++e) {
    for (SourceId s = 0; s < 3; ++s) {
      Record rec(s, RecordKind::kCompany);
      rec.Set("name", "company" + std::to_string(e));
      ds.truth.Assign(ds.records.Add(std::move(rec)), e);
    }
  }
  return ds;
}

TEST(PairSamplingTest, RatioAndSplitContainment) {
  Dataset ds = MakeSamplingDataset();
  Rng rng(9);
  GroupSplit split = SplitByGroups(ds.truth, &rng);

  PairSamplingOptions opts;
  opts.negatives_per_positive = 5.0;
  auto pairs = SamplePairs(ds, split, SplitPart::kTrain, opts);

  size_t pos = 0, neg = 0;
  for (const auto& lp : pairs) {
    EXPECT_EQ(split.part(lp.pair.a), SplitPart::kTrain);
    EXPECT_EQ(split.part(lp.pair.b), SplitPart::kTrain);
    EXPECT_EQ(ds.truth.IsMatch(lp.pair), lp.label == 1);
    // Negatives are cross-source by construction.
    if (lp.label == 0) {
      EXPECT_NE(ds.records.at(lp.pair.a).source(),
                ds.records.at(lp.pair.b).source());
      ++neg;
    } else {
      ++pos;
    }
  }
  EXPECT_GT(pos, 0u);
  EXPECT_NEAR(static_cast<double>(neg) / pos, 5.0, 0.5);
}

TEST(PairSamplingTest, MaxPositivesCapRespected) {
  Dataset ds = MakeSamplingDataset();
  Rng rng(9);
  GroupSplit split = SplitByGroups(ds.truth, &rng);
  PairSamplingOptions opts;
  opts.max_positives = 10;
  auto pairs = SamplePairs(ds, split, SplitPart::kTrain, opts);
  size_t pos = 0;
  for (const auto& lp : pairs) pos += lp.label;
  EXPECT_EQ(pos, 10u);
}

TEST(PairSamplingTest, FilterEasyPairsDropsAcquisitionAndHardPositives) {
  Dataset ds;
  auto add = [&](SourceId src, const char* name, const char* isin,
                 const char* event, EntityId e) {
    Record rec(src, RecordKind::kCompany);
    rec.Set("name", name);
    if (isin) rec.Set("isin", isin);
    if (event) rec.Set("_event", event);
    RecordId id = ds.records.Add(std::move(rec));
    ds.truth.Assign(id, e);
    return id;
  };
  RecordId a = add(0, "Acme Corp", "US1", nullptr, 1);
  RecordId b = add(1, "Totally Different Name", "US1", nullptr, 1);  // id-easy
  RecordId c = add(0, "Beta Ltd", nullptr, "acquisition", 2);
  RecordId d = add(1, "Beta Ltd", nullptr, nullptr, 2);
  RecordId e2 = add(0, "Gamma Industries", nullptr, nullptr, 3);
  RecordId f = add(1, "Entirely Other Words", nullptr, nullptr, 3);  // hard

  std::vector<LabeledPair> pairs = {
      {RecordPair(a, b), 1},   // easy: shared identifier
      {RecordPair(c, d), 1},   // acquisition: dropped
      {RecordPair(e2, f), 1},  // hard positive: dropped
      {RecordPair(a, d), 0},   // negative: kept
  };
  auto filtered = FilterEasyPairs(ds, pairs, 0);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].pair, RecordPair(a, b));
  EXPECT_EQ(filtered[1].pair, RecordPair(a, d));

  auto capped = FilterEasyPairs(ds, pairs, 1);
  EXPECT_EQ(capped.size(), 1u);
}

TEST(BaselineTest, HeuristicIdMatcher) {
  Record a(0, RecordKind::kSecurity);
  a.Set("isin", "US1|US2");
  Record b(1, RecordKind::kSecurity);
  b.Set("isin", "US2");
  Record c(1, RecordKind::kSecurity);
  c.Set("isin", "US3");
  HeuristicIdMatcher matcher;
  EXPECT_DOUBLE_EQ(matcher.MatchProbability(a, b), 1.0);
  EXPECT_DOUBLE_EQ(matcher.MatchProbability(a, c), 0.0);
  EXPECT_TRUE(matcher.IsMatch(a, b));
}

// A tiny synthetic training task: matches share names.
void NameTask(RecordTable* records, std::vector<LabeledPair>* pairs) {
  for (int e = 0; e < 30; ++e) {
    Record r1(0, RecordKind::kCompany);
    r1.Set("name", "entity" + std::to_string(e) + " holdings");
    Record r2(1, RecordKind::kCompany);
    r2.Set("name", "entity" + std::to_string(e) + " holdings inc");
    RecordId a = records->Add(std::move(r1));
    RecordId b = records->Add(std::move(r2));
    pairs->push_back({RecordPair(a, b), 1});
    if (e > 0) {
      pairs->push_back({RecordPair(a, b - 2), 0});  // previous entity
    }
  }
}

TEST(BaselineTest, TfidfLogRegLearnsNameSimilarity) {
  RecordTable records;
  std::vector<LabeledPair> pairs;
  NameTask(&records, &pairs);
  TfidfLogRegMatcher matcher;
  matcher.Train(records, pairs);

  int correct = 0, total = 0;
  for (const auto& lp : pairs) {
    bool predicted =
        matcher.IsMatch(records.at(lp.pair.a), records.at(lp.pair.b));
    correct += predicted == (lp.label == 1);
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(BaselineTest, TfidfLogRegFingerprintIsPinned) {
  // Checkpoint headers carry this fingerprint, so its hash must never
  // change: these values were recorded from the hand-rolled FNV-1a loop the
  // shared Fnv1a64 replaced.
  EXPECT_EQ(TfidfLogRegMatcher().Fingerprint(),
            "TFIDF-LogReg#1469598103934665603");
  RecordTable records;
  std::vector<LabeledPair> pairs;
  NameTask(&records, &pairs);
  TfidfLogRegMatcher matcher;
  matcher.Train(records, pairs);
  // The weights' bit patterns first, so that a change in training is told
  // apart from a change in the hash.
  std::vector<uint32_t> bits;
  for (float w : matcher.weights()) {
    uint32_t b;
    std::memcpy(&b, &w, sizeof(b));
    bits.push_back(b);
  }
  ASSERT_EQ(bits, (std::vector<uint32_t>{0x40ec38cc, 0x403a97fb, 0xc00637d5,
                                         0x00000000, 0xc02e2002}));
  EXPECT_EQ(matcher.Fingerprint(), "TFIDF-LogReg#7486359868873305121");
}

TEST(BaselineTest, SlowLlmProjection) {
  SlowLlmMatcher llm(std::make_unique<HeuristicIdMatcher>(), 7.0);
  // The paper's arithmetic: ~1.14M pairs at 7 s/pair is 90+ days.
  double seconds = llm.ProjectedSeconds(1140000);
  EXPECT_GT(seconds / 86400.0, 90.0);
  EXPECT_DOUBLE_EQ(llm.seconds_per_pair(), 7.0);
}

TEST(VariantsTest, ConfigsMatchPaperRoles) {
  auto d128 = MakeVariantConfig(ModelVariant::kDitto128, 1);
  auto d256 = MakeVariantConfig(ModelVariant::kDitto256, 1);
  auto all = MakeVariantConfig(ModelVariant::kDistilBert128All, 1);
  auto small = MakeVariantConfig(ModelVariant::kDistilBert128_15K, 1);
  EXPECT_TRUE(d128.ditto_encoding);
  EXPECT_TRUE(d256.ditto_encoding);
  EXPECT_FALSE(all.ditto_encoding);
  EXPECT_EQ(d256.max_seq_len, 2 * d128.max_seq_len);
  EXPECT_EQ(all.max_seq_len, d128.max_seq_len);
  EXPECT_TRUE(VariantUsesReducedTraining(ModelVariant::kDistilBert128_15K));
  EXPECT_FALSE(VariantUsesReducedTraining(ModelVariant::kDitto128));
  EXPECT_EQ(AllModelVariants().size(), 4u);
  EXPECT_EQ(VariantDisplayName(ModelVariant::kDitto128), "DITTO (128)");
}

// End-to-end: fine-tune the transformer matcher on an easy synthetic task
// and verify it separates matches from non-matches, then round-trip it
// through Save/Load.
TEST(TransformerMatcherTest, FineTunesAndPersists) {
  RecordTable records;
  std::vector<LabeledPair> train, val;
  for (int e = 0; e < 60; ++e) {
    Record r1(0, RecordKind::kCompany);
    r1.Set("name", "alpha" + std::to_string(e) + " systems");
    Record r2(1, RecordKind::kCompany);
    r2.Set("name", "alpha" + std::to_string(e) + " systems ltd");
    RecordId a = records.Add(std::move(r1));
    RecordId b = records.Add(std::move(r2));
    auto& sink = (e % 5 == 0) ? val : train;
    sink.push_back({RecordPair(a, b), 1});
    if (e > 0) sink.push_back({RecordPair(a, b - 2), 0});
  }

  TransformerMatcherConfig config;
  config.display_name = "test-model";
  config.max_seq_len = 24;
  config.trainer.epochs = 4;
  config.trainer.lr = 3e-3f;
  config.seed = 7;
  TransformerMatcher matcher(config);
  matcher.BuildVocab(records);

  TrainResult result = matcher.FineTune(records, train, val);
  EXPECT_EQ(result.epochs.size(), 4u);

  // Count separation quality on the validation pairs.
  int correct = 0, total = 0;
  for (const auto& lp : val) {
    bool predicted =
        matcher.IsMatch(records.at(lp.pair.a), records.at(lp.pair.b));
    correct += predicted == (lp.label == 1);
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.8);

  // Persistence round-trip preserves predictions exactly.
  std::string dir = ::testing::TempDir() + "/matcher_roundtrip";
  ASSERT_TRUE(matcher.Save(dir).ok());
  TransformerMatcher loaded(config);
  ASSERT_TRUE(loaded.Load(dir).ok());
  const Record& a = records.at(0);
  const Record& b = records.at(1);
  EXPECT_NEAR(matcher.MatchProbability(a, b), loaded.MatchProbability(a, b),
              1e-6);
}

TEST(TransformerMatcherTest, LoadFromMissingDirFails) {
  TransformerMatcherConfig config;
  TransformerMatcher matcher(config);
  EXPECT_FALSE(matcher.Load("/nonexistent/model/dir").ok());
}

// --- CascadeMatcher -------------------------------------------------------

/// Deterministic test matcher: the score of a pair is record a's "p" field
/// (exact decimal fractions, no libm), so each test pair's gate score is
/// chosen directly. Counts how its pairs were scored.
class FieldScoreMatcher : public PairwiseMatcher {
 public:
  explicit FieldScoreMatcher(std::string display) : display_(std::move(display)) {}
  std::string name() const override { return display_; }
  double MatchProbability(const Record& a, const Record& b) const override {
    (void)b;
    ++probability_calls;
    return std::stod(std::string(a.Get("p")));
  }
  void ScoreBatch(const RecordTable& records, Span<const RecordPair> pairs,
                  Span<double> out) const override {
    ++batch_calls;
    batch_pairs_scored += pairs.size();
    for (size_t i = 0; i < pairs.size(); ++i) {
      out[i] = std::stod(std::string(records.at(pairs[i].a).Get("p")));
    }
  }
  std::string Fingerprint() const override { return "field|" + display_; }

  mutable size_t probability_calls = 0;
  mutable size_t batch_calls = 0;
  mutable size_t batch_pairs_scored = 0;

 private:
  std::string display_;
};

/// Records (2i, 2i+1) per pair; record 2i carries the gate score in "p" and
/// record 2i+1 an unrelated value the expensive matcher never sees (both
/// matchers read the pair's `a` record, which is always the even id).
struct CascadeFixture {
  RecordTable records;
  std::vector<RecordPair> pairs;

  explicit CascadeFixture(const std::vector<const char*>& gate_scores) {
    for (const char* score : gate_scores) {
      Record r1(0, RecordKind::kCompany);
      r1.Set("p", score);
      Record r2(1, RecordKind::kCompany);
      r2.Set("p", "0.0");
      RecordId a = records.Add(std::move(r1));
      RecordId b = records.Add(std::move(r2));
      pairs.push_back(RecordPair(a, b));
    }
  }
};

TEST(CascadeMatcherTest, BandSemantics) {
  // Band [0.25, 0.75]: 0.1 and 0.9 are gate-resolved, the rest escalate —
  // including both inclusive endpoints.
  CascadeFixture fx({"0.1", "0.25", "0.5", "0.75", "0.9"});
  FieldScoreMatcher gate("gate");
  HeuristicIdMatcher expensive;  // no identifiers anywhere -> always 0.0
  CascadeMatcher::Options opts;
  opts.lower_threshold = 0.25;
  opts.upper_threshold = 0.75;
  CascadeMatcher cascade(&gate, &expensive, opts);

  const std::vector<double> expected = {0.1, 0.0, 0.0, 0.0, 0.9};
  for (size_t i = 0; i < fx.pairs.size(); ++i) {
    EXPECT_EQ(cascade.MatchProbability(fx.records.at(fx.pairs[i].a),
                                       fx.records.at(fx.pairs[i].b)),
              expected[i])
        << "pair " << i;
  }
  CascadeMatcher::Stats stats = cascade.stats();
  EXPECT_EQ(stats.gate_resolved, 2u);
  EXPECT_EQ(stats.escalated, 3u);
}

TEST(CascadeMatcherTest, ScoreBatchMatchesPerPairBitwise) {
  CascadeFixture fx({"0.0", "0.125", "0.25", "0.375", "0.5", "0.625", "0.75",
                     "0.875", "1.0"});
  FieldScoreMatcher gate("gate");
  HeuristicIdMatcher expensive;
  CascadeMatcher::Options opts;
  opts.lower_threshold = 0.25;
  opts.upper_threshold = 0.75;
  CascadeMatcher batched(&gate, &expensive, opts);
  CascadeMatcher per_pair(&gate, &expensive, opts);

  std::vector<double> batch_scores(fx.pairs.size(), -1.0);
  batched.ScoreBatch(fx.records,
                     Span<const RecordPair>(fx.pairs.data(), fx.pairs.size()),
                     Span<double>(batch_scores.data(), batch_scores.size()));
  for (size_t i = 0; i < fx.pairs.size(); ++i) {
    const double single = per_pair.MatchProbability(
        fx.records.at(fx.pairs[i].a), fx.records.at(fx.pairs[i].b));
    EXPECT_EQ(batch_scores[i], single) << "pair " << i;
  }
  // Identical counter trajectories through either path.
  EXPECT_EQ(batched.stats().gate_resolved, per_pair.stats().gate_resolved);
  EXPECT_EQ(batched.stats().escalated, per_pair.stats().escalated);
}

TEST(CascadeMatcherTest, ScoreBatchEscalatesOnlyTheBand) {
  CascadeFixture fx({"0.1", "0.5", "0.9", "0.5", "0.1"});
  FieldScoreMatcher gate("gate");
  FieldScoreMatcher expensive("expensive");
  CascadeMatcher::Options opts;
  opts.lower_threshold = 0.25;
  opts.upper_threshold = 0.75;
  CascadeMatcher cascade(&gate, &expensive, opts);

  std::vector<double> scores(fx.pairs.size(), -1.0);
  cascade.ScoreBatch(fx.records,
                     Span<const RecordPair>(fx.pairs.data(), fx.pairs.size()),
                     Span<double>(scores.data(), scores.size()));
  // One gate batch over all five pairs, one expensive batch over exactly the
  // two in-band pairs — the whole point of the cascade.
  EXPECT_EQ(gate.batch_calls, 1u);
  EXPECT_EQ(gate.batch_pairs_scored, 5u);
  EXPECT_EQ(expensive.batch_calls, 1u);
  EXPECT_EQ(expensive.batch_pairs_scored, 2u);
  EXPECT_EQ(cascade.stats().escalated, 2u);
  EXPECT_EQ(cascade.stats().gate_resolved, 3u);
}

TEST(CascadeMatcherTest, ExactReferenceReproducesExpensiveBitwise) {
  CascadeFixture fx({"0.1", "0.5", "0.9"});
  FieldScoreMatcher gate("gate");
  HeuristicIdMatcher expensive;
  CascadeMatcher::Options opts;
  opts.lower_threshold = 0.25;
  opts.upper_threshold = 0.75;
  opts.exact_reference = true;
  CascadeMatcher cascade(&gate, &expensive, opts);

  std::vector<double> scores(fx.pairs.size(), -1.0);
  cascade.ScoreBatch(fx.records,
                     Span<const RecordPair>(fx.pairs.data(), fx.pairs.size()),
                     Span<double>(scores.data(), scores.size()));
  for (size_t i = 0; i < fx.pairs.size(); ++i) {
    EXPECT_EQ(scores[i],
              expensive.MatchProbability(fx.records.at(fx.pairs[i].a),
                                         fx.records.at(fx.pairs[i].b)));
  }
  // The gate still ran and the stats still describe the would-be cascade.
  EXPECT_EQ(cascade.stats().gate_resolved, 2u);
  EXPECT_EQ(cascade.stats().escalated, 1u);

  // Per-pair path agrees with the batch path in reference mode too.
  CascadeMatcher per_pair(&gate, &expensive, opts);
  for (size_t i = 0; i < fx.pairs.size(); ++i) {
    EXPECT_EQ(per_pair.MatchProbability(fx.records.at(fx.pairs[i].a),
                                        fx.records.at(fx.pairs[i].b)),
              scores[i]);
  }
}

TEST(CascadeMatcherTest, FingerprintCoversThresholdsModeAndInners) {
  FieldScoreMatcher gate("gate");
  FieldScoreMatcher other_gate("other-gate");
  HeuristicIdMatcher expensive;
  CascadeMatcher::Options base;
  base.lower_threshold = 0.25;
  base.upper_threshold = 0.75;

  CascadeMatcher reference(&gate, &expensive, base);
  CascadeMatcher same(&gate, &expensive, base);
  // Equal configuration => equal fingerprint (cache hits stay possible).
  EXPECT_EQ(reference.Fingerprint(), same.Fingerprint());

  // Any knob that can move a score must change the fingerprint (the
  // matcher.h contract): lower threshold, upper threshold, reference mode,
  // either inner matcher.
  CascadeMatcher::Options lower = base;
  lower.lower_threshold = 0.2;
  EXPECT_NE(CascadeMatcher(&gate, &expensive, lower).Fingerprint(),
            reference.Fingerprint());

  CascadeMatcher::Options upper = base;
  upper.upper_threshold = 0.8;
  EXPECT_NE(CascadeMatcher(&gate, &expensive, upper).Fingerprint(),
            reference.Fingerprint());

  CascadeMatcher::Options ref_mode = base;
  ref_mode.exact_reference = true;
  EXPECT_NE(CascadeMatcher(&gate, &expensive, ref_mode).Fingerprint(),
            reference.Fingerprint());

  EXPECT_NE(CascadeMatcher(&other_gate, &expensive, base).Fingerprint(),
            reference.Fingerprint());
  EXPECT_NE(CascadeMatcher(&gate, &gate, base).Fingerprint(),
            reference.Fingerprint());
}

TEST(CascadeMatcherTest, NameDescribesBothTiers) {
  FieldScoreMatcher gate("gate");
  HeuristicIdMatcher expensive;
  CascadeMatcher cascade(&gate, &expensive, {});
  EXPECT_EQ(cascade.name(), "Cascade(gate->" + expensive.name() + ")");
}

}  // namespace
}  // namespace gralmatch
