#ifndef GRALMATCH_MATCHING_TRANSFORMER_MATCHER_H_
#define GRALMATCH_MATCHING_TRANSFORMER_MATCHER_H_

/// \file transformer_matcher.h
/// The language-model pairwise matcher: a subword vocabulary, a pair
/// serializer (plain or Ditto-tagged) and the from-scratch transformer
/// classifier, with fine-tuning, persistence and the PairwiseMatcher
/// interface. One instance corresponds to one model row of Tables 3/4.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "matching/matcher.h"
#include "matching/pair_sampling.h"
#include "matching/serializer.h"
#include "nn/trainer.h"
#include "text/vocab.h"

namespace gralmatch {

/// Configuration of a transformer matcher variant.
struct TransformerMatcherConfig {
  std::string display_name = "DistilBERT";
  bool ditto_encoding = false;   ///< Ditto [COL]/[VAL] tags vs plain values
  size_t max_seq_len = 48;       ///< stands in for the paper's 128/256 tokens
  size_t d_model = 32;
  size_t num_heads = 2;
  size_t num_layers = 2;
  size_t d_ff = 64;
  size_t vocab_max_words = 6000;
  uint64_t seed = 1234;
  Trainer::Options trainer;
};

/// \brief Transformer-based pairwise matcher.
class TransformerMatcher : public PairwiseMatcher {
 public:
  explicit TransformerMatcher(TransformerMatcherConfig config);

  /// Train the subword vocabulary on the given records and initialize the
  /// model. Must be called (or Load()) before fine-tuning or scoring.
  void BuildVocab(const RecordTable& records);

  /// Turn labelled pairs into encoded training examples.
  std::vector<TrainExample> MakeExamples(
      const RecordTable& records, const std::vector<LabeledPair>& pairs) const;

  /// Fine-tune on labelled pairs with best-epoch selection on `val`.
  TrainResult FineTune(const RecordTable& records,
                       const std::vector<LabeledPair>& train,
                       const std::vector<LabeledPair>& val);

  // PairwiseMatcher:
  std::string name() const override { return config_.display_name; }
  double MatchProbability(const Record& a, const Record& b) const override;

  /// Batched override: encodes every pair, then runs ONE packed forward
  /// pass (TransformerClassifier::PredictBatch) instead of pairs.size()
  /// independent ones — per-pair allocation and weight-matrix traffic are
  /// amortized over the batch. Scores are bitwise-identical to per-pair
  /// MatchProbability for any batch composition (the PredictBatch
  /// guarantee); see docs/matchers.md "Batched inference".
  void ScoreBatch(const RecordTable& records, Span<const RecordPair> pairs,
                  Span<double> out) const override;

  /// Name plus a process-unique revision that changes on every mutation of
  /// the trained state (BuildVocab, FineTune, Load), so a retrained or
  /// reloaded matcher never aliases a stale pair-score cache entry. Not
  /// stable across processes — it keys in-memory caches only.
  std::string Fingerprint() const override;

  /// Persist vocabulary + weights into a directory (created if needed).
  Status Save(const std::string& dir) const;

  /// Restore a matcher saved with Save(). The config must match.
  Status Load(const std::string& dir);

  const TransformerMatcherConfig& config() const { return config_; }
  const SubwordVocab& vocab() const { return vocab_; }

 private:
  TransformerMatcherConfig config_;
  SubwordVocab vocab_;
  std::unique_ptr<PairSerializer> serializer_;
  std::unique_ptr<TransformerClassifier> model_;
  /// Bumped to a fresh process-unique value by every state mutation.
  uint64_t revision_ = 0;
};

}  // namespace gralmatch

#endif  // GRALMATCH_MATCHING_TRANSFORMER_MATCHER_H_
