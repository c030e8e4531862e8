#ifndef GRALMATCH_NN_TRAINER_H_
#define GRALMATCH_NN_TRAINER_H_

/// \file trainer.h
/// Fine-tuning driver reproducing the paper's protocol (§5.2): train for a
/// few epochs on labelled pairs and keep the epoch with the lowest
/// validation loss.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/transformer.h"

namespace gralmatch {

/// One labelled training example: a token sequence (with optional segment
/// ids and shared-token flags) and a binary label (1 = Match, 0 = NoMatch).
struct TrainExample {
  std::vector<int32_t> tokens;
  std::vector<int8_t> segments;
  std::vector<int8_t> shared;
  int label = 0;

  EncodedSequence AsSequence() const { return {tokens, segments, shared}; }
};

/// Confusion-matrix-based binary classification metrics.
struct BinaryMetrics {
  int64_t tp = 0, fp = 0, fn = 0, tn = 0;

  double Precision() const { return tp + fp == 0 ? 0.0 : double(tp) / (tp + fp); }
  double Recall() const { return tp + fn == 0 ? 0.0 : double(tp) / (tp + fn); }
  double F1() const {
    double p = Precision(), r = Recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

/// Per-epoch training statistics.
struct EpochStats {
  double train_loss = 0.0;
  double val_loss = 0.0;
  BinaryMetrics val_metrics;
};

/// Outcome of a fine-tuning run.
struct TrainResult {
  std::vector<EpochStats> epochs;
  size_t best_epoch = 0;      ///< epoch restored into the model (lowest val loss)
  double train_seconds = 0.0;
};

/// \brief Epoch/batch training loop with best-epoch restoration.
class Trainer {
 public:
  struct Options {
    size_t epochs = 5;          ///< the paper fine-tunes for 5 epochs
    size_t batch_size = 16;
    float lr = 1e-3f;
    uint64_t shuffle_seed = 99;
    bool verbose = false;       ///< print per-epoch losses to stderr
  };

  Trainer() : options_() {}
  explicit Trainer(Options options) : options_(options) {}

  /// Fine-tune `model` on `train`, selecting the best epoch on `val`.
  /// The model is left holding the best epoch's weights.
  TrainResult Fit(TransformerClassifier* model,
                  const std::vector<TrainExample>& train,
                  const std::vector<TrainExample>& val) const;

  /// Mean loss and confusion metrics of `model` on `examples`
  /// (prediction = argmax class; class 1 is "Match").
  static EpochStats Evaluate(const TransformerClassifier& model,
                             const std::vector<TrainExample>& examples);

 private:
  Options options_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_NN_TRAINER_H_
