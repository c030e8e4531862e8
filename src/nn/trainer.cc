#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/stopwatch.h"

namespace gralmatch {

EpochStats Trainer::Evaluate(const TransformerClassifier& model,
                             const std::vector<TrainExample>& examples) {
  // Scored through the packed PredictBatch forward in fixed-size chunks;
  // its rows are bitwise Predict's, so the loss and counts are too.
  constexpr size_t kChunk = 64;
  EpochStats stats;
  double loss = 0.0;
  std::vector<EncodedSequence> chunk;
  for (size_t begin = 0; begin < examples.size(); begin += kChunk) {
    const size_t end = std::min(examples.size(), begin + kChunk);
    chunk.clear();
    for (size_t i = begin; i < end; ++i) {
      chunk.push_back(examples[i].AsSequence());
    }
    const Matrix probs = model.PredictBatch(
        Span<const EncodedSequence>(chunk.data(), chunk.size()));
    for (size_t i = begin; i < end; ++i) {
      const TrainExample& ex = examples[i];
      const float* p = probs.row(i - begin);
      loss += -std::log(std::max(p[static_cast<size_t>(ex.label)], 1e-12f));
      bool predicted_match = p[1] >= p[0];
      if (predicted_match && ex.label == 1) ++stats.val_metrics.tp;
      else if (predicted_match && ex.label == 0) ++stats.val_metrics.fp;
      else if (!predicted_match && ex.label == 1) ++stats.val_metrics.fn;
      else ++stats.val_metrics.tn;
    }
  }
  stats.val_loss = examples.empty() ? 0.0 : loss / double(examples.size());
  return stats;
}

TrainResult Trainer::Fit(TransformerClassifier* model,
                         const std::vector<TrainExample>& train,
                         const std::vector<TrainExample>& val) const {
  TrainResult result;
  Stopwatch watch;
  model->mutable_optimizer_options()->lr = options_.lr;

  Rng rng(options_.shuffle_seed);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  // Snapshot of the best epoch's weights.
  TransformerClassifier best(model->config());
  double best_val_loss = std::numeric_limits<double>::infinity();
  size_t best_epoch = 0;

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t in_batch = 0;
    for (size_t idx : order) {
      const TrainExample& ex = train[idx];
      epoch_loss += model->ForwardBackward(ex.AsSequence(), ex.label);
      if (++in_batch == options_.batch_size) {
        model->Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) model->Step();

    EpochStats stats = Evaluate(*model, val);
    stats.train_loss = train.empty() ? 0.0 : epoch_loss / double(train.size());
    if (options_.verbose) {
      std::fprintf(stderr,
                   "  epoch %zu: train_loss=%.4f val_loss=%.4f val_f1=%.4f\n",
                   epoch + 1, stats.train_loss, stats.val_loss,
                   stats.val_metrics.F1());
    }
    if (stats.val_loss < best_val_loss) {
      best_val_loss = stats.val_loss;
      best_epoch = epoch;
      best.CopyWeightsFrom(*model);
    }
    result.epochs.push_back(stats);
  }

  model->CopyWeightsFrom(best);
  result.best_epoch = best_epoch;
  result.train_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace gralmatch
