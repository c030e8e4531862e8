// Tests for the from-scratch neural substrate: matrix algebra, Adam, and the
// transformer classifier (including a finite-difference gradient check that
// validates the entire manual backprop).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "nn/transformer.h"

namespace gralmatch {
namespace {

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  for (size_t i = 0; i < 6; ++i) a.data()[i] = av[i];
  for (size_t i = 0; i < 6; ++i) b.data()[i] = bv[i];
  Matrix c;
  MatMul(a, b, &c);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatrixTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(5);
  Matrix a(4, 3), b(4, 5);
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);

  // a^T b via MatMulTN vs manual transpose.
  Matrix at(3, 4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Matrix expected, got;
  MatMul(at, b, &expected);
  MatMulTN(a, b, &got);
  ASSERT_TRUE(expected.SameShape(got));
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected.data()[i], got.data()[i], 1e-5f);
  }

  // a b^T via MatMulNT.
  Matrix c(5, 3);
  c.FillNormal(&rng, 1.0f);
  Matrix ct(3, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) ct.at(j, i) = c.at(i, j);
  }
  Matrix expected2, got2;
  MatMul(a, ct, &expected2);   // (4x3)(3x5)
  MatMulNT(a, c, &got2);
  ASSERT_TRUE(expected2.SameShape(got2));
  for (size_t i = 0; i < expected2.size(); ++i) {
    EXPECT_NEAR(expected2.data()[i], got2.data()[i], 1e-5f);
  }
}

TEST(MatrixTest, AddScaleZero) {
  Matrix a(2, 2), b(2, 2);
  for (size_t i = 0; i < 4; ++i) {
    a.data()[i] = static_cast<float>(i);
    b.data()[i] = 1.0f;
  }
  a.Add(b);
  EXPECT_FLOAT_EQ(a.at(1, 1), 4.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 8.0f);
  a.Zero();
  EXPECT_FLOAT_EQ(a.at(0, 0), 0.0f);
}

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize f(w) = 0.5 * ||w - target||^2 with Adam.
  Rng rng(7);
  Parameter p;
  p.Init("w", 1, 4, &rng, 1.0f);
  float target[] = {1.0f, -2.0f, 3.0f, 0.5f};
  AdamOptimizer::Options opts;
  opts.lr = 0.05f;
  opts.clip_norm = 0.0f;
  AdamOptimizer adam(opts);
  for (int step = 0; step < 500; ++step) {
    for (size_t i = 0; i < 4; ++i) {
      p.grad.data()[i] = p.value.data()[i] - target[i];
    }
    adam.Step({&p});
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(p.value.data()[i], target[i], 1e-2f);
  }
  EXPECT_EQ(adam.step_count(), 500);
}

TEST(AdamTest, GradientClippingBoundsUpdate) {
  Rng rng(7);
  Parameter p;
  p.Init("w", 1, 2, &rng, 0.0f);
  AdamOptimizer::Options opts;
  opts.clip_norm = 1.0f;
  opts.lr = 1.0f;
  AdamOptimizer adam(opts);
  p.grad.data()[0] = 1e6f;
  p.grad.data()[1] = 1e6f;
  adam.Step({&p});
  // Clipped gradient norm is 1, so Adam's first bias-corrected update is
  // bounded by lr (elementwise |m_hat/sqrt(v_hat)| <= 1 on the first step).
  EXPECT_LE(std::abs(p.value.data()[0]), 1.0f + 1e-3f);
}

TransformerConfig TinyConfig(int32_t vocab = 12) {
  TransformerConfig config;
  config.vocab_size = vocab;
  config.d_model = 8;
  config.num_heads = 2;
  config.num_layers = 2;
  config.d_ff = 12;
  config.max_seq_len = 6;
  config.num_classes = 2;
  config.seed = 11;
  return config;
}

TEST(TransformerTest, PredictReturnsProbabilities) {
  TransformerClassifier model(TinyConfig());
  auto probs = model.Predict({2, 6, 7, 3, 8});
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-5);
  EXPECT_GT(probs[0], 0.0);
  EXPECT_GT(probs[1], 0.0);
}

TEST(TransformerTest, TruncatesLongSequences) {
  TransformerClassifier model(TinyConfig());
  std::vector<int32_t> tokens(100, 6);
  auto probs = model.Predict(tokens);  // must not crash / read OOB
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-5);
}

TEST(TransformerTest, OutOfRangeTokensMapToPad) {
  TransformerClassifier model(TinyConfig());
  auto a = model.Predict({2, 500, 3});
  auto b = model.Predict({2, 0, 3});
  EXPECT_NEAR(a[1], b[1], 1e-6);
}

// Finite-difference gradient check of the full backward pass. For a handful
// of parameters across every tensor type, compare analytic dL/dw with
// (L(w+h) - L(w-h)) / 2h.
TEST(TransformerTest, GradientCheck) {
  TransformerClassifier model(TinyConfig());
  std::vector<int32_t> tokens = {2, 6, 9, 3, 10, 7};
  const int label = 1;

  // Accumulate gradients exactly once; snapshot them before the numeric
  // probing (Loss() does not touch gradients).
  model.ForwardBackward(tokens, label);
  auto params = model.parameters();
  std::vector<Matrix> grad_snapshot;
  grad_snapshot.reserve(params.size());
  for (Parameter* p : params) grad_snapshot.push_back(p->grad);

  const float h = 1e-3f;
  Rng rng(123);
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    // Check up to 4 random coordinates per tensor.
    size_t checks = std::min<size_t>(4, p->size());
    for (size_t c = 0; c < checks; ++c) {
      size_t idx = static_cast<size_t>(rng.Uniform(p->size()));
      float saved = p->value.data()[idx];
      float analytic = grad_snapshot[pi].data()[idx];

      p->value.data()[idx] = saved + h;
      float loss_plus = model.Loss(tokens, label);
      p->value.data()[idx] = saved - h;
      float loss_minus = model.Loss(tokens, label);
      p->value.data()[idx] = saved;

      float numeric = (loss_plus - loss_minus) / (2.0f * h);
      // Mixed absolute/relative tolerance: activations are O(1), float32.
      float tol = 2e-2f * std::max(1.0f, std::abs(numeric));
      EXPECT_NEAR(analytic, numeric, tol)
          << "parameter " << p->name << " index " << idx;
    }
  }
}

// Gradient check with segment ids and shared flags set, exercising the
// seg_/shared_ embedding gradients (an all-zero input would leave their
// row-1 gradients trivially zero).
TEST(TransformerTest, GradientCheckWithPairFeatures) {
  TransformerClassifier model(TinyConfig());
  EncodedSequence input;
  input.tokens = {2, 6, 9, 3, 9, 7};
  input.segments = {0, 0, 0, 1, 1, 1};
  input.shared = {0, 0, 1, 0, 1, 0};
  const int label = 0;

  model.ForwardBackward(input, label);
  auto params = model.parameters();
  std::vector<Matrix> grad_snapshot;
  for (Parameter* p : params) grad_snapshot.push_back(p->grad);

  const float h = 1e-3f;
  Rng rng(321);
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    if (p->name != "seg" && p->name != "shared" && p->name != "embed") continue;
    for (size_t c = 0; c < 6; ++c) {
      size_t idx = static_cast<size_t>(rng.Uniform(p->size()));
      float saved = p->value.data()[idx];
      float analytic = grad_snapshot[pi].data()[idx];
      p->value.data()[idx] = saved + h;
      float loss_plus = model.Loss(input, label);
      p->value.data()[idx] = saved - h;
      float loss_minus = model.Loss(input, label);
      p->value.data()[idx] = saved;
      float numeric = (loss_plus - loss_minus) / (2.0f * h);
      float tol = 2e-2f * std::max(1.0f, std::abs(numeric));
      EXPECT_NEAR(analytic, numeric, tol)
          << "parameter " << p->name << " index " << idx;
    }
  }
}

TEST(TransformerTest, PairFeaturesChangeThePrediction) {
  TransformerClassifier model(TinyConfig());
  EncodedSequence plain{{2, 6, 9, 3, 9, 7}, {}, {}};
  EncodedSequence flagged = plain;
  flagged.segments = {0, 0, 0, 1, 1, 1};
  flagged.shared = {0, 0, 1, 0, 1, 0};
  auto a = model.Predict(plain);
  auto b = model.Predict(flagged);
  EXPECT_NE(a[1], b[1]);
}

TEST(TransformerTest, IdentityAttentionInitToggle) {
  TransformerConfig with = TinyConfig();
  TransformerConfig without = TinyConfig();
  without.identity_attention_init = false;
  TransformerClassifier m1(with), m2(without);
  // Same seed but different init paths: predictions must differ, and both
  // must remain valid probability distributions.
  auto p1 = m1.Predict({2, 6, 7, 8});
  auto p2 = m2.Predict({2, 6, 7, 8});
  EXPECT_NE(p1[1], p2[1]);
  EXPECT_NEAR(p1[0] + p1[1], 1.0, 1e-5);
  EXPECT_NEAR(p2[0] + p2[1], 1.0, 1e-5);
}

TEST(TransformerTest, LearnsSeparableTask) {
  // Token 6 present => class 1; absent => class 0.
  TransformerConfig config = TinyConfig(20);
  TransformerClassifier model(config);
  Rng rng(17);
  std::vector<TrainExample> train, val;
  for (int i = 0; i < 300; ++i) {
    TrainExample ex;
    ex.label = static_cast<int>(rng.Uniform(2));
    ex.tokens.assign(1, 2);  // [CLS]
    for (int t = 0; t < 4; ++t) {
      int32_t tok = static_cast<int32_t>(7 + rng.Uniform(12));
      ex.tokens.push_back(tok);
    }
    if (ex.label == 1) {
      ex.tokens[1 + rng.Uniform(4)] = 6;
    }
    (i % 5 == 0 ? val : train).push_back(ex);
  }
  Trainer::Options opts;
  opts.epochs = 8;
  opts.batch_size = 8;
  opts.lr = 3e-3f;
  Trainer trainer(opts);
  TrainResult result = trainer.Fit(&model, train, val);
  EpochStats final_stats = Trainer::Evaluate(model, val);
  EXPECT_GT(final_stats.val_metrics.Accuracy(), 0.93)
      << "best epoch " << result.best_epoch;
}

TEST(TransformerTest, SaveLoadRoundTrip) {
  TransformerConfig config = TinyConfig();
  TransformerClassifier model(config);
  // Perturb away from init so the round-trip is meaningful.
  model.ForwardBackward({2, 6, 7}, 1);
  model.Step();

  std::string path = ::testing::TempDir() + "/transformer_roundtrip.bin";
  ASSERT_TRUE(model.Save(path).ok());

  TransformerClassifier loaded(config);
  ASSERT_TRUE(loaded.Load(path).ok());
  auto a = model.Predict({2, 6, 9, 3});
  auto b = loaded.Predict({2, 6, 9, 3});
  EXPECT_FLOAT_EQ(a[0], b[0]);
  EXPECT_FLOAT_EQ(a[1], b[1]);
}

TEST(TransformerTest, LoadRejectsConfigMismatch) {
  TransformerClassifier model(TinyConfig());
  std::string path = ::testing::TempDir() + "/transformer_mismatch.bin";
  ASSERT_TRUE(model.Save(path).ok());

  TransformerConfig other = TinyConfig();
  other.d_model = 16;
  other.num_heads = 4;
  TransformerClassifier wrong(other);
  EXPECT_FALSE(wrong.Load(path).ok());
}

TEST(TransformerTest, NumParametersPositiveAndStable) {
  TransformerClassifier model(TinyConfig());
  size_t n = model.NumParameters();
  EXPECT_GT(n, 100u);
  EXPECT_EQ(n, model.NumParameters());
}

TEST(TrainerTest, EvaluateConfusionCounts) {
  TransformerClassifier model(TinyConfig());
  std::vector<TrainExample> examples = {
      {{2, 6, 7}, {}, {}, 1}, {{2, 8, 9}, {}, {}, 0}, {{2, 10, 11}, {}, {}, 1}};
  EpochStats stats = Trainer::Evaluate(model, examples);
  const auto& m = stats.val_metrics;
  EXPECT_EQ(m.tp + m.fp + m.fn + m.tn, 3);
  EXPECT_GT(stats.val_loss, 0.0);
}

TEST(TrainerTest, EvaluateEqualsPerExamplePredict) {
  // Evaluate scores through PredictBatch in chunks; 150 examples of
  // lengths 1..9 (max_seq_len 6) span three chunks. Loss and counts must
  // be bitwise what a per-example Predict loop gives, or the best-epoch
  // choice could move. The model is half-trained on LearnsSeparableTask's
  // rule (token 6 => class 1) so it predicts both classes.
  TransformerClassifier model(TinyConfig(20));
  Rng rng(21);
  std::vector<TrainExample> examples;
  for (int i = 0; i < 150; ++i) {
    const size_t len = 1 + rng.Uniform(9);
    std::vector<int32_t> tokens(1, 2);  // [CLS]
    while (tokens.size() < len) {
      tokens.push_back(static_cast<int32_t>(7 + rng.Uniform(12)));
    }
    const int label = static_cast<int>(rng.Uniform(2));
    if (label == 1 && len > 1) tokens[1 + rng.Uniform(len - 1)] = 6;
    examples.push_back({std::move(tokens), {}, {}, label});
  }
  Trainer::Options opts;
  opts.epochs = 2;
  opts.batch_size = 8;
  opts.lr = 3e-3f;
  Trainer(opts).Fit(&model, examples, examples);

  double loss = 0.0;
  BinaryMetrics expected;
  for (const TrainExample& ex : examples) {
    const std::vector<float> probs = model.Predict(ex.AsSequence());
    loss += -std::log(std::max(probs[static_cast<size_t>(ex.label)], 1e-12f));
    const bool predicted_match = probs[1] >= probs[0];
    if (predicted_match && ex.label == 1) ++expected.tp;
    else if (predicted_match && ex.label == 0) ++expected.fp;
    else if (!predicted_match && ex.label == 1) ++expected.fn;
    else ++expected.tn;
  }
  const EpochStats stats = Trainer::Evaluate(model, examples);
  EXPECT_EQ(stats.val_loss, loss / double(examples.size()));
  EXPECT_EQ(stats.val_metrics.tp, expected.tp);
  EXPECT_EQ(stats.val_metrics.fp, expected.fp);
  EXPECT_EQ(stats.val_metrics.fn, expected.fn);
  EXPECT_EQ(stats.val_metrics.tn, expected.tn);
  // Both classes are predicted, so the comparison covers every count.
  EXPECT_GT(expected.tp + expected.fp, 0);
  EXPECT_GT(expected.fn + expected.tn, 0);
}

TEST(TrainerTest, BestEpochRestored) {
  // With zero epochs of training data the trainer still behaves sanely.
  TransformerClassifier model(TinyConfig());
  Trainer::Options opts;
  opts.epochs = 2;
  Trainer trainer(opts);
  std::vector<TrainExample> train = {{{2, 6, 7}, {}, {}, 1},
                                     {{2, 8, 9}, {}, {}, 0}};
  std::vector<TrainExample> val = train;
  TrainResult result = trainer.Fit(&model, train, val);
  EXPECT_EQ(result.epochs.size(), 2u);
  EXPECT_LT(result.best_epoch, 2u);
  EXPECT_GT(result.train_seconds, 0.0);
}

// --- Batched inference (PredictBatch) -------------------------------------
// The ScoreBatch/PredictBatch contract is bitwise: row s of the packed
// forward must be bit-for-bit the single-sequence Predict(inputs[s]).

/// Mixed-length fixture, including a sequence longer than max_seq_len (6)
/// that the model must truncate and segment/shared-annotated sequences.
std::vector<EncodedSequence> MixedSequences() {
  std::vector<EncodedSequence> inputs;
  inputs.push_back({{2, 6, 7, 3}, {}, {}});
  inputs.push_back({{2, 9}, {}, {}});
  inputs.push_back({{2, 6, 9, 3, 9, 7}, {0, 0, 0, 1, 1, 1}, {0, 1, 0, 0, 1, 0}});
  inputs.push_back({std::vector<int32_t>(100, 6), {}, {}});  // truncated
  inputs.push_back({{5}, {}, {}});  // [CLS] only
  inputs.push_back({{2, 7, 7, 8, 3, 6, 9}, {0, 0, 0, 1, 1, 1, 1},
                    {1, 1, 0, 1, 1, 0, 0}});  // annotated and truncated
  inputs.push_back({{2}, {1}, {1}});  // [CLS] only, annotated
  return inputs;
}

void ExpectPredictBatchEqualsPredict(const TransformerClassifier& model,
                                     const std::vector<EncodedSequence>& inputs,
                                     const std::string& context) {
  const Matrix probs = model.PredictBatch(
      Span<const EncodedSequence>(inputs.data(), inputs.size()));
  ASSERT_EQ(probs.rows(), inputs.size()) << context;
  ASSERT_EQ(probs.cols(), 2u) << context;
  for (size_t s = 0; s < inputs.size(); ++s) {
    const std::vector<float> single = model.Predict(inputs[s]);
    for (size_t c = 0; c < 2; ++c) {
      // EXPECT_EQ, not NEAR: batching must not change a single bit.
      EXPECT_EQ(probs.at(s, c), single[c])
          << context << " sequence " << s << " class " << c;
    }
  }
}

TEST(TransformerTest, PredictBatchBitwiseEqualsPredict) {
  // PredictBatch runs the last block on the [CLS] rows only, so depth 1
  // (the pruned block is also the first), 2 and 3 and every head split
  // are distinct cases. Trained weights (a few Adam steps) exercise
  // non-init parameters and the ReLU zeros of a trained FFN.
  const std::vector<EncodedSequence> inputs = MixedSequences();
  for (size_t layers : {1u, 2u, 3u}) {
    for (size_t heads : {1u, 2u, 4u}) {
      TransformerConfig config = TinyConfig();
      config.num_layers = layers;
      config.num_heads = heads;
      TransformerClassifier model(config);
      const std::string context = "layers=" + std::to_string(layers) +
                                  " heads=" + std::to_string(heads);
      ExpectPredictBatchEqualsPredict(model, inputs, context + " init");
      model.mutable_optimizer_options()->lr = 0.05f;
      for (int round = 0; round < 3; ++round) {
        for (size_t s = 0; s < inputs.size(); ++s) {
          model.ForwardBackward(inputs[s], static_cast<int>((s + round) % 2));
        }
        model.Step();
      }
      ExpectPredictBatchEqualsPredict(model, inputs, context + " trained");
    }
  }
}

TEST(TransformerTest, PredictBatchIndependentOfBatchSplit) {
  TransformerClassifier model(TinyConfig());
  const std::vector<EncodedSequence> inputs = MixedSequences();
  const Matrix all =
      model.PredictBatch(Span<const EncodedSequence>(inputs.data(), inputs.size()));
  // Every contiguous two-way split reproduces the full-batch rows exactly.
  for (size_t cut = 0; cut <= inputs.size(); ++cut) {
    const Matrix lo = model.PredictBatch(
        Span<const EncodedSequence>(inputs.data(), cut));
    const Matrix hi = model.PredictBatch(
        Span<const EncodedSequence>(inputs.data() + cut, inputs.size() - cut));
    for (size_t s = 0; s < inputs.size(); ++s) {
      const Matrix& part = s < cut ? lo : hi;
      const size_t r = s < cut ? s : s - cut;
      for (size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(all.at(s, c), part.at(r, c))
            << "cut " << cut << " sequence " << s;
      }
    }
  }
}

TEST(TransformerTest, PredictBatchEmptyBatch) {
  TransformerClassifier model(TinyConfig());
  const Matrix probs = model.PredictBatch(Span<const EncodedSequence>());
  EXPECT_EQ(probs.rows(), 0u);
}

}  // namespace
}  // namespace gralmatch
