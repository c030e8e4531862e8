// Tests for the from-scratch neural substrate: matrix algebra, Adam, and the
// transformer classifier (including a finite-difference gradient check that
// validates the entire manual backprop).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/matmul_kernel.h"
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

// --- Row-kernel differential: every compiled instantiation against a naive
// triple loop that keeps the per-element operation order and zero-skip rule
// (nn/matmul_kernel.h), compared bit pattern by bit pattern.

enum class Product { kMatMul, kMatMulAcc, kMatMulTN, kMatMulNT };

const char* ProductName(Product kind) {
  switch (kind) {
    case Product::kMatMul:
      return "MatMul";
    case Product::kMatMulAcc:
      return "MatMulAcc";
    case Product::kMatMulTN:
      return "MatMulTN";
    case Product::kMatMulNT:
      return "MatMulNT";
  }
  return "?";
}

/// The instantiations this binary can run: the portable one always, the
/// AVX2 one when it is compiled in and the CPU reports AVX2.
std::vector<std::pair<std::string, nn_internal::RowKernel>> Kernels() {
  std::vector<std::pair<std::string, nn_internal::RowKernel>> kernels;
  kernels.emplace_back("portable", nn_internal::PortableKernel());
  if (nn_internal::RowKernel avx2 = nn_internal::Avx2Kernel()) {
    kernels.emplace_back("avx2", avx2);
  }
  return kernels;
}

/// out(i, j) from +0.0f (or the prefill), adding a(i, p) * b(p, j) in
/// ascending p; terms with a zero a(i, p) are skipped except in MatMulNT.
/// `a` and `b` are the operands as passed to the product.
Matrix ReferenceProduct(Product kind, const Matrix& a, const Matrix& b,
                        const Matrix& prefill) {
  const bool tn = kind == Product::kMatMulTN;
  const bool nt = kind == Product::kMatMulNT;
  const size_t m = tn ? a.cols() : a.rows();
  const size_t k = tn ? a.rows() : a.cols();
  const size_t n = nt ? b.rows() : b.cols();
  Matrix out(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = kind == Product::kMatMulAcc ? prefill.at(i, j) : 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float av = tn ? a.at(p, i) : a.at(i, p);
        const float bv = nt ? b.at(j, p) : b.at(p, j);
        if (!nt && av == 0.0f) continue;
        acc = acc + av * bv;
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

Matrix RunProduct(nn_internal::RowKernel kernel, Product kind, const Matrix& a,
                  const Matrix& b, const Matrix& prefill) {
  Matrix out;
  switch (kind) {
    case Product::kMatMul:
      nn_internal::MatMulWith(kernel, a, b, &out);
      break;
    case Product::kMatMulAcc:
      out = prefill;
      nn_internal::MatMulWith(kernel, a, b, &out, /*accumulate=*/true);
      break;
    case Product::kMatMulTN:
      nn_internal::MatMulTNWith(kernel, a, b, &out);
      break;
    case Product::kMatMulNT:
      nn_internal::MatMulNTWith(kernel, a, b, &out);
      break;
  }
  return out;
}

/// Normal values mixed with exact +0.0, -0.0 and subnormals at `zero_rate`.
float KernelTestValue(Rng* rng, double zero_rate) {
  const double u = rng->UniformDouble();
  if (u < zero_rate * 0.6) return 0.0f;
  if (u < zero_rate) return -0.0f;
  if (u < zero_rate + 0.05) return rng->Bernoulli(0.5) ? 3e-40f : -7e-41f;
  return static_cast<float>(rng->Normal());
}

/// rows x cols with every other row free of zeros (so both the in-place
/// two-row path and the zero-skip gather path run) and the rest at
/// `zero_rate`.
Matrix KernelTestMatrix(Rng* rng, size_t rows, size_t cols, double zero_rate,
                        bool zero_free_even_rows) {
  Matrix x(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    const bool zero_free = zero_free_even_rows && i % 2 == 0;
    for (size_t j = 0; j < cols; ++j) {
      float v = KernelTestValue(rng, zero_rate);
      while (zero_free && v == 0.0f) v = KernelTestValue(rng, zero_rate);
      x.at(i, j) = v;
    }
  }
  return x;
}

Matrix Transposed(const Matrix& x) {
  Matrix t(x.cols(), x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) t.at(j, i) = x.at(i, j);
  }
  return t;
}

uint32_t Bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Same shape and the same bit pattern in every element (so -0.0 differs
/// from +0.0, and NaNs compare by payload).
bool BitwiseEqual(const Matrix& x, const Matrix& y) {
  if (!x.SameShape(y)) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (Bits(x.data()[i]) != Bits(y.data()[i])) return false;
  }
  return true;
}

TEST(MatMulKernelTest, EveryInstantiationBitwiseEqualsTheReference) {
  Rng rng(19);
  const size_t kNs[] = {1, 7, 8, 15, 16, 17, 31, 33, 48, 64};
  // 200 > the kernel's term block, so sparse rows also spill and reload
  // their accumulators mid-reduction.
  const size_t kKs[] = {1, 2, 3, 16, 32, 64, 200};
  const size_t kMs[] = {1, 2, 5};
  const Product kKinds[] = {Product::kMatMul, Product::kMatMulAcc,
                            Product::kMatMulTN, Product::kMatMulNT};
  for (const auto& [name, kernel] : Kernels()) {
    for (size_t n : kNs) {
      for (size_t k : kKs) {
        for (size_t m : kMs) {
          for (double zero_rate : {0.0, 0.3}) {
            // `logical_a` is the m x k left operand the kernel sees.
            const Matrix logical_a =
                KernelTestMatrix(&rng, m, k, zero_rate, true);
            const Matrix b = KernelTestMatrix(&rng, k, n, 0.3, false);
            const Matrix prefill = KernelTestMatrix(&rng, m, n, 0.3, false);
            for (Product kind : kKinds) {
              const Matrix a = kind == Product::kMatMulTN
                                   ? Transposed(logical_a)
                                   : logical_a;
              const Matrix rhs =
                  kind == Product::kMatMulNT ? Transposed(b) : b;
              const Matrix want = ReferenceProduct(kind, a, rhs, prefill);
              const Matrix got = RunProduct(kernel, kind, a, rhs, prefill);
              ASSERT_TRUE(BitwiseEqual(want, got))
                  << name << " " << ProductName(kind) << " m=" << m
                  << " k=" << k << " n=" << n << " zero_rate=" << zero_rate;
            }
          }
        }
      }
    }
  }
}

TEST(MatMulKernelTest, PublicEntryPointsRunThePickedKernel) {
  Rng rng(23);
  const Matrix a = KernelTestMatrix(&rng, 5, 33, 0.3, true);
  const Matrix b = KernelTestMatrix(&rng, 33, 17, 0.3, false);
  const Matrix bt = Transposed(b);
  const Matrix none;
  Matrix got;
  MatMul(a, b, &got);
  EXPECT_TRUE(
      BitwiseEqual(ReferenceProduct(Product::kMatMul, a, b, none), got));
  MatMulNT(a, bt, &got);
  EXPECT_TRUE(
      BitwiseEqual(ReferenceProduct(Product::kMatMulNT, a, bt, none), got));
  const Matrix at = Transposed(a);
  MatMulTN(at, b, &got);
  EXPECT_TRUE(
      BitwiseEqual(ReferenceProduct(Product::kMatMulTN, at, b, none), got));
}

TEST(MatMulKernelTest, MultiplyAndAddRoundSeparately) {
  // (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 is not a float: the product rounds
  // to 1 + 2^-11 and cancels the first term exactly. A fused multiply-add
  // would keep the 2^-24. This pins -ffp-contract=off (CMakeLists.txt) on
  // builds whose -march has FMA, independently of any libm.
  const float x = 1.0f + std::ldexp(1.0f, -12);
  Matrix a(1, 2), b(2, 1), bt(1, 2), out;
  a.at(0, 0) = 1.0f;
  a.at(0, 1) = x;
  b.at(0, 0) = -(1.0f + std::ldexp(1.0f, -11));
  b.at(1, 0) = x;
  bt.at(0, 0) = b.at(0, 0);
  bt.at(0, 1) = b.at(1, 0);
  for (const auto& [name, kernel] : Kernels()) {
    SCOPED_TRACE(name);
    nn_internal::MatMulWith(kernel, a, b, &out);
    EXPECT_EQ(out.at(0, 0), 0.0f);
    nn_internal::MatMulTNWith(kernel, Transposed(a), b, &out);
    EXPECT_EQ(out.at(0, 0), 0.0f);
    nn_internal::MatMulNTWith(kernel, a, bt, &out);
    EXPECT_EQ(out.at(0, 0), 0.0f);
  }
}

TEST(MatMulKernelTest, ZeroOppositeInfIsSkippedExceptByMatMulNT) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto& [name, kernel] : Kernels()) {
    SCOPED_TRACE(name);
    // a = [0, 1] against the column [inf, 2]: the skip drops 0 * inf.
    Matrix a(1, 2), b(2, 1), out;
    a.at(0, 0) = 0.0f;
    a.at(0, 1) = 1.0f;
    b.at(0, 0) = inf;
    b.at(1, 0) = 2.0f;
    nn_internal::MatMulWith(kernel, a, b, &out);
    EXPECT_EQ(out.at(0, 0), 2.0f);
    nn_internal::MatMulTNWith(kernel, Transposed(a), b, &out);
    EXPECT_EQ(out.at(0, 0), 2.0f);
    // The dot product adds every term, so 0 * inf makes the result NaN.
    nn_internal::MatMulNTWith(kernel, a, Transposed(b), &out);
    EXPECT_TRUE(std::isnan(out.at(0, 0)));
  }
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
  const BinaryMetrics m = Trainer::Evaluate(model, val).val_metrics;
  const double accuracy = static_cast<double>(m.tp + m.tn) /
                          static_cast<double>(m.tp + m.fp + m.fn + m.tn);
  EXPECT_GT(accuracy, 0.93) << "best epoch " << result.best_epoch;
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
