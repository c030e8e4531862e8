#ifndef GRALMATCH_NN_OPTIMIZER_H_
#define GRALMATCH_NN_OPTIMIZER_H_

/// \file optimizer.h
/// Trainable parameter tensors and the Adam optimizer used for fine-tuning
/// the transformer matcher.

#include <string>
#include <vector>

#include "nn/matrix.h"

namespace gralmatch {

/// \brief One trainable tensor: value, accumulated gradient and Adam moments.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;
  Matrix m;  ///< Adam first moment
  Matrix v;  ///< Adam second moment

  /// Allocate and initialize with N(0, std^2); std == 0 leaves zeros
  /// (biases, LayerNorm beta) and std < 0 fills with ones (LayerNorm gamma).
  void Init(const std::string& param_name, size_t rows, size_t cols, Rng* rng,
            float std);

  void ZeroGrad() { grad.Zero(); }
  size_t size() const { return value.size(); }
};

/// \brief Adam with bias correction and optional gradient clipping.
class AdamOptimizer {
 public:
  struct Options {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    /// Clip the global gradient norm to this value (0 disables clipping).
    float clip_norm = 1.0f;
  };

  AdamOptimizer() : options_() {}
  explicit AdamOptimizer(Options options) : options_(options) {}

  /// Apply one update to every parameter and zero the gradients.
  void Step(const std::vector<Parameter*>& params);

  Options* mutable_options() { return &options_; }

 private:
  Options options_;
  int64_t t_ = 0;
};

}  // namespace gralmatch

#endif  // GRALMATCH_NN_OPTIMIZER_H_
