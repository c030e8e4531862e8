#ifndef GRALMATCH_NN_TRANSFORMER_H_
#define GRALMATCH_NN_TRANSFORMER_H_

/// \file transformer.h
/// From-scratch transformer encoder for sequence-pair classification — the
/// stand-in for DistilBERT fine-tuning in the paper (see DESIGN.md). The
/// architecture mirrors the standard pre-LN encoder: token + position
/// embeddings, `num_layers` blocks of multi-head self-attention and a
/// position-wise feed-forward network with residual connections, a final
/// LayerNorm, and a softmax classification head on the [CLS] position.
/// Forward, backward (manual backprop) and Adam updates are implemented
/// directly; no external ML runtime is used.

#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "nn/optimizer.h"

namespace gralmatch {

/// Model hyperparameters. Scaled for single-core CPU fine-tuning; the
/// relative behaviours under study (precision/recall trade-offs across
/// training-set sizes and serializations) survive the scaling.
struct TransformerConfig {
  int32_t vocab_size = 0;
  size_t d_model = 32;
  size_t num_heads = 2;
  size_t num_layers = 2;
  size_t d_ff = 64;
  size_t max_seq_len = 48;
  size_t num_classes = 2;
  uint64_t seed = 1234;
  /// Initialize the attention Q/K projections near the identity matrix.
  /// A pretrained BERT arrives with attention heads that align identical /
  /// similar tokens across the two records of a pair; a from-scratch model
  /// has to discover that circuit from few labelled pairs. Identity-
  /// initialized Q/K builds the token-alignment prior in at step zero and
  /// substitutes for that part of pretraining (see DESIGN.md).
  bool identity_attention_init = true;
};

/// \brief Input sequence for the classifier.
///
/// Besides token ids, a sequence may carry per-position segment ids (which
/// record of the pair a token belongs to) and "shared" flags marking tokens
/// that occur in BOTH records. Pretrained BERT-family models arrive with
/// attention heads that align identical tokens across the two records; a
/// from-scratch model at this data scale cannot discover that circuit, so
/// the alignment is provided as an input feature (a standard interaction
/// feature in neural entity matching; see DESIGN.md substitution table).
/// Empty segment/shared vectors are treated as all-zero.
struct EncodedSequence {
  std::vector<int32_t> tokens;
  std::vector<int8_t> segments;  ///< 0 = first record, 1 = second record
  std::vector<int8_t> shared;    ///< 1 = token occurs in both records
};

/// \brief Transformer encoder with a classification head.
class TransformerClassifier {
 public:
  explicit TransformerClassifier(TransformerConfig config);

  /// Class probabilities for a sequence. Sequences longer than max_seq_len
  /// are truncated (the paper's 128- vs 256-token variants are reproduced
  /// through this limit).
  std::vector<float> Predict(const EncodedSequence& input) const;
  std::vector<float> Predict(const std::vector<int32_t>& tokens) const {
    return Predict(EncodedSequence{tokens, {}, {}});
  }

  /// Class probabilities for a whole batch in one packed forward pass; row s
  /// of the returned (inputs.size() x num_classes) matrix is the prediction
  /// for inputs[s]. Sequences are concatenated row-wise (no padding): the
  /// row-independent kernels run over the packed activations and attention
  /// runs per sequence, so row s is bitwise-identical to Predict(inputs[s])
  /// — batching amortizes allocations and weight-matrix traffic, it never
  /// changes scores (tests/nn_test.cc pins this). Sequences must be
  /// non-empty.
  ///
  /// The forward computes only what the classifier head reads. The head
  /// reads one row per sequence, the final [CLS] row, so the last encoder
  /// block runs LN1, K and V on every row (attention reads every key) but
  /// Q, attention, Wo, LN2, the FFN and the final LayerNorm only on the
  /// gathered [CLS] rows. Those kernels are row-independent and attention
  /// sums each row in the same order, so the pruned rows are bitwise what
  /// the full block computes; ForwardImpl (Predict, Loss, training) stays
  /// the unpruned reference.
  Matrix PredictBatch(Span<const EncodedSequence> inputs) const;

  /// Forward + backward for one example; accumulates gradients and returns
  /// the cross-entropy loss.
  float ForwardBackward(const EncodedSequence& input, int label);
  float ForwardBackward(const std::vector<int32_t>& tokens, int label) {
    return ForwardBackward(EncodedSequence{tokens, {}, {}}, label);
  }

  /// Cross-entropy loss of a prediction without touching gradients.
  float Loss(const EncodedSequence& input, int label) const;
  float Loss(const std::vector<int32_t>& tokens, int label) const {
    return Loss(EncodedSequence{tokens, {}, {}}, label);
  }

  /// Apply one Adam update (and zero gradients).
  void Step();

  /// All trainable tensors (for tests and checkpointing).
  std::vector<Parameter*> parameters();

  const TransformerConfig& config() const { return config_; }

  /// Serialize weights to a binary file.
  Status Save(const std::string& path) const;

  /// Load weights from Save()'s format; the stored config must match.
  Status Load(const std::string& path);

  AdamOptimizer::Options* mutable_optimizer_options() {
    return optimizer_.mutable_options();
  }

  /// Copy weights from another model with identical config (used to restore
  /// the best-validation-epoch snapshot).
  void CopyWeightsFrom(const TransformerClassifier& other);

 private:
  struct LayerParams {
    Parameter ln1_gamma, ln1_beta;
    Parameter wq, wk, wv, wo;
    Parameter ln2_gamma, ln2_beta;
    Parameter w1, b1, w2, b2;
  };

  struct LayerCache;
  struct ForwardCache;
  struct PackedWorkspace;

  /// Shared forward pass; cache may be null for inference.
  std::vector<float> ForwardImpl(const EncodedSequence& input,
                                 ForwardCache* cache) const;

  /// One encoder block of PredictBatch's packed forward, in place on
  /// ws->x. Every row is a key; the query rows are every row, or with
  /// `cls_only` each sequence's [CLS] row, and ws->x leaves holding the
  /// block output of the query rows only.
  void PackedBlockForward(const LayerParams& p, bool cls_only,
                          PackedWorkspace* ws) const;
  void BackwardImpl(const EncodedSequence& input, int label,
                    const ForwardCache& cache, const std::vector<float>& probs);

  TransformerConfig config_;
  Parameter embed_;  ///< vocab_size x d_model
  Parameter pos_;    ///< max_seq_len x d_model
  Parameter seg_;    ///< 2 x d_model (record A / record B)
  Parameter shared_; ///< 2 x d_model (token unshared / shared across pair)
  std::vector<LayerParams> layers_;
  Parameter lnf_gamma_, lnf_beta_;
  Parameter wc_, bc_;  ///< classifier head
  AdamOptimizer optimizer_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_NN_TRANSFORMER_H_
