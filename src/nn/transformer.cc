#include "nn/transformer.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "nn/simd.h"

namespace gralmatch {

namespace {

/// LayerNorm forward over each row of x. Stores normalized rows in `xhat`
/// and per-row 1/std in `inv_std` for the backward pass. Rows are
/// independent, so running it over a packed multi-sequence matrix is
/// bitwise-identical to running it per sequence.
void LayerNormForward(const Matrix& x, const Parameter& gamma,
                      const Parameter& beta, Matrix* y, Matrix* xhat,
                      std::vector<float>* inv_std) {
  const size_t rows = x.rows(), d = x.cols();
  y->Resize(rows, d);
  xhat->Resize(rows, d);
  inv_std->assign(rows, 0.0f);
  for (size_t i = 0; i < rows; ++i) {
    const float* xi = x.row(i);
    float mean = 0.0f;
    for (size_t j = 0; j < d; ++j) mean += xi[j];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (size_t j = 0; j < d; ++j) {
      float c = xi[j] - mean;
      var += c * c;
    }
    var /= static_cast<float>(d);
    float istd = 1.0f / std::sqrt(var + 1e-5f);
    (*inv_std)[i] = istd;
    float* xh = xhat->row(i);
    float* yi = y->row(i);
    const float* g = gamma.value.data();
    const float* be = beta.value.data();
    GRALMATCH_VECTOR_LOOP
    for (size_t j = 0; j < d; ++j) {
      xh[j] = (xi[j] - mean) * istd;
      yi[j] = xh[j] * g[j] + be[j];
    }
  }
}

/// LayerNorm backward. Accumulates parameter grads and writes dx (adding to
/// `dx_out` which must be presized and may already hold residual gradient).
void LayerNormBackward(const Matrix& dy, const Matrix& xhat,
                       const std::vector<float>& inv_std, Parameter* gamma,
                       Parameter* beta, Matrix* dx_out) {
  const size_t rows = dy.rows(), d = dy.cols();
  for (size_t i = 0; i < rows; ++i) {
    const float* dyi = dy.row(i);
    const float* xh = xhat.row(i);
    float* dgamma = gamma->grad.data();
    float* dbeta = beta->grad.data();
    const float* g = gamma->value.data();

    float sum_dxhat = 0.0f, sum_dxhat_xhat = 0.0f;
    for (size_t j = 0; j < d; ++j) {
      dgamma[j] += dyi[j] * xh[j];
      dbeta[j] += dyi[j];
      float dxhat = dyi[j] * g[j];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xh[j];
    }
    float* dxi = dx_out->row(i);
    const float inv_d = 1.0f / static_cast<float>(d);
    for (size_t j = 0; j < d; ++j) {
      float dxhat = dyi[j] * g[j];
      dxi[j] += inv_std[i] * (dxhat - inv_d * sum_dxhat -
                              inv_d * xh[j] * sum_dxhat_xhat);
    }
  }
}

/// dst row i = src row rows[i] (dst is rows.size() x src.cols()).
void GatherRows(const Matrix& src, Span<const size_t> rows, Matrix* dst) {
  dst->Resize(rows.size(), src.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(dst->row(i), src.row(rows[i]), src.cols() * sizeof(float));
  }
}

/// Copy head slice [h*dh, (h+1)*dh) of rows [row_begin, row_begin + rows) of
/// src into dst (rows x dh). The packed batch forward slices one sequence's
/// row range; the single-sequence path passes row_begin = 0.
void SliceHeadRange(const Matrix& src, size_t row_begin, size_t rows, size_t h,
                    size_t dh, Matrix* dst) {
  dst->Resize(rows, dh);
  for (size_t i = 0; i < rows; ++i) {
    std::memcpy(dst->row(i), src.row(row_begin + i) + h * dh,
                dh * sizeof(float));
  }
}

/// Copy head slice [h*dh, (h+1)*dh) of src (L x D) into dst (L x dh).
void SliceHead(const Matrix& src, size_t h, size_t dh, Matrix* dst) {
  SliceHeadRange(src, 0, src.rows(), h, dh, dst);
}

/// Accumulate a head slice back into a row range:
/// dst[row_begin + i, h*dh:(h+1)*dh] += src[i, :].
void UnsliceHeadRangeAcc(const Matrix& src, size_t row_begin, size_t h,
                         size_t dh, Matrix* dst) {
  const size_t rows = src.rows();
  for (size_t i = 0; i < rows; ++i) {
    float* d = dst->row(row_begin + i) + h * dh;
    const float* s = src.row(i);
    GRALMATCH_VECTOR_LOOP
    for (size_t j = 0; j < dh; ++j) d[j] += s[j];
  }
}

/// Accumulate a head slice back: dst[:, h*dh:(h+1)*dh] += src.
void UnsliceHeadAcc(const Matrix& src, size_t h, size_t dh, Matrix* dst) {
  UnsliceHeadRangeAcc(src, 0, h, dh, dst);
}

/// Scaled row-wise softmax with max-subtraction, in place. Shared by the
/// single-sequence and packed batch forwards so the operation sequence per
/// row is identical by construction. The max and sum are serial reductions
/// on purpose (see nn/simd.h); the final normalization is elementwise.
void AttentionSoftmaxRows(Matrix* scores, float scale) {
  const size_t rows = scores->rows(), cols = scores->cols();
  for (size_t i = 0; i < rows; ++i) {
    float* row = scores->row(i);
    float mx = -1e30f;
    for (size_t j = 0; j < cols; ++j) {
      row[j] *= scale;
      if (row[j] > mx) mx = row[j];
    }
    float sum = 0.0f;
    for (size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    float inv = 1.0f / sum;
    GRALMATCH_VECTOR_LOOP
    for (size_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

/// h += bias (broadcast over rows), then ReLU. Row-independent.
void AddBiasReLU(Matrix* h, const Parameter& bias) {
  const size_t rows = h->rows(), cols = h->cols();
  const float* b = bias.value.data();
  for (size_t i = 0; i < rows; ++i) {
    float* row = h->row(i);
    GRALMATCH_VECTOR_LOOP
    for (size_t j = 0; j < cols; ++j) {
      row[j] += b[j];
      if (row[j] < 0.0f) row[j] = 0.0f;  // ReLU
    }
  }
}

/// h += bias (broadcast over rows). Row-independent.
void AddBias(Matrix* h, const Parameter& bias) {
  const size_t rows = h->rows(), cols = h->cols();
  const float* b = bias.value.data();
  for (size_t i = 0; i < rows; ++i) {
    float* row = h->row(i);
    GRALMATCH_VECTOR_LOOP
    for (size_t j = 0; j < cols; ++j) row[j] += b[j];
  }
}

/// Token + position + segment + shared-flag embeddings of a sequence's first
/// `len` tokens, written into rows [row_begin, row_begin + len) of x.
void EmbedSequenceRows(const EncodedSequence& input, size_t len,
                       int32_t vocab_size, const Parameter& embed,
                       const Parameter& pos, const Parameter& seg,
                       const Parameter& shared, size_t row_begin, Matrix* x) {
  const size_t d = x->cols();
  for (size_t i = 0; i < len; ++i) {
    int32_t tok = input.tokens[i];
    if (tok < 0 || tok >= vocab_size) tok = 0;
    const float* e = embed.value.row(static_cast<size_t>(tok));
    const float* p = pos.value.row(i);
    const float* sg =
        seg.value.row(i < input.segments.size() && input.segments[i] ? 1 : 0);
    const float* sh =
        shared.value.row(i < input.shared.size() && input.shared[i] ? 1 : 0);
    float* xi = x->row(row_begin + i);
    GRALMATCH_VECTOR_LOOP
    for (size_t j = 0; j < d; ++j) xi[j] = e[j] + p[j] + sg[j] + sh[j];
  }
}

/// Classification head + softmax on one final-LayerNorm [CLS] row, written
/// into out[0, num_classes).
void ClassifyClsRow(const float* cls, const Parameter& wc, const Parameter& bc,
                    size_t d, size_t num_classes, float* out) {
  for (size_t c = 0; c < num_classes; ++c) {
    float sum = bc.value.data()[c];
    for (size_t j = 0; j < d; ++j) sum += cls[j] * wc.value.at(j, c);
    out[c] = sum;
  }
  float mx = out[0];
  for (size_t c = 0; c < num_classes; ++c) mx = std::max(mx, out[c]);
  float sum = 0.0f;
  for (size_t c = 0; c < num_classes; ++c) {
    out[c] = std::exp(out[c] - mx);
    sum += out[c];
  }
  for (size_t c = 0; c < num_classes; ++c) out[c] /= sum;
}

}  // namespace

struct TransformerClassifier::LayerCache {
  Matrix x;            // block input (L x D)
  Matrix ln1_xhat;     // LayerNorm1 cache
  std::vector<float> ln1_inv_std;
  Matrix y;            // LN1 output
  Matrix q, k, v;      // projections (L x D)
  std::vector<Matrix> attn;  // per-head attention weights (L x L)
  Matrix o;            // concatenated head outputs (L x D)
  Matrix x2;           // after attention residual
  Matrix ln2_xhat;
  std::vector<float> ln2_inv_std;
  Matrix y2;           // LN2 output
  Matrix h1;           // ReLU activations (L x F)
  Matrix x3;           // block output
};

struct TransformerClassifier::ForwardCache {
  size_t seq_len = 0;
  Matrix x0;  // embeddings input to first block
  std::vector<LayerCache> layers;
  Matrix lnf_xhat;
  std::vector<float> lnf_inv_std;
  Matrix yf;  // final LN output
};

/// PredictBatch's activations. Buffers are reshaped in place
/// (Matrix::Resize keeps capacity), so steady-state scoring performs no
/// heap allocation. Reuse is value-transparent: every buffer is fully
/// overwritten (or zero-filled) before it is read.
struct TransformerClassifier::PackedWorkspace {
  /// Sequence s owns key rows [offset[s], offset[s+1]); its [CLS] row is
  /// offset[s].
  std::vector<size_t> offset;
  /// 0, 1, ..., batch: the query-row ranges once only [CLS] rows remain.
  std::vector<size_t> cls_offset;
  Matrix x, y, yq, q, k, v, o, z, x2, y2, h1, f2, xhat, yf;
  std::vector<float> inv_std;
  Matrix qh, kh, vh, scores, oh;
};

TransformerClassifier::TransformerClassifier(TransformerConfig config)
    : config_(config) {
  Rng rng(config_.seed);
  const size_t d = config_.d_model;
  const float std_embed = 0.02f;
  const float std_proj = 1.0f / std::sqrt(static_cast<float>(d));

  embed_.Init("embed", static_cast<size_t>(config_.vocab_size), d, &rng,
              std_embed);
  pos_.Init("pos", config_.max_seq_len, d, &rng, std_embed);
  seg_.Init("seg", 2, d, &rng, std_embed);
  shared_.Init("shared", 2, d, &rng, std_embed);
  layers_.resize(config_.num_layers);
  for (size_t l = 0; l < config_.num_layers; ++l) {
    LayerParams& p = layers_[l];
    auto n = [&](const char* base) {
      return "layer" + std::to_string(l) + "." + base;
    };
    p.ln1_gamma.Init(n("ln1_gamma"), 1, d, &rng, -1.0f);
    p.ln1_beta.Init(n("ln1_beta"), 1, d, &rng, 0.0f);
    p.wq.Init(n("wq"), d, d, &rng, std_proj);
    p.wk.Init(n("wk"), d, d, &rng, std_proj);
    if (config_.identity_attention_init) {
      // Identity + small noise: heads start out matching equal tokens.
      const float kNoise = 0.05f;
      p.wq.value.Scale(kNoise);
      p.wk.value.Scale(kNoise);
      for (size_t j = 0; j < d; ++j) {
        p.wq.value.at(j, j) += 1.0f;
        p.wk.value.at(j, j) += 1.0f;
      }
    }
    p.wv.Init(n("wv"), d, d, &rng, std_proj);
    p.wo.Init(n("wo"), d, d, &rng, std_proj);
    p.ln2_gamma.Init(n("ln2_gamma"), 1, d, &rng, -1.0f);
    p.ln2_beta.Init(n("ln2_beta"), 1, d, &rng, 0.0f);
    p.w1.Init(n("w1"), d, config_.d_ff, &rng, std_proj);
    p.b1.Init(n("b1"), 1, config_.d_ff, &rng, 0.0f);
    p.w2.Init(n("w2"), config_.d_ff, d, &rng,
              1.0f / std::sqrt(static_cast<float>(config_.d_ff)));
    p.b2.Init(n("b2"), 1, d, &rng, 0.0f);
  }
  lnf_gamma_.Init("lnf_gamma", 1, d, &rng, -1.0f);
  lnf_beta_.Init("lnf_beta", 1, d, &rng, 0.0f);
  wc_.Init("wc", d, config_.num_classes, &rng, std_proj);
  bc_.Init("bc", 1, config_.num_classes, &rng, 0.0f);
}

std::vector<Parameter*> TransformerClassifier::parameters() {
  std::vector<Parameter*> out = {&embed_, &pos_, &seg_, &shared_};
  for (auto& p : layers_) {
    out.insert(out.end(),
               {&p.ln1_gamma, &p.ln1_beta, &p.wq, &p.wk, &p.wv, &p.wo,
                &p.ln2_gamma, &p.ln2_beta, &p.w1, &p.b1, &p.w2, &p.b2});
  }
  out.insert(out.end(), {&lnf_gamma_, &lnf_beta_, &wc_, &bc_});
  return out;
}

std::vector<float> TransformerClassifier::ForwardImpl(
    const EncodedSequence& input, ForwardCache* cache) const {
  const std::vector<int32_t>& tokens = input.tokens;
  const size_t d = config_.d_model;
  const size_t heads = config_.num_heads;
  const size_t dh = d / heads;
  const size_t len = std::min(tokens.size(), config_.max_seq_len);

  Matrix x(len, d);
  EmbedSequenceRows(input, len, config_.vocab_size, embed_, pos_, seg_,
                    shared_, /*row_begin=*/0, &x);
  if (cache) {
    cache->seq_len = len;
    cache->x0 = x;
    cache->layers.resize(config_.num_layers);
  }

  Matrix y, q, k, v;
  for (size_t l = 0; l < config_.num_layers; ++l) {
    const LayerParams& p = layers_[l];
    LayerCache* lc = cache ? &cache->layers[l] : nullptr;
    if (lc) lc->x = x;

    // --- Attention sublayer (pre-LN) ---
    Matrix xhat;
    std::vector<float> inv_std;
    LayerNormForward(x, p.ln1_gamma, p.ln1_beta, &y, &xhat, &inv_std);
    if (lc) {
      lc->ln1_xhat = std::move(xhat);
      lc->ln1_inv_std = std::move(inv_std);
      lc->y = y;
    }
    MatMul(y, p.wq.value, &q);
    MatMul(y, p.wk.value, &k);
    MatMul(y, p.wv.value, &v);
    if (lc) {
      lc->q = q;
      lc->k = k;
      lc->v = v;
      lc->attn.resize(heads);
    }

    Matrix o(len, d);
    o.Zero();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    Matrix qh, kh, vh, scores, oh;
    for (size_t h = 0; h < heads; ++h) {
      SliceHead(q, h, dh, &qh);
      SliceHead(k, h, dh, &kh);
      SliceHead(v, h, dh, &vh);
      MatMulNT(qh, kh, &scores);
      AttentionSoftmaxRows(&scores, scale);
      if (lc) lc->attn[h] = scores;
      MatMul(scores, vh, &oh);
      UnsliceHeadAcc(oh, h, dh, &o);
    }
    if (lc) lc->o = o;

    Matrix z;
    MatMul(o, p.wo.value, &z);
    Matrix x2 = x;
    x2.Add(z);
    if (lc) lc->x2 = x2;

    // --- Feed-forward sublayer (pre-LN) ---
    Matrix y2, xhat2;
    std::vector<float> inv_std2;
    LayerNormForward(x2, p.ln2_gamma, p.ln2_beta, &y2, &xhat2, &inv_std2);
    Matrix h1;
    MatMul(y2, p.w1.value, &h1);
    AddBiasReLU(&h1, p.b1);
    Matrix f2;
    MatMul(h1, p.w2.value, &f2);
    AddBias(&f2, p.b2);
    Matrix x3 = x2;
    x3.Add(f2);
    if (lc) {
      lc->ln2_xhat = std::move(xhat2);
      lc->ln2_inv_std = std::move(inv_std2);
      lc->y2 = std::move(y2);
      lc->h1 = std::move(h1);
      lc->x3 = x3;
    }
    x = std::move(x3);
  }

  // Final LayerNorm + classification on the [CLS] position (row 0).
  Matrix yf, xhat_f;
  std::vector<float> inv_std_f;
  LayerNormForward(x, lnf_gamma_, lnf_beta_, &yf, &xhat_f, &inv_std_f);
  if (cache) {
    cache->lnf_xhat = std::move(xhat_f);
    cache->lnf_inv_std = std::move(inv_std_f);
    cache->yf = yf;
  }

  std::vector<float> probs(config_.num_classes, 0.0f);
  ClassifyClsRow(yf.row(0), wc_, bc_, d, config_.num_classes, probs.data());
  return probs;
}

std::vector<float> TransformerClassifier::Predict(
    const EncodedSequence& input) const {
  return ForwardImpl(input, nullptr);
}

Matrix TransformerClassifier::PredictBatch(
    Span<const EncodedSequence> inputs) const {
  const size_t batch = inputs.size();
  Matrix probs(batch, config_.num_classes);
  if (batch == 0) return probs;

  // Packed (length-concatenated) layout: sequence s owns rows
  // [offset[s], offset[s+1]) of every activation matrix. No padding rows
  // exist, so no FLOP is spent on pad tokens and no masking is needed —
  // every row-independent kernel (LayerNorm, projections, FFN) runs over
  // the packed matrix and is bitwise-identical per row to the
  // single-sequence forward; only attention, which couples rows within one
  // sequence, runs per sequence on its row range.
  //
  // The workspace is thread-local: without it, every packed activation
  // matrix is large enough to hit the allocator's mmap path and the
  // page-fault churn erases the batching win.
  thread_local PackedWorkspace ws;

  std::vector<size_t>& offset = ws.offset;
  offset.assign(batch + 1, 0);
  for (size_t s = 0; s < batch; ++s) {
    assert(!inputs[s].tokens.empty() && "PredictBatch: empty sequence");
    offset[s + 1] =
        offset[s] + std::min(inputs[s].tokens.size(), config_.max_seq_len);
  }
  ws.cls_offset.resize(batch + 1);
  for (size_t s = 0; s <= batch; ++s) ws.cls_offset[s] = s;

  ws.x.Resize(offset[batch], config_.d_model);
  for (size_t s = 0; s < batch; ++s) {
    EmbedSequenceRows(inputs[s], offset[s + 1] - offset[s], config_.vocab_size,
                      embed_, pos_, seg_, shared_, offset[s], &ws.x);
  }

  // The head reads only the final [CLS] rows, so the last block computes
  // its outputs for those rows alone; earlier blocks feed every row's keys
  // and values onward and run in full.
  for (size_t l = 0; l < config_.num_layers; ++l) {
    PackedBlockForward(layers_[l], /*cls_only=*/l + 1 == config_.num_layers,
                       &ws);
  }

  // Final LayerNorm + classification on each sequence's [CLS] row.
  const std::vector<size_t>& cls_rows =
      config_.num_layers > 0 ? ws.cls_offset : offset;
  LayerNormForward(ws.x, lnf_gamma_, lnf_beta_, &ws.yf, &ws.xhat, &ws.inv_std);
  for (size_t s = 0; s < batch; ++s) {
    ClassifyClsRow(ws.yf.row(cls_rows[s]), wc_, bc_, config_.d_model,
                   config_.num_classes, probs.row(s));
  }
  return probs;
}

void TransformerClassifier::PackedBlockForward(const LayerParams& p,
                                               bool cls_only,
                                               PackedWorkspace* ws) const {
  const size_t d = config_.d_model;
  const size_t heads = config_.num_heads;
  const size_t dh = d / heads;
  const std::vector<size_t>& offset = ws->offset;
  const size_t batch = offset.size() - 1;

  // --- Attention sublayer (pre-LN) ---
  // Keys and values come from every row; queries, and everything after
  // attention, only from the query rows. x2 starts as the query rows'
  // residual input.
  LayerNormForward(ws->x, p.ln1_gamma, p.ln1_beta, &ws->y, &ws->xhat,
                   &ws->inv_std);
  MatMul(ws->y, p.wk.value, &ws->k);
  MatMul(ws->y, p.wv.value, &ws->v);
  const Matrix* yq = &ws->y;
  const std::vector<size_t>* q_offset = &offset;
  if (cls_only) {
    const Span<const size_t> cls_rows(offset.data(), batch);
    GatherRows(ws->y, cls_rows, &ws->yq);
    GatherRows(ws->x, cls_rows, &ws->x2);
    yq = &ws->yq;
    q_offset = &ws->cls_offset;
  } else {
    ws->x2 = ws->x;
  }
  MatMul(*yq, p.wq.value, &ws->q);
  ws->o.ResizeZero(yq->rows(), d);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (size_t s = 0; s < batch; ++s) {
    const size_t k_begin = offset[s];
    const size_t k_len = offset[s + 1] - k_begin;
    const size_t q_begin = (*q_offset)[s];
    const size_t q_len = (*q_offset)[s + 1] - q_begin;
    for (size_t h = 0; h < heads; ++h) {
      SliceHeadRange(ws->q, q_begin, q_len, h, dh, &ws->qh);
      SliceHeadRange(ws->k, k_begin, k_len, h, dh, &ws->kh);
      SliceHeadRange(ws->v, k_begin, k_len, h, dh, &ws->vh);
      MatMulNT(ws->qh, ws->kh, &ws->scores);
      AttentionSoftmaxRows(&ws->scores, scale);
      MatMul(ws->scores, ws->vh, &ws->oh);
      UnsliceHeadRangeAcc(ws->oh, q_begin, h, dh, &ws->o);
    }
  }
  MatMul(ws->o, p.wo.value, &ws->z);
  ws->x2.Add(ws->z);

  // --- Feed-forward sublayer (pre-LN) ---
  LayerNormForward(ws->x2, p.ln2_gamma, p.ln2_beta, &ws->y2, &ws->xhat,
                   &ws->inv_std);
  MatMul(ws->y2, p.w1.value, &ws->h1);
  AddBiasReLU(&ws->h1, p.b1);
  MatMul(ws->h1, p.w2.value, &ws->f2);
  AddBias(&ws->f2, p.b2);
  ws->x2.Add(ws->f2);
  // Swap instead of move: x's old buffer becomes the next block's scratch.
  std::swap(ws->x, ws->x2);
}

float TransformerClassifier::Loss(const EncodedSequence& input,
                                  int label) const {
  auto probs = ForwardImpl(input, nullptr);
  return -std::log(std::max(probs[static_cast<size_t>(label)], 1e-12f));
}

float TransformerClassifier::ForwardBackward(const EncodedSequence& input,
                                             int label) {
  ForwardCache cache;
  auto probs = ForwardImpl(input, &cache);
  BackwardImpl(input, label, cache, probs);
  return -std::log(std::max(probs[static_cast<size_t>(label)], 1e-12f));
}

void TransformerClassifier::BackwardImpl(const EncodedSequence& input,
                                         int label, const ForwardCache& cache,
                                         const std::vector<float>& probs) {
  const std::vector<int32_t>& tokens = input.tokens;
  const size_t d = config_.d_model;
  const size_t heads = config_.num_heads;
  const size_t dh = d / heads;
  const size_t len = cache.seq_len;

  // dlogits = probs - onehot(label).
  std::vector<float> dlogits(probs);
  dlogits[static_cast<size_t>(label)] -= 1.0f;

  // Classifier head.
  const float* cls = cache.yf.row(0);
  Matrix dyf(len, d);
  dyf.Zero();
  float* dcls = dyf.row(0);
  for (size_t c = 0; c < config_.num_classes; ++c) {
    bc_.grad.data()[c] += dlogits[c];
    for (size_t j = 0; j < d; ++j) {
      wc_.grad.at(j, c) += cls[j] * dlogits[c];
      dcls[j] += wc_.value.at(j, c) * dlogits[c];
    }
  }

  // Final LayerNorm.
  Matrix dx(len, d);
  dx.Zero();
  LayerNormBackward(dyf, cache.lnf_xhat, cache.lnf_inv_std, &lnf_gamma_,
                    &lnf_beta_, &dx);

  // Blocks in reverse.
  Matrix dx2, dy2, dh1, df2, dz, do_, dq, dk, dv, dy;
  Matrix qh, kh, vh, doh, dah, dsh, dqh, dkh, dvh;
  for (size_t l = config_.num_layers; l-- > 0;) {
    const LayerParams& p = layers_[l];
    LayerParams* pm = &layers_[l];
    const LayerCache& lc = cache.layers[l];

    // --- FFN sublayer backward: x3 = x2 + f2(ln2(x2)) ---
    // dx currently holds dL/dx3.
    dx2 = dx;  // residual path
    // f2 path: df2 = dx.
    // dW2 += h1^T df2 ; db2 += colsum(df2); dh1 = df2 W2^T.
    MatMulTN(lc.h1, dx, &df2);  // df2 here is dW2 contribution (F x D)
    pm->w2.grad.Add(df2);
    for (size_t i = 0; i < len; ++i) {
      const float* row = dx.row(i);
      float* b = pm->b2.grad.data();
      for (size_t j = 0; j < d; ++j) b[j] += row[j];
    }
    MatMulNT(dx, p.w2.value, &dh1);
    // ReLU backward.
    for (size_t i = 0; i < len; ++i) {
      float* row = dh1.row(i);
      const float* h = lc.h1.row(i);
      for (size_t j = 0; j < config_.d_ff; ++j) {
        if (h[j] <= 0.0f) row[j] = 0.0f;
      }
    }
    // dW1 += y2^T dh1 ; db1 += colsum(dh1); dy2 = dh1 W1^T.
    Matrix dw1;
    MatMulTN(lc.y2, dh1, &dw1);
    pm->w1.grad.Add(dw1);
    for (size_t i = 0; i < len; ++i) {
      const float* row = dh1.row(i);
      float* b = pm->b1.grad.data();
      for (size_t j = 0; j < config_.d_ff; ++j) b[j] += row[j];
    }
    MatMulNT(dh1, p.w1.value, &dy2);
    LayerNormBackward(dy2, lc.ln2_xhat, lc.ln2_inv_std, &pm->ln2_gamma,
                      &pm->ln2_beta, &dx2);

    // --- Attention sublayer backward: x2 = x + wo(attn(ln1(x))) ---
    // dx2 holds dL/dx2.
    dx = dx2;  // residual path to x
    // dWo += o^T dz where dz = dx2; do = dz Wo^T.
    Matrix dwo;
    MatMulTN(lc.o, dx2, &dwo);
    pm->wo.grad.Add(dwo);
    MatMulNT(dx2, p.wo.value, &do_);

    dq = Matrix(len, d);
    dq.Zero();
    dk = Matrix(len, d);
    dk.Zero();
    dv = Matrix(len, d);
    dv.Zero();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    for (size_t h = 0; h < heads; ++h) {
      SliceHead(lc.q, h, dh, &qh);
      SliceHead(lc.k, h, dh, &kh);
      SliceHead(lc.v, h, dh, &vh);
      SliceHead(do_, h, dh, &doh);
      const Matrix& a = lc.attn[h];
      // dA = doh vh^T ; dVh = A^T doh.
      MatMulNT(doh, vh, &dah);
      MatMulTN(a, doh, &dvh);
      // Softmax backward: dS = A o (dA - rowsum(dA o A)).
      dsh = Matrix(len, len);
      for (size_t i = 0; i < len; ++i) {
        const float* arow = a.row(i);
        const float* darow = dah.row(i);
        float dot = 0.0f;
        for (size_t j = 0; j < len; ++j) dot += arow[j] * darow[j];
        float* dsrow = dsh.row(i);
        for (size_t j = 0; j < len; ++j) {
          dsrow[j] = arow[j] * (darow[j] - dot) * scale;
        }
      }
      // dQh = dS Kh ; dKh = dS^T Qh.
      MatMul(dsh, kh, &dqh);
      MatMulTN(dsh, qh, &dkh);
      UnsliceHeadAcc(dqh, h, dh, &dq);
      UnsliceHeadAcc(dkh, h, dh, &dk);
      UnsliceHeadAcc(dvh, h, dh, &dv);
    }

    // Projection weights and dY.
    Matrix dwq, dwk, dwv;
    MatMulTN(lc.y, dq, &dwq);
    pm->wq.grad.Add(dwq);
    MatMulTN(lc.y, dk, &dwk);
    pm->wk.grad.Add(dwk);
    MatMulTN(lc.y, dv, &dwv);
    pm->wv.grad.Add(dwv);
    Matrix tmp;
    MatMulNT(dq, p.wq.value, &dy);
    MatMulNT(dk, p.wk.value, &tmp);
    dy.Add(tmp);
    MatMulNT(dv, p.wv.value, &tmp);
    dy.Add(tmp);
    LayerNormBackward(dy, lc.ln1_xhat, lc.ln1_inv_std, &pm->ln1_gamma,
                      &pm->ln1_beta, &dx);
    // dx now holds dL/d(block input) for the next-lower layer.
  }

  // Embedding + positional + segment + shared-flag gradients.
  for (size_t i = 0; i < len; ++i) {
    int32_t tok = tokens[i];
    if (tok < 0 || tok >= config_.vocab_size) tok = 0;
    float* de = embed_.grad.row(static_cast<size_t>(tok));
    float* dp = pos_.grad.row(i);
    float* dsg = seg_.grad.row(
        i < input.segments.size() && input.segments[i] ? 1 : 0);
    float* dsh = shared_.grad.row(
        i < input.shared.size() && input.shared[i] ? 1 : 0);
    const float* dxi = dx.row(i);
    for (size_t j = 0; j < d; ++j) {
      de[j] += dxi[j];
      dp[j] += dxi[j];
      dsg[j] += dxi[j];
      dsh[j] += dxi[j];
    }
  }
}

void TransformerClassifier::Step() { optimizer_.Step(parameters()); }

void TransformerClassifier::CopyWeightsFrom(const TransformerClassifier& other) {
  auto* self_params = this;
  auto* other_params = const_cast<TransformerClassifier*>(&other);
  auto dst = self_params->parameters();
  auto src = other_params->parameters();
  for (size_t i = 0; i < dst.size(); ++i) dst[i]->value = src[i]->value;
}

namespace {
constexpr uint32_t kMagic = 0x47524C4Du;  // "GRLM"
}

Status TransformerClassifier::Save(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open for writing: " + path);
  auto put_u64 = [&](uint64_t v) {
    file.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  uint32_t magic = kMagic;
  file.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  put_u64(static_cast<uint64_t>(config_.vocab_size));
  put_u64(config_.d_model);
  put_u64(config_.num_heads);
  put_u64(config_.num_layers);
  put_u64(config_.d_ff);
  put_u64(config_.max_seq_len);
  put_u64(config_.num_classes);
  auto* self = const_cast<TransformerClassifier*>(this);
  for (Parameter* p : self->parameters()) {
    put_u64(p->value.rows());
    put_u64(p->value.cols());
    file.write(reinterpret_cast<const char*>(p->value.data()),
               static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status TransformerClassifier::Load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open for reading: " + path);
  auto get_u64 = [&]() {
    uint64_t v = 0;
    file.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  uint32_t magic = 0;
  file.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (magic != kMagic) return Status::InvalidArgument("bad model file magic");
  TransformerConfig on_disk;
  on_disk.vocab_size = static_cast<int32_t>(get_u64());
  on_disk.d_model = get_u64();
  on_disk.num_heads = get_u64();
  on_disk.num_layers = get_u64();
  on_disk.d_ff = get_u64();
  on_disk.max_seq_len = get_u64();
  on_disk.num_classes = get_u64();
  if (on_disk.vocab_size != config_.vocab_size ||
      on_disk.d_model != config_.d_model ||
      on_disk.num_heads != config_.num_heads ||
      on_disk.num_layers != config_.num_layers ||
      on_disk.d_ff != config_.d_ff ||
      on_disk.max_seq_len != config_.max_seq_len ||
      on_disk.num_classes != config_.num_classes) {
    return Status::InvalidArgument("model config mismatch in " + path);
  }
  for (Parameter* p : parameters()) {
    uint64_t rows = get_u64(), cols = get_u64();
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return Status::InvalidArgument("parameter shape mismatch in " + path);
    }
    file.read(reinterpret_cast<char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  if (!file) return Status::IOError("truncated model file: " + path);
  return Status::OK();
}

}  // namespace gralmatch
