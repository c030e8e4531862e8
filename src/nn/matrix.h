#ifndef GRALMATCH_NN_MATRIX_H_
#define GRALMATCH_NN_MATRIX_H_

/// \file matrix.h
/// Minimal dense row-major float matrix used by the from-scratch transformer
/// (the DistilBERT stand-in; see DESIGN.md substitution table). Only the
/// operations the model needs are provided. The three products run through
/// one register-held row kernel (nn/matmul_kernel.h) whose per-element
/// operation sequence is fixed, so results do not depend on the CPU the
/// kernel instantiation was picked for.

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace gralmatch {

/// \brief Dense row-major float matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Set every element to zero.
  void Zero();

  /// Reshape to rows x cols, reusing the existing allocation when capacity
  /// allows. Element values are unspecified afterwards — callers must
  /// overwrite every element. This is what lets the forward-pass workspaces
  /// cycle through layers and batches without touching the allocator.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Resize(rows, cols) followed by zero-fill, again reusing capacity.
  void ResizeZero(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  /// Fill with N(0, std^2) (Xavier/Glorot-style init chooses std).
  void FillNormal(Rng* rng, float std);

  /// this += other (shapes must match).
  void Add(const Matrix& other);

  /// this *= s.
  void Scale(float s);

  bool SameShape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n). `out` is resized in
/// place (its allocation is reused when large enough) and must not alias
/// `a` or `b`. Element (i, j) adds a(i, p) * b(p, j) for p = 0 .. k-1 in
/// order, starting from +0.0f, and skips the terms whose a(i, p) is zero.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n). Same resize-in-
/// place, no-alias, order and zero-skip rules as MatMul.
void MatMulTN(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n). Same resize-in-
/// place, no-alias and order rules as MatMul, but no term is skipped: each
/// element is the plain dot product of a row of `a` and a row of `b`.
void MatMulNT(const Matrix& a, const Matrix& b, Matrix* out);

}  // namespace gralmatch

#endif  // GRALMATCH_NN_MATRIX_H_
