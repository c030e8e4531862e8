#ifndef GRALMATCH_NN_MATMUL_KERNEL_H_
#define GRALMATCH_NN_MATMUL_KERNEL_H_

/// \file matmul_kernel.h
/// Internal to the nn module (and its tests): the one row kernel behind
/// MatMul, MatMulTN and MatMulNT, and its compiled instantiations.
///
/// Every product is out(i, j) = sum over p of a(i, p) * b(p, j), computed
/// per output element in one fixed operation sequence:
///
///     acc = accumulate ? out(i, j) : +0.0f;
///     for p = 0 .. k-1:                      // ascending, never reordered
///       if (!skip_zero || a(i, p) != 0)      // skipped terms never execute
///         acc = acc + a(i, p) * b(p, j);     // a multiply, then an add
///     out(i, j) = acc;
///
/// The kernel vectorizes across output columns only: eight accumulator
/// vectors, for one or two rows, stay in registers across the whole p
/// loop. Each lane runs that scalar sequence unchanged, so every
/// instantiation is bitwise-identical to the scalar reference. It is
/// compiled twice: once for the build's baseline target (4-float vectors)
/// and, on x86 with GCC or Clang, once with target("avx2") (8-float
/// vectors; never "fma": a fused multiply-add rounds once and would change
/// bits). ActiveKernel() picks between them once per process.

#include <cstddef>

#include "nn/matrix.h"

namespace gralmatch {
namespace nn_internal {

/// b's row stride is a multiple of this many floats (the widest vector).
constexpr size_t kKernelLanes = 8;

/// Strided operands of one product (m x k) * (k x n) -> (m x n).
struct ProductArgs {
  /// a(i, p) = a[i * a_row_step + p * a_col_step].
  const float* a = nullptr;
  size_t a_row_step = 0;
  size_t a_col_step = 0;
  /// b(p, j) = b[p * ldb + j]. ldb is a multiple of kKernelLanes and at
  /// least n: the kernel reads whole lanes, so each row must be readable
  /// up to ldb (the values past column n never reach `out`).
  const float* b = nullptr;
  size_t ldb = 0;
  /// out(i, j) = out[i * n + j]; must not alias a or b.
  float* out = nullptr;
  size_t m = 0, k = 0, n = 0;
  /// Skip the terms whose a(i, p) == 0 (MatMul, MatMulTN): += 0 * b is not
  /// a bitwise no-op (-0.0 + 0.0 is +0.0; 0 * inf is NaN).
  bool skip_zero = false;
  /// Start from out(i, j) instead of +0.0f.
  bool accumulate = false;
};

using RowKernel = void (*)(const ProductArgs& args);

/// The baseline-target instantiation; always available.
RowKernel PortableKernel();

/// The target("avx2") instantiation, or nullptr when it is not compiled in
/// (non-x86, or neither GCC nor Clang) or the CPU does not report AVX2.
RowKernel Avx2Kernel();

/// The instantiation every nn product runs through: the AVX2 one when
/// available, else the portable one. Chosen on first use, once per process.
RowKernel ActiveKernel();

/// MatMul / MatMulTN / MatMulNT on an explicit kernel (the public entry
/// points pass ActiveKernel()). With `accumulate`, MatMulWith adds into a
/// presized `out` instead of resizing it.
void MatMulWith(RowKernel kernel, const Matrix& a, const Matrix& b,
                Matrix* out, bool accumulate = false);
void MatMulTNWith(RowKernel kernel, const Matrix& a, const Matrix& b,
                  Matrix* out);
void MatMulNTWith(RowKernel kernel, const Matrix& a, const Matrix& b,
                  Matrix* out);

}  // namespace nn_internal
}  // namespace gralmatch

#endif  // GRALMATCH_NN_MATMUL_KERNEL_H_
