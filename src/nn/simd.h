#ifndef GRALMATCH_NN_SIMD_H_
#define GRALMATCH_NN_SIMD_H_

/// \file simd.h
/// Vectorization hints for the nn elementwise loops.
///
/// On GCC and Clang the nn module is compiled with `-fopenmp-simd`, and
/// GRALMATCH_VECTOR_LOOP is an `omp simd` hint on the annotated inner
/// loops; elsewhere it expands to nothing.
///
/// Only *lane-independent* elementwise loops are annotated — loops where
/// element j reads and writes exclusively its own accumulator, so
/// vectorizing executes the identical operation sequence per element and
/// the result is bitwise-identical to the unvectorized loop. The matmul
/// kernel follows the same rule: lanes over output columns, the reduction in
/// ascending p. Reduction loops (softmax sums, LayerNorm means) stay
/// serial: a vectorized reduction reorders the additions and would break
/// the repo-wide bitwise-equivalence contracts (golden metrics, batch-vs-
/// per-pair differentials, checkpoint byte-stability). See
/// docs/matchers.md "Kernel dispatch".
#if defined(__GNUC__)
#define GRALMATCH_VECTOR_LOOP _Pragma("omp simd")
#else
#define GRALMATCH_VECTOR_LOOP
#endif

#endif  // GRALMATCH_NN_SIMD_H_
