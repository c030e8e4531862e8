#ifndef GRALMATCH_NN_SIMD_H_
#define GRALMATCH_NN_SIMD_H_

/// \file simd.h
/// Configure-time hints for the nn elementwise loops.
///
/// `-DGRALMATCH_SIMD=ON` (the default) compiles the nn module with
/// `-fopenmp-simd` and defines GRALMATCH_SIMD_ENABLED, turning
/// GRALMATCH_SIMD_LOOP into an `omp simd` hint on the annotated inner loops
/// and compiling the AVX2 instantiation of the matmul row kernel
/// (nn/matmul_kernel.h) on x86. `-DGRALMATCH_SIMD=OFF` drops both: the
/// macro expands to nothing and the portable kernel is the only one (a CI
/// leg keeps that path green).
///
/// Only *lane-independent* elementwise loops are annotated — loops where
/// element j reads and writes exclusively its own accumulator, so
/// vectorizing executes the identical operation sequence per element and
/// the result is bitwise-identical to the scalar build. The matmul kernel
/// follows the same rule: lanes over output columns, the reduction in
/// ascending p. Reduction loops (softmax sums, LayerNorm means) stay
/// serial: a vectorized reduction reorders the additions and would break
/// the repo-wide bitwise-equivalence contracts (golden metrics, batch-vs-
/// per-pair differentials, checkpoint byte-stability). See
/// docs/matchers.md "Kernel dispatch".
#if defined(GRALMATCH_SIMD_ENABLED)
#define GRALMATCH_SIMD_LOOP _Pragma("omp simd")
#else
#define GRALMATCH_SIMD_LOOP
#endif

#endif  // GRALMATCH_NN_SIMD_H_
