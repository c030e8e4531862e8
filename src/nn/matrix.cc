#include "nn/matrix.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "nn/matmul_kernel.h"
#include "nn/simd.h"

// The AVX2 instantiation needs GCC/Clang target attributes and vector
// extensions on x86; other builds have the portable one only.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define GRALMATCH_NN_AVX2_KERNEL 1
#endif

namespace gralmatch {

void Matrix::Zero() { std::memset(data_.data(), 0, data_.size() * sizeof(float)); }

void Matrix::FillNormal(Rng* rng, float std) {
  for (auto& x : data_) x = static_cast<float>(rng->Normal()) * std;
}

void Matrix::Add(const Matrix& other) {
  assert(SameShape(other));
  float* a = data_.data();
  const float* b = other.data_.data();
  const size_t n = data_.size();
  GRALMATCH_VECTOR_LOOP
  for (size_t i = 0; i < n; ++i) a[i] += b[i];
}

void Matrix::Scale(float s) {
  float* a = data_.data();
  const size_t n = data_.size();
  GRALMATCH_VECTOR_LOOP
  for (size_t i = 0; i < n; ++i) a[i] *= s;
}

namespace nn_internal {
namespace {

// Float vectors as GCC/Clang vector extensions. Each lane is a distinct
// output column, and arithmetic on a vector is the scalar operation per
// lane. The portable instantiation uses 4 lanes (one SSE/NEON register);
// the AVX2 one uses 8 (one ymm register).
typedef float Lanes4 __attribute__((vector_size(4 * sizeof(float))));
typedef float Lanes8 __attribute__((vector_size(8 * sizeof(float))));

template <typename Vec>
constexpr size_t kVecFloats = sizeof(Vec) / sizeof(float);

// Accumulator vectors of a register-held chunk, split over its rows: 8
// keeps 8 add chains in flight and fits the 16 vector registers of SSE,
// NEON and AVX2.
constexpr size_t kAccumulators = 8;
// Terms gathered per pass over p on the zero-skip path. A longer
// reduction stores its accumulators to `out` between passes and reloads
// them: exact.
constexpr size_t kTermBlock = 128;

#define GRALMATCH_KERNEL_INLINE inline __attribute__((always_inline))

/// x's bits without the sign: 0 exactly when x == 0.0f (+-0.0), nonzero
/// for every other value, NaN included, as under the float compare.
GRALMATCH_KERNEL_INLINE uint32_t Magnitude(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits << 1;
}

/// Whether any of a[0], a[step], ..., a[(k - 1) * step] is zero. A min
/// reduction with no early exit, so the contiguous case vectorizes.
GRALMATCH_KERNEL_INLINE bool HasZero(const float* a, size_t step, size_t k) {
  uint32_t least = UINT32_MAX;
  if (step == 1) {
    for (size_t p = 0; p < k; ++p) least = std::min(least, Magnitude(a[p]));
  } else {
    for (size_t p = 0; p < k; ++p) {
      least = std::min(least, Magnitude(a[p * step]));
    }
  }
  return least == 0;
}

/// Terms read in place for R rows that share them: term t is
/// (a(row r, t), b row t).
template <size_t R>
struct StridedTerms {
  const float* a[R];
  size_t a_step;
  const float* b;
  size_t ldb;
  size_t count;
  float A(size_t r, size_t t) const { return a[r][t * a_step]; }
  const float* B(size_t t) const { return b + t * ldb; }
};

/// The terms of one row that survive the zero skip, gathered in order.
struct GatheredTerms {
  const float* vals;
  const float* const* rows;
  size_t count;
  float A(size_t /*r*/, size_t t) const { return vals[t]; }
  const float* B(size_t t) const { return rows[t]; }
};

/// Output columns [j0, j0 + width) of R rows (stride ldo), width <= V
/// vectors: acc = acc + A(r, t) * B(t)[j] in term order, with the
/// accumulators in registers across the whole term loop.
template <typename Vec, size_t V, size_t R, typename Terms>
GRALMATCH_KERNEL_INLINE void RowChunk(const Terms& terms, size_t j0,
                                      size_t width, bool from_out,
                                      float* out, size_t ldo) {
  constexpr size_t kCols = V * kVecFloats<Vec>;
  Vec acc[R][V];
  for (size_t r = 0; r < R; ++r) {
    float* dst = out + r * ldo + j0;
    if (!from_out) {
      for (size_t v = 0; v < V; ++v) acc[r][v] = Vec{};  // +0.0f
    } else if (width == kCols) {
      std::memcpy(acc[r], dst, sizeof(acc[r]));
    } else {
      float buf[kCols] = {};
      std::memcpy(buf, dst, width * sizeof(float));
      std::memcpy(acc[r], buf, sizeof(acc[r]));
    }
  }
  for (size_t t = 0; t < terms.count; ++t) {
    const float* bp = terms.B(t) + j0;
    float av[R];
    for (size_t r = 0; r < R; ++r) av[r] = terms.A(r, t);
    for (size_t v = 0; v < V; ++v) {
      Vec bv;
      std::memcpy(&bv, bp + v * kVecFloats<Vec>, sizeof(bv));
      for (size_t r = 0; r < R; ++r) acc[r][v] = acc[r][v] + av[r] * bv;
    }
  }
  for (size_t r = 0; r < R; ++r) {
    float* dst = out + r * ldo + j0;
    if (width == kCols) {
      std::memcpy(dst, acc[r], sizeof(acc[r]));
    } else {
      float buf[kCols];
      std::memcpy(buf, acc[r], sizeof(acc[r]));
      std::memcpy(dst, buf, width * sizeof(float));
    }
  }
}

/// RowChunk with the fewest vectors (at most V) that cover `width`.
template <typename Vec, size_t V, size_t R, typename Terms>
GRALMATCH_KERNEL_INLINE void FittedRowChunk(const Terms& terms, size_t j0,
                                            size_t width, bool from_out,
                                            float* out, size_t ldo) {
  if constexpr (V > 1) {
    if (width <= (V - 1) * kVecFloats<Vec>) {
      FittedRowChunk<Vec, V - 1, R>(terms, j0, width, from_out, out, ldo);
      return;
    }
  }
  RowChunk<Vec, V, R>(terms, j0, width, from_out, out, ldo);
}

/// All n output columns of R rows, chunk by chunk.
template <typename Vec, size_t R, typename Terms>
GRALMATCH_KERNEL_INLINE void Rows(const Terms& terms, size_t n, bool from_out,
                                  float* out) {
  constexpr size_t kVecs = kAccumulators / R;
  constexpr size_t kChunkCols = kVecs * kVecFloats<Vec>;
  for (size_t j0 = 0; j0 < n; j0 += kChunkCols) {
    FittedRowChunk<Vec, kVecs, R>(terms, j0, std::min(kChunkCols, n - j0),
                                  from_out, out, n);
  }
}

/// The row kernel (see matmul_kernel.h). Rows without a zero a(i, p) (and
/// every row when nothing is skipped) read their terms in place, two rows
/// at a time so that they share each b load. A row with zeros under the
/// skip rule first gathers its surviving terms by a branch-free compaction
/// (the next term overwrites a skipped one's slot), so the chunk loop runs
/// exactly the terms the reference executes, with no data-dependent branch
/// for post-ReLU rows to mispredict.
template <typename Vec, bool kSkipZero>
GRALMATCH_KERNEL_INLINE void ProductRows(const ProductArgs& args) {
  auto a_row = [&](size_t i) { return args.a + i * args.a_row_step; };
  auto dense = [&](size_t i) {
    return !kSkipZero || !HasZero(a_row(i), args.a_col_step, args.k);
  };
  size_t i = 0;
  while (i < args.m) {
    float* out = args.out + i * args.n;
    if (dense(i)) {
      if (i + 1 < args.m && dense(i + 1)) {
        const StridedTerms<2> terms{{a_row(i), a_row(i + 1)}, args.a_col_step,
                                    args.b, args.ldb, args.k};
        Rows<Vec, 2>(terms, args.n, args.accumulate, out);
        i += 2;
        continue;
      }
      const StridedTerms<1> terms{{a_row(i)}, args.a_col_step, args.b,
                                  args.ldb, args.k};
      Rows<Vec, 1>(terms, args.n, args.accumulate, out);
      ++i;
      continue;
    }
    float vals[kTermBlock];
    const float* rows[kTermBlock];
    for (size_t p0 = 0; p0 < args.k; p0 += kTermBlock) {
      const size_t p1 = std::min(args.k, p0 + kTermBlock);
      size_t count = 0;
      const float* a = a_row(i);
      for (size_t p = p0; p < p1; ++p) {
        const float av = a[p * args.a_col_step];
        vals[count] = av;
        rows[count] = args.b + p * args.ldb;
        count += Magnitude(av) != 0;
      }
      Rows<Vec, 1>(GatheredTerms{vals, rows, count}, args.n,
                   args.accumulate || p0 > 0, out);
    }
    ++i;
  }
}

template <typename Vec>
GRALMATCH_KERNEL_INLINE void Product(const ProductArgs& args) {
  if (args.skip_zero) {
    ProductRows<Vec, true>(args);
  } else {
    ProductRows<Vec, false>(args);
  }
}

void PortableProduct(const ProductArgs& args) { Product<Lanes4>(args); }

#if defined(GRALMATCH_NN_AVX2_KERNEL)
// No "fma": the kernel's multiply and add must round separately.
__attribute__((target("avx2"))) void Avx2Product(const ProductArgs& args) {
  Product<Lanes8>(args);
}
#endif

/// Copy of b(p, j) = src[p * row_step + j * col_step] (p < k, j < n) in a
/// reused thread-local buffer whose row stride is n rounded up to whole
/// lanes; the padding is zeroed.
const float* LaneAlignedCopy(const float* src, size_t k, size_t n,
                             size_t row_step, size_t col_step, size_t* ldb) {
  thread_local std::vector<float> buf;
  *ldb = (n + kKernelLanes - 1) / kKernelLanes * kKernelLanes;
  buf.assign(k * *ldb, 0.0f);
  for (size_t p = 0; p < k; ++p) {
    float* dst = buf.data() + p * *ldb;
    for (size_t j = 0; j < n; ++j) dst[j] = src[p * row_step + j * col_step];
  }
  return buf.data();
}

/// b as the kernel reads it: in place when its rows are whole lanes,
/// otherwise a padded copy.
const float* KernelB(const Matrix& b, size_t* ldb) {
  if (b.cols() % kKernelLanes == 0) {
    *ldb = b.cols();
    return b.data();
  }
  return LaneAlignedCopy(b.data(), b.rows(), b.cols(), b.cols(), 1, ldb);
}

}  // namespace

RowKernel PortableKernel() { return &PortableProduct; }

RowKernel Avx2Kernel() {
#if defined(GRALMATCH_NN_AVX2_KERNEL)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &Avx2Product;
#endif
  return nullptr;
}

RowKernel ActiveKernel() {
  static const RowKernel kernel = [] {
    const RowKernel avx2 = Avx2Kernel();
    return avx2 != nullptr ? avx2 : PortableKernel();
  }();
  return kernel;
}

void MatMulWith(RowKernel kernel, const Matrix& a, const Matrix& b,
                Matrix* out, bool accumulate) {
  assert(a.cols() == b.rows());
  assert(out != &a && out != &b);
  if (accumulate) {
    assert(out->rows() == a.rows() && out->cols() == b.cols());
  } else {
    out->Resize(a.rows(), b.cols());  // the kernel writes every element
  }
  ProductArgs args;
  args.a = a.data();
  args.a_row_step = a.cols();
  args.a_col_step = 1;
  args.b = KernelB(b, &args.ldb);
  args.out = out->data();
  args.m = a.rows();
  args.k = a.cols();
  args.n = b.cols();
  args.skip_zero = true;
  args.accumulate = accumulate;
  kernel(args);
}

void MatMulTNWith(RowKernel kernel, const Matrix& a, const Matrix& b,
                  Matrix* out) {
  assert(a.rows() == b.rows());
  assert(out != &a && out != &b);
  out->Resize(a.cols(), b.cols());
  ProductArgs args;
  args.a = a.data();  // a^T(i, p) = a(p, i)
  args.a_row_step = 1;
  args.a_col_step = a.cols();
  args.b = KernelB(b, &args.ldb);
  args.out = out->data();
  args.m = a.cols();
  args.k = a.rows();
  args.n = b.cols();
  args.skip_zero = true;
  kernel(args);
}

void MatMulNTWith(RowKernel kernel, const Matrix& a, const Matrix& b,
                  Matrix* out) {
  assert(a.cols() == b.cols());
  assert(out != &a && out != &b);
  out->Resize(a.rows(), b.rows());
  ProductArgs args;
  args.a = a.data();
  args.a_row_step = a.cols();
  args.a_col_step = 1;
  // b^T(p, j) = b(j, p), gathered into lane-strided rows.
  args.b = LaneAlignedCopy(b.data(), b.cols(), b.rows(), 1, b.cols(),
                           &args.ldb);
  args.out = out->data();
  args.m = a.rows();
  args.k = a.cols();
  args.n = b.rows();
  // No skip: the reference is a plain dot product that adds every term.
  args.skip_zero = false;
  kernel(args);
}

}  // namespace nn_internal

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  nn_internal::MatMulWith(nn_internal::ActiveKernel(), a, b, out);
}

void MatMulTN(const Matrix& a, const Matrix& b, Matrix* out) {
  nn_internal::MatMulTNWith(nn_internal::ActiveKernel(), a, b, out);
}

void MatMulNT(const Matrix& a, const Matrix& b, Matrix* out) {
  nn_internal::MatMulNTWith(nn_internal::ActiveKernel(), a, b, out);
}

}  // namespace gralmatch
