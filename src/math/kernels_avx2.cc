// Hand-vectorized AVX2+FMA fp32 kernels (compiled with -mavx2 -mfma; this
// is the only translation unit with those flags, so nothing here may be
// called unless runtime dispatch confirmed CPU support).
//
// Lockstep contract with kernels_fp32.cc: every output element gets the
// same single-rounding multiplies, adds and multiply-adds, in the same
// order and from the same initial value, as the scalar emulation. The
// register tiles below only regroup *independent* outputs into vector
// lanes and registers, so tile shapes and vector width never change a
// result. Any change to an accumulation order in either file must be
// mirrored in the other (tests/math/kernels_test.cc sweeps shapes and
// compares bit patterns).
//
// C++ compiles with -ffp-contract=fast, so under -mfma GCC may fuse a
// plain product into the add that consumes it, rounding once where the
// scalar emulation rounds twice. Every plain product here goes through
// Keep(), an empty asm the compiler cannot see through.

#include "src/math/kernels_fp32.h"

#ifdef HFR_HAVE_AVX2_TU

#include <immintrin.h>

#include <cmath>

#include "src/math/aligned.h"

namespace hetefedrec {
namespace fp32 {

namespace {

// Contraction barrier: the product is rounded on its own.
inline __m256 Keep(__m256 product) {
  asm("" : "+x"(product));
  return product;
}

// (l0+l4, l1+l5, l2+l6, l3+l7) → (s0+s2, s1+s3) → t0+t1 — the exact tree
// DotImpl in kernels_fp32.cc retires.
inline float ReduceTree(__m256 acc) {
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 s = _mm_add_ps(lo, hi);           // (s0, s1, s2, s3)
  const __m128 t = _mm_add_ps(s, _mm_movehl_ps(s, s));  // (s0+s2, s1+s3)
  const __m128 r = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0x55));
  return _mm_cvtss_f32(r);
}

inline float DotImpl(const float* a, const float* b, size_t n) {
  if (n < 8) {
    float r = 0.0f;
    for (size_t i = 0; i < n; ++i) r = std::fmaf(a[i], b[i], r);
    return r;
  }
  __m256 acc = Keep(_mm256_mul_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b)));
  size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  float r = ReduceTree(acc);
  for (; i < n; ++i) r = std::fmaf(a[i], b[i], r);
  return r;
}

// Lanes [0, n) of an 8-column block, n < 8.
inline __m256i LaneMask(size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <bool kMasked>
inline __m256 Load(const float* p, __m256i mask) {
  return kMasked ? _mm256_maskload_ps(p, mask) : _mm256_loadu_ps(p);
}

template <bool kMasked>
inline void Store(float* p, __m256 v, __m256i mask) {
  if (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

// Operands of one tiled fused multiply-accumulate:
//
//   out(r, j) = fma(a(r, k), b(k, j), ·) chained over ascending k from
//               init(r, j), or from +0 when init is null,
//
// with a(r, k) = a[r·a_rs + k·a_ks], b(k, j) = b[k·ldb + j],
// init(r, j) = init[r·init_rs + j] (init may alias out) and
// out(r, j) = out[r·ldo + j]. Every j-parallel kernel, and the dot of
// fewer than 8 terms, has this shape.
struct MulAddArgs {
  const float* a;
  size_t a_rs, a_ks;
  size_t kdim;
  const float* b;
  size_t ldb;
  const float* init;
  size_t init_rs;
  float* out;
  size_t ldo;
};

// One R x 8 tile at (r0, j0), accumulators in registers across the whole
// k range; kMasked tiles own only the columns in `mask`.
template <size_t R, bool kMasked>
inline void MulAddTile(const MulAddArgs& m, size_t r0, size_t j0,
                       __m256i mask) {
  __m256 acc[R];
  for (size_t r = 0; r < R; ++r) {
    acc[r] = m.init != nullptr
                 ? Load<kMasked>(m.init + (r0 + r) * m.init_rs + j0, mask)
                 : _mm256_setzero_ps();
  }
  const float* a = m.a + r0 * m.a_rs;
  const float* b = m.b + j0;
  for (size_t k = 0; k < m.kdim; ++k) {
    const __m256 bk = Load<kMasked>(b + k * m.ldb, mask);
    for (size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r * m.a_rs + k * m.a_ks]), bk,
                               acc[r]);
    }
  }
  for (size_t r = 0; r < R; ++r) {
    Store<kMasked>(m.out + (r0 + r) * m.ldo + j0, acc[r], mask);
  }
}

template <size_t R>
inline void MulAddRows(const MulAddArgs& m, size_t r0, size_t cols) {
  size_t j = 0;
  for (; j + 8 <= cols; j += 8) MulAddTile<R, false>(m, r0, j, __m256i{});
  if (j < cols) MulAddTile<R, true>(m, r0, j, LaneMask(cols - j));
}

// Rows in tiles of 8 (enough independent chains to cover the FMA
// latency), then at most one tile each of 4, 2 and 1.
inline void MulAdd(const MulAddArgs& m, size_t rows, size_t cols) {
  size_t r = 0;
  for (; r + 8 <= rows; r += 8) MulAddRows<8>(m, r, cols);
  if (r + 4 <= rows) {
    MulAddRows<4>(m, r, cols);
    r += 4;
  }
  if (r + 2 <= rows) {
    MulAddRows<2>(m, r, cols);
    r += 2;
  }
  if (r < rows) MulAddRows<1>(m, r, cols);
}

// dx(b, i0..i0+8) = DotImpl(w row i, delta row b, n) for n >= 8 and
// every b, one output i per lane over wt = wᵀ (rows ld apart, starting at
// column i0): lane accumulator k holds the terms j ≡ k (mod 8) of the
// whole chunks (first chunk a plain product, later chunks fused), the tree
// reduces the eight accumulators, then the tail terms are fused in
// ascending order.
template <bool kMasked>
inline void LaneTreeColumns(const float* delta, size_t batch, size_t n,
                            const float* wt, size_t ld, float* dx,
                            size_t ldx, __m256i mask) {
  for (size_t b = 0; b < batch; ++b) {
    const float* drow = delta + b * n;
    __m256 l[8];
    for (size_t k = 0; k < 8; ++k) {
      l[k] = Keep(_mm256_mul_ps(_mm256_loadu_ps(wt + k * ld),
                                _mm256_set1_ps(drow[k])));
    }
    size_t j = 8;
    for (; j + 8 <= n; j += 8) {
      for (size_t k = 0; k < 8; ++k) {
        l[k] = _mm256_fmadd_ps(_mm256_loadu_ps(wt + (j + k) * ld),
                               _mm256_set1_ps(drow[j + k]), l[k]);
      }
    }
    const __m256 t0 = _mm256_add_ps(_mm256_add_ps(l[0], l[4]),
                                    _mm256_add_ps(l[2], l[6]));
    const __m256 t1 = _mm256_add_ps(_mm256_add_ps(l[1], l[5]),
                                    _mm256_add_ps(l[3], l[7]));
    __m256 r = _mm256_add_ps(t0, t1);
    for (; j < n; ++j) {
      r = _mm256_fmadd_ps(_mm256_loadu_ps(wt + j * ld),
                          _mm256_set1_ps(drow[j]), r);
    }
    Store<kMasked>(dx + b * ldx, r, mask);
  }
}

// sum(j0..j0+8) += delta(b, ·) over ascending b.
template <bool kMasked>
inline void SumColumns(const float* delta, size_t batch, size_t ld,
                       float* sum, __m256i mask) {
  __m256 acc = Load<kMasked>(sum, mask);
  for (size_t b = 0; b < batch; ++b) {
    acc = _mm256_add_ps(acc, Load<kMasked>(delta + b * ld, mask));
  }
  Store<kMasked>(sum, acc, mask);
}

}  // namespace

// out_dim 1 is dot-shaped per row; wider outputs are rows x 8 tiles of
// (b, j), chained over ascending i from init.
void GemvBatchResumeAvx2(const float* x, size_t batch, size_t x_stride,
                         size_t in_dim, const float* w, const float* init,
                         size_t out_dim, float* out) {
  if (out_dim == 1) {
    for (size_t b = 0; b < batch; ++b) {
      out[b] = init[0] + DotImpl(x + b * x_stride, w, in_dim);
    }
    return;
  }
  MulAdd({x, x_stride, 1, in_dim, w, out_dim, init, 0, out, out_dim}, batch,
         out_dim);
}

// Weight gradients keep i-blocked panels in registers across the whole
// batch: (i, j) tiles chained over ascending b; an out_dim-1 column runs
// as one row of 8-wide i blocks instead. Bias: j blocks summed over
// ascending b.
void AccumulateOuterBatchAvx2(const float* in, const float* delta,
                              size_t batch, size_t in_dim, size_t out_dim,
                              float* grads_w, float* grads_b) {
  if (out_dim == 1) {
    MulAdd({delta, 0, 1, batch, in, in_dim, grads_w, 0, grads_w, 0}, 1,
           in_dim);
  } else {
    MulAdd({in, 1, in_dim, batch, delta, out_dim, grads_w, out_dim, grads_w,
            out_dim},
           in_dim, out_dim);
  }
  size_t j = 0;
  for (; j + 8 <= out_dim; j += 8) {
    SumColumns<false>(delta + j, batch, out_dim, grads_b + j, __m256i{});
  }
  if (j < out_dim) {
    SumColumns<true>(delta + j, batch, out_dim, grads_b + j,
                     LaneMask(out_dim - j));
  }
}

// Vectorized across outputs i over a transposed, zero-padded weight copy:
// out_dim < 8 is the fmaf chain from +0 (a MulAdd tile of (b, i)), wider
// outputs run the lane tree per 8-wide i block.
void GemvBatchTransposedAvx2(const float* delta, size_t batch, size_t out_dim,
                             const float* w, size_t in_dim, float* dx) {
  const size_t ld = (in_dim + 7) / 8 * 8;
  thread_local AlignedVector<float> wt;
  wt.assign(out_dim * ld, 0.0f);
  for (size_t i = 0; i < in_dim; ++i) {
    for (size_t j = 0; j < out_dim; ++j) wt[j * ld + i] = w[i * out_dim + j];
  }
  if (out_dim < 8) {
    MulAdd({delta, out_dim, 1, out_dim, wt.data(), ld, nullptr, 0, dx,
            in_dim},
           batch, in_dim);
    return;
  }
  size_t i0 = 0;
  for (; i0 + 8 <= in_dim; i0 += 8) {
    LaneTreeColumns<false>(delta, batch, out_dim, wt.data() + i0, ld,
                           dx + i0, in_dim, __m256i{});
  }
  if (i0 < in_dim) {
    LaneTreeColumns<true>(delta, batch, out_dim, wt.data() + i0, ld, dx + i0,
                          in_dim, LaneMask(in_dim - i0));
  }
}

float DotAvx2(const float* a, const float* b, size_t n) {
  return DotImpl(a, b, n);
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 a8 = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(a8, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

}  // namespace fp32
}  // namespace hetefedrec

#endif  // HFR_HAVE_AVX2_TU
