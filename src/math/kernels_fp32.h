// Internal fp32 kernel implementations behind the backend dispatch.
//
// Two implementation sets with ONE shared algorithm definition:
//
//   *Scalar — portable C++ that emulates the AVX2 code lane-for-lane:
//             every multiply-add is a single-rounding std::fmaf and every
//             horizontal reduction follows the exact 8→4→2→1 tree the
//             vector code retires. Runs on any CPU.
//   *Avx2   — hand-vectorized AVX2+FMA twins, compiled only when the
//             build enables the SIMD translation unit (HFR_HAVE_AVX2_TU,
//             i.e. HFR_DISABLE_AVX2=OFF).
//
// Because _mm256_fmadd_ps and std::fmaf both round once, and both paths
// run the same operations per output element in the same order, the two
// sets are bit-identical on the same inputs (pinned by the shape sweep in
// tests/math/kernels_test.cc, Fp32DispatchTest.ScalarMatchesAvx2BitForBit).
// Callers never include this header directly — the public templated kernels
// in src/math/kernels.h dispatch here for T = float.
//
// Algorithm shapes (shared by both sets; no exact-zero input skip — the
// fp32 backend trades the fp64 path's bit-identity bookkeeping for
// branchless inner loops):
//
//   j-parallel kernels (GemvBatchResume with out_dim >= 2,
//     AccumulateOuterBatch): each output element accumulates over its
//     reduction index ascending with one fused multiply-add per term, from
//     its initial value (the bias, the resumed prefix, the current
//     gradient). The AVX2 set keeps rows x 8 tiles of these independent
//     outputs in registers across the whole reduction: (b, j) tiles for
//     the forward, i-blocked (i, j) gradient panels over the batch, and an
//     out_dim-1 gradient column as 8-wide blocks of i.
//   dot-shaped kernels (GemvBatchTransposed, Dot, GemvBatchResume with
//     out_dim 1): n >= 8 terms run 8 lane accumulators over ascending
//     8-element chunks (first chunk a plain product, later chunks fused),
//     reduced (l0+l4, l1+l5, l2+l6, l3+l7) → (s0+s2, s1+s3) → (t0+t1),
//     then the tail terms fused in ascending order; n < 8 terms are an
//     ascending fmaf chain from +0 (so a −0 product yields +0). The AVX2
//     GemvBatchTransposed runs this whole per-output sequence in each lane,
//     8 outputs i at a time over a transposed copy of w; Dot and the
//     out_dim-1 forward reduce horizontally.
#ifndef HETEFEDREC_MATH_KERNELS_FP32_H_
#define HETEFEDREC_MATH_KERNELS_FP32_H_

#include <cstddef>

namespace hetefedrec {
namespace fp32 {

// --- portable lane-emulating scalar set -----------------------------------
void GemvBatchResumeScalar(const float* x, size_t batch, size_t x_stride,
                           size_t in_dim, const float* w, const float* init,
                           size_t out_dim, float* out);
void AccumulateOuterBatchScalar(const float* in, const float* delta,
                                size_t batch, size_t in_dim, size_t out_dim,
                                float* grads_w, float* grads_b);
void GemvBatchTransposedScalar(const float* delta, size_t batch,
                               size_t out_dim, const float* w, size_t in_dim,
                               float* dx);
float DotScalar(const float* a, const float* b, size_t n);
void AxpyScalar(float alpha, const float* x, float* y, size_t n);

#ifdef HFR_HAVE_AVX2_TU
// --- AVX2+FMA set (kernels_avx2.cc, compiled with -mavx2 -mfma) -----------
void GemvBatchResumeAvx2(const float* x, size_t batch, size_t x_stride,
                         size_t in_dim, const float* w, const float* init,
                         size_t out_dim, float* out);
void AccumulateOuterBatchAvx2(const float* in, const float* delta,
                              size_t batch, size_t in_dim, size_t out_dim,
                              float* grads_w, float* grads_b);
void GemvBatchTransposedAvx2(const float* delta, size_t batch, size_t out_dim,
                             const float* w, size_t in_dim, float* dx);
float DotAvx2(const float* a, const float* b, size_t n);
void AxpyAvx2(float alpha, const float* x, float* y, size_t n);
#endif  // HFR_HAVE_AVX2_TU

}  // namespace fp32
}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_KERNELS_FP32_H_
