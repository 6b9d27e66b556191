// Batched micro-kernels over contiguous row-major blocks.
//
// The scoring model (Eq. 1-3: user⊕item embedding through a small MLP) is
// embarrassingly batchable across samples and items, but the original hot
// paths walked it one sample at a time: a GEMV per FFN layer per sample
// during training, and one full scalar forward per item during evaluation.
// The kernels here push a B x dim block through each step at once — one
// bias-initialized GEMM per layer, a fused all-layer forward for
// evaluation, one outer-product accumulation per layer on the way back, a
// Gram matrix for the distillation relation, and the column Gram XᵀX of
// DDR's correlation matrix.
//
// Two scalar instantiations exist (src/math/backend.h):
//
//   T = double — the reference backend. Every per-sample result stays
//   *bit-identical* to the scalar loops:
//
//   * Each output element accumulates its terms in exactly the scalar
//     order (ascending input index for forwards, ascending sample index
//     for gradient sums, ascending output index for input gradients).
//     Blocking, register tiling and vector width (2-wide, or 4-wide in
//     the target("avx2") versions — never with FMA) only regroup
//     independent accumulator targets; they never reorder additions into
//     the same target.
//   * An exact-zero left operand is skipped, matching the scalar kernels'
//     skip (relevant for -0.0 accumulators, where acc + 0.0 flips -0.0
//     to +0.0, and for ±Inf or NaN right operands, where 0 · Inf is NaN),
//     or the skip is proved inert and dropped: when the left operand holds
//     no exact zero, or when every right operand is finite and no
//     accumulator starts at -0.0 (in round-to-nearest x + y is -0.0 only
//     when both are -0.0, so such an accumulator never becomes -0.0, and
//     adding ±0.0 leaves it unchanged).
//
//   These invariants make the batched layer a drop-in replacement: the
//   trainer, the distiller and the evaluator all produce the same bits as
//   the per-sample reference (tests/math/kernels_test.cc and
//   tests/core/batched_equivalence_test.cc pin this).
//
//   T = float — the fp32 backend: fused multiply-adds, no exact-zero skip,
//   and fixed-tree reductions, dispatched at runtime to hand-vectorized
//   AVX2+FMA code or a lane-emulating scalar fallback that produces the
//   same bits (src/math/kernels_fp32.h). Not bit-comparable to double —
//   the tolerance harness (tests/core/backend_equivalence_test.cc) bounds
//   the drift at the metrics level instead.
#ifndef HETEFEDREC_MATH_KERNELS_H_
#define HETEFEDREC_MATH_KERNELS_H_

#include <cstddef>

#include "src/math/matrix.h"

namespace hetefedrec {

/// Rows per block in the batched kernels: bounds the working set of one
/// block (kKernelRowBlock x dim scalars) so the weight panel stays hot in
/// L1/L2 across the block's rows.
inline constexpr size_t kKernelRowBlock = 32;

/// out[b, j] = bias[j] + Σ_i x[b, i] * w[i, j]   (x: batch x in_dim,
/// w: in_dim x out_dim, out: batch x out_dim, all row-major contiguous).
///
/// For T = double, per (b, j) the sum runs over ascending i with exact-zero
/// x skipped — the scalar FFN-layer loop — so each row of `out` is
/// bit-identical to a standalone GEMV of that sample.
template <typename T>
void GemvBatchBiased(const T* x, size_t batch, size_t in_dim, const T* w,
                     const T* bias, size_t out_dim, T* out);

/// GemvBatchBiased resuming from shared partial sums: every row's
/// accumulators start at `init` (length out_dim — e.g. the bias plus a
/// prefix of input terms common to the whole batch) and consume `in_dim`
/// further inputs per row, rows starting `x_stride` scalars apart.
/// For T = double, per (b, j) the additions run in ascending i with
/// exact-zero x skipped, so resuming is bit-identical to re-running the
/// full accumulation. For T = float the same ascending-i fused chain makes
/// resume-vs-full identical as well (both are fmaf chains over the same
/// term sequence).
template <typename T>
void GemvBatchResume(const T* x, size_t batch, size_t x_stride, size_t in_dim,
                     const T* w, const T* init, size_t out_dim, T* out);

/// One dense layer of a forward pass: w is in_dim x out_dim, row-major,
/// and output j starts its accumulation at init[j] (the bias, or a bias
/// plus input terms the rows share).
struct DenseLayer {
  const double* w;
  const double* init;
  size_t in_dim;
  size_t out_dim;
};

/// The fp64 forward of a ReLU network whose last layer has one output,
/// fused across layers: row b's layer-0 inputs are
/// x[b·x_stride, b·x_stride + layers[0].in_dim), every layer but the last
/// applies ReLU, and logits[b] receives the last layer's output. Per
/// (row, output) the terms add over ascending input from init with
/// exact-zero inputs skipped, so each logit is bit-identical to the
/// scalar per-sample layer loops (FeedForwardNetT<double>::Forward).
/// The rows run in the lanes of a vector; no batch-wide intermediate is
/// written.
void FeedForwardRows(const double* x, size_t batch, size_t x_stride,
                     const DenseLayer* layers, size_t num_layers,
                     double* logits);

/// Gradient outer products of one layer over a batch:
///   grads_w[i, j] += Σ_b in[b, i] * delta[b, j]
///   grads_b[j]    += Σ_b delta[b, j]
/// For T = double, per target element the sum runs over ascending b with
/// exact-zero in skipped, matching a sample-by-sample sequence of scalar
/// accumulations.
template <typename T>
void AccumulateOuterBatch(const T* in, const T* delta, size_t batch,
                          size_t in_dim, size_t out_dim, T* grads_w,
                          T* grads_b);

/// Back-propagated input gradients of one layer over a batch:
///   dx[b, i] = Σ_j w[i, j] * delta[b, j]
/// For T = double, per (b, i) the sum runs over ascending j — the scalar
/// loop's order.
template <typename T>
void GemvBatchTransposed(const T* delta, size_t batch, size_t out_dim,
                         const T* w, size_t in_dim, T* dx);

/// Column Gram matrix of a row-major m x n block: c (n x n, row-major) with
///   c[i, j] = Σ_k x[k, i] · x[k, j].
/// Each entry accumulates from +0.0 over ascending k and skips a term whose
/// left operand x[k, i] is exactly zero (on finite input that skip is
/// inert and dropped) — the order of the naive product (xᵀ)·x. Only the upper triangle is computed, then mirrored: on finite
/// input c[j, i] computed directly would carry the same bits, because an
/// accumulator that starts at +0.0 can never become −0.0, so adding a
/// skipped-side zero term is a no-op.
void ColumnGram(const double* x, size_t m, size_t n, double* c);

/// Gram matrix of k packed rows: out(a, b) = Dot(x_a, x_b) for the
/// row-major k x n block `x`. Symmetric; only the upper triangle (plus the
/// diagonal) is computed, then mirrored. Each entry is the backend's
/// Dot of the two rows — for T = double bit-identical to pairwise Dot
/// calls, for T = float the dispatched SIMD/scalar tree dot.
template <typename T>
void GramMatrix(const T* x, size_t k, size_t n, MatrixT<T>* out);

extern template void GemvBatchBiased<double>(const double*, size_t, size_t,
                                             const double*, const double*,
                                             size_t, double*);
extern template void GemvBatchBiased<float>(const float*, size_t, size_t,
                                            const float*, const float*,
                                            size_t, float*);
extern template void GemvBatchResume<double>(const double*, size_t, size_t,
                                             size_t, const double*,
                                             const double*, size_t, double*);
extern template void GemvBatchResume<float>(const float*, size_t, size_t,
                                            size_t, const float*, const float*,
                                            size_t, float*);
extern template void AccumulateOuterBatch<double>(const double*, const double*,
                                                  size_t, size_t, size_t,
                                                  double*, double*);
extern template void AccumulateOuterBatch<float>(const float*, const float*,
                                                 size_t, size_t, size_t,
                                                 float*, float*);
extern template void GemvBatchTransposed<double>(const double*, size_t, size_t,
                                                 const double*, size_t,
                                                 double*);
extern template void GemvBatchTransposed<float>(const float*, size_t, size_t,
                                                const float*, size_t, float*);
extern template void GramMatrix<double>(const double*, size_t, size_t,
                                        Matrix*);
extern template void GramMatrix<float>(const float*, size_t, size_t, MatrixF*);

}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_KERNELS_H_
