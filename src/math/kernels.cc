#include "src/math/kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/math/backend.h"
#include "src/math/kernels_fp32.h"

namespace hetefedrec {

namespace {

// --- fp64 kernels -----------------------------------------------------------
//
// Every fp64 kernel — the forward, both gradients and the column Gram —
// is one shape, register tiles of
//
//   out(r, j) = init(r, j) + Σ_k a(r, k) · b(k, j)        (k ascending)
//
// where each target keeps its scalar loop's exact sequence of IEEE
// multiplies and adds from the same initial value (and, where the scalar
// loop skips a term whose left operand is exactly zero, the same skip, or
// a proof that the skip changes nothing). Tiling and vector width only
// regroup *independent* targets, so results are bit-identical at any
// width. An R x 8 tile holds 8 vector accumulators at both widths (R =
// lanes: 2 x 8 in SSE2 xmm registers, 4 x 8 in AVX2 ymm registers),
// leaving room for the b(k, ·) vectors and the broadcast a(r, k) within 16
// registers. Columns narrower than a vector (the FFN's out_dim-1 layer and
// its gradient column) put the R rows in the lanes of one accumulator
// instead.
//
// The skip is a per-lane select, not a branch: the FFN's hidden layers
// read ReLU outputs whose exact zeros change from row to row, which a
// branch mispredicts. The select costs one more vector op per
// multiply-add, so every kernel first asks ZeroSkipIsInert whether the
// skip can change a result at all, and runs select-free tiles — the same
// operations on the same targets — when it cannot.
//
// The tile bodies are templates over the vector type, compiled 2-wide for
// the baseline ISA and — when the build has the AVX2 translation unit —
// 4-wide in target("avx2") entry points that run when the CPU reports
// AVX2. "avx2" does not include FMA, so the compiler cannot contract a
// multiply and an add into one rounding; -DHFR_DISABLE_AVX2=ON compiles
// only the baseline versions. (Dispatch is a cached CPU check, not GCC
// function multiversioning: multiversioning resolves through ifunc
// resolvers that run before a sanitizer runtime is initialized.)
#ifdef HFR_HAVE_AVX2_TU
#define HFR_FP64_AVX2 __attribute__((target("avx2")))
#endif
// Tile helpers must inline into the entry points: a standalone copy would
// be compiled for the baseline ISA, where a 4-wide vector has no register
// to live in.
#define HFR_TILE_INLINE inline __attribute__((always_inline))

typedef double V2 __attribute__((vector_size(16)));
typedef double V4 __attribute__((vector_size(32)));

template <typename V>
constexpr size_t kLanes = sizeof(V) / sizeof(double);

// Operands of one tiled multiply-accumulate. a(r, k) = a[r·a_rs + k·a_ks];
// b(k, j) = b[k·ldb + j]; init(r, j) = init[r·init_rs + j], or +0.0 when
// init is null (init may alias out); out(r, j) = out[r·ldo + j].
struct MulAddArgs {
  const double* a;
  size_t a_rs, a_ks;
  size_t kdim;
  const double* b;
  size_t ldb;
  const double* init;
  size_t init_rs;
  double* out;
  size_t ldo;
};

// acc += a · b (a or b a scalar that broadcasts), except that lanes where
// a is exactly zero keep acc: the scalar loop's skip as a per-lane select,
// so no branch depends on the data. (A scalar `cond ? acc : t` compiles
// back into a branch.)
template <bool kSkipZero, typename V, typename A, typename B>
HFR_TILE_INLINE void MulAddLanes(V& acc, const A& a, const B& b) {
  const V t = acc + a * b;
  if constexpr (kSkipZero) {
    acc = a == V{} ? acc : t;
  } else {
    acc = t;
  }
}

// One R x (JV·lanes) tile at (r0, j0), accumulators in registers across
// the whole k range. init is read lane by lane: a memcpy into acc compiled
// to half-width stores that the full-width loads after them cannot forward.
template <typename V, size_t R, size_t JV, bool kSkipZero>
HFR_TILE_INLINE void MulAddTile(const MulAddArgs& m, size_t r0, size_t j0) {
  constexpr size_t L = kLanes<V>;
  V acc[R][JV];
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < JV; ++v) {
      acc[r][v] = V{};
      if (m.init != nullptr) {
        const double* p = m.init + (r0 + r) * m.init_rs + j0 + v * L;
        for (size_t l = 0; l < L; ++l) acc[r][v][l] = p[l];
      }
    }
  }
  const double* a = m.a + r0 * m.a_rs;
  const double* b = m.b + j0;
  for (size_t k = 0; k < m.kdim; ++k) {
    V bk[JV];
    for (size_t v = 0; v < JV; ++v) {
      std::memcpy(&bk[v], b + k * m.ldb + v * L, sizeof(V));
    }
    for (size_t r = 0; r < R; ++r) {
      const double ark = a[r * m.a_rs + k * m.a_ks];
      for (size_t v = 0; v < JV; ++v) {
        MulAddLanes<kSkipZero>(acc[r][v], ark, bk[v]);
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < JV; ++v) {
      std::memcpy(m.out + (r0 + r) * m.ldo + j0 + v * L, &acc[r][v],
                  sizeof(V));
    }
  }
}

// Rows [r0, r0 + R), columns [j0, cols): 8-wide tiles, then one-vector
// tiles, then the columns narrower than a vector, each with the R rows in
// the lanes of one accumulator.
template <typename V, size_t R, bool kSkipZero>
HFR_TILE_INLINE void MulAddRows(const MulAddArgs& m, size_t r0, size_t j0,
                                size_t cols) {
  constexpr size_t L = kLanes<V>;
  size_t j = j0;
  for (; j + 8 <= cols; j += 8) MulAddTile<V, R, 8 / L, kSkipZero>(m, r0, j);
  for (; j + L <= cols; j += L) MulAddTile<V, R, 1, kSkipZero>(m, r0, j);
  const double* a = m.a + r0 * m.a_rs;
  for (; j < cols; ++j) {
    V acc{};
    for (size_t r = 0; r < R; ++r) {
      if (m.init != nullptr) acc[r] = m.init[(r0 + r) * m.init_rs + j];
    }
    for (size_t k = 0; k < m.kdim; ++k) {
      V ak{};  // lanes past R stay +0.0 and are never stored
      for (size_t r = 0; r < R; ++r) ak[r] = a[r * m.a_rs + k * m.a_ks];
      MulAddLanes<kSkipZero>(acc, ak, m.b[k * m.ldb + j]);
    }
    for (size_t r = 0; r < R; ++r) m.out[(r0 + r) * m.ldo + j] = acc[r];
  }
}

template <typename V, bool kSkipZero>
HFR_TILE_INLINE void MulAdd(const MulAddArgs& m, size_t rows, size_t cols) {
  constexpr size_t R = kLanes<V>;
  size_t r = 0;
  for (; r + R <= rows; r += R) MulAddRows<V, R, kSkipZero>(m, r, 0, cols);
  for (; r < rows; ++r) MulAddRows<V, 1, kSkipZero>(m, r, 0, cols);
}

// v = s in every lane, keeping the scalar's bits (V{} + s would turn −0.0
// into +0.0). Helpers take and fill vectors by reference: a helper that
// returns a 4-wide vector has a baseline-ISA ABI the compiler warns about.
template <typename V>
HFR_TILE_INLINE void Splat(V& v, double s) {
  for (size_t l = 0; l < kLanes<V>; ++l) v[l] = s;
}

// An operand block: `outer` runs of `inner` contiguous values, runs
// `stride` apart.
struct Block {
  const double* p;
  size_t outer, stride, inner;
};

inline Block Contiguous(const double* p, size_t n) { return {p, 1, n, n}; }

enum class LaneTest { kExactZero, kNonFinite, kNegativeZero };

// hit |= the lanes of v that pass the test.
template <LaneTest kTest, typename V, typename M>
HFR_TILE_INLINE void Mark(const V& v, M& hit) {
  if constexpr (kTest == LaneTest::kExactZero) {
    hit |= v == 0.0;
  } else if constexpr (kTest == LaneTest::kNonFinite) {
    hit |= v - v != 0.0;  // Inf - Inf and NaN - NaN are NaN
  } else {
    M bits;
    std::memcpy(&bits, &v, sizeof(V));
    hit |= (v == 0.0) & (bits < 0);
  }
}

// True when some value of the block passes the test. A tail shorter than
// a vector is padded with 1.0, which passes none of them.
template <LaneTest kTest, typename V>
HFR_TILE_INLINE bool AnyLane(const Block& b) {
  constexpr size_t L = kLanes<V>;
  decltype(V{} == V{}) hit{};
  for (size_t o = 0; o < b.outer; ++o) {
    const double* run = b.p + o * b.stride;
    size_t t = 0;
    for (; t + L <= b.inner; t += L) {
      V v;
      std::memcpy(&v, run + t, sizeof(V));
      Mark<kTest>(v, hit);
    }
    if (t < b.inner) {
      V v;
      Splat(v, 1.0);
      for (size_t l = 0; t + l < b.inner; ++l) v[l] = run[t + l];
      Mark<kTest>(v, hit);
    }
  }
  for (size_t l = 0; l < L; ++l) {
    if (hit[l] != 0) return true;
  }
  return false;
}

// True when skipping the terms whose left operand is exactly zero cannot
// change any accumulator, so the select-free tiles give the scalar loop's
// bits. Either
//
//   * the left operand holds no exact zero: the skip never fires; or
//   * every right operand is finite and no accumulator starts at −0.0
//     (`init`; a null init starts every accumulator at +0.0). A skipped
//     term would add zero times a finite value, ±0.0, and in
//     round-to-nearest x + y is −0.0 only when both are −0.0, so an
//     accumulator that starts off −0.0 never reaches it and keeps its
//     value when ±0.0 is added.
//
// The second test runs first: in the forward and the weight gradients it
// reads the smaller operands. A null left block stands for one that cannot
// be scanned in advance (a fused layer's hidden activations) and may hold
// zeros.
template <typename V>
HFR_TILE_INLINE bool ZeroSkipIsInert(const Block& left, const Block& right,
                                     const Block& init) {
  if (!AnyLane<LaneTest::kNonFinite, V>(right) &&
      (init.p == nullptr || !AnyLane<LaneTest::kNegativeZero, V>(init))) {
    return true;
  }
  return left.p != nullptr && !AnyLane<LaneTest::kExactZero, V>(left);
}

// Forward: per (b, j) from init over ascending i, zero x skipped (or the
// skip proved inert).
template <typename V>
HFR_TILE_INLINE void GemvBatchResumeTiles(const double* x, size_t batch,
                                          size_t x_stride, size_t in_dim,
                                          const double* w, const double* init,
                                          size_t out_dim, double* out) {
  const MulAddArgs args{x, x_stride, 1, in_dim, w, out_dim, init, 0, out,
                        out_dim};
  if (ZeroSkipIsInert<V>({x, batch, x_stride, in_dim},
                         Contiguous(w, in_dim * out_dim),
                         Contiguous(init, out_dim))) {
    MulAdd<V, false>(args, batch, out_dim);
  } else {
    MulAdd<V, true>(args, batch, out_dim);
  }
}

// Weight gradients: per (i, j) ascending b from the current panel value,
// zero `in` skipped (or the skip proved inert) — i-blocked tiles keep the
// panel in registers across the whole batch. Bias: per j ascending b, no
// skip.
template <typename V>
HFR_TILE_INLINE void AccumulateOuterBatchTiles(const double* in,
                                               const double* delta,
                                               size_t batch, size_t in_dim,
                                               size_t out_dim, double* grads_w,
                                               double* grads_b) {
  const MulAddArgs args{in, 1, in_dim, batch, delta, out_dim, grads_w,
                        out_dim, grads_w, out_dim};
  if (ZeroSkipIsInert<V>(Contiguous(in, batch * in_dim),
                         Contiguous(delta, batch * out_dim),
                         Contiguous(grads_w, in_dim * out_dim))) {
    MulAdd<V, false>(args, in_dim, out_dim);
  } else {
    MulAdd<V, true>(args, in_dim, out_dim);
  }
  constexpr size_t L = kLanes<V>;
  size_t j = 0;
  for (; j + L <= out_dim; j += L) {
    V acc;
    std::memcpy(&acc, grads_b + j, sizeof(V));
    for (size_t b = 0; b < batch; ++b) {
      V d;
      std::memcpy(&d, delta + b * out_dim + j, sizeof(V));
      acc += d;
    }
    std::memcpy(grads_b + j, &acc, sizeof(V));
  }
  for (; j < out_dim; ++j) {
    double acc = grads_b[j];
    for (size_t b = 0; b < batch; ++b) acc += delta[b * out_dim + j];
    grads_b[j] = acc;
  }
}

// Input gradients through wt = wᵀ (out_dim x in_dim): per (b, i) from
// +0.0 over ascending j, no skip — vectorized across independent i.
template <typename V>
HFR_TILE_INLINE void GemvBatchTransposedTiles(const double* delta,
                                              size_t batch, size_t out_dim,
                                              const double* wt, size_t in_dim,
                                              double* dx) {
  MulAdd<V, false>({delta, out_dim, 1, out_dim, wt, in_dim, nullptr, 0, dx,
                    in_dim},
                   batch, in_dim);
}

// Upper triangle of xᵀx (x: m x n) from +0.0 over ascending k, zero x[k, i]
// skipped; row tiles start at the diagonal.
template <typename V, bool kSkipZero>
HFR_TILE_INLINE void ColumnGramTriangle(const double* x, size_t m, size_t n,
                                        double* c) {
  const MulAddArgs args{x, 1, n, m, x, n, nullptr, 0, c, n};
  constexpr size_t R = kLanes<V>;
  size_t i = 0;
  for (; i + R <= n; i += R) MulAddRows<V, R, kSkipZero>(args, i, i, n);
  for (; i < n; ++i) MulAddRows<V, 1, kSkipZero>(args, i, i, n);
}

// The triangle, mirrored (see ColumnGram in kernels.h for why that is
// exact).
template <typename V>
HFR_TILE_INLINE void ColumnGramTiles(const double* x, size_t m, size_t n,
                                     double* c) {
  const Block block = Contiguous(x, m * n);
  if (ZeroSkipIsInert<V>(block, block, {nullptr, 0, 0, 0})) {
    ColumnGramTriangle<V, false>(x, m, n, c);
  } else {
    ColumnGramTriangle<V, true>(x, m, n, c);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) c[j * n + i] = c[i * n + j];
  }
}

// Fused forward: one row group at a time with the rows in the lanes of a
// vector, so a layer input i is one vector holding input i of every row and
// an output accumulator is one vector too — the R x 8 tile turned sideways:
// broadcast weights times lane inputs, no gather for any width. Layer 0
// reads the rows themselves, transposed into lanes in registers; every
// later layer reads the previous layer's outputs from a few L1 vectors.

// Transposes an L x L block into lanes: vector c of `lanes` receives
// x[r·stride + c] in lane r. Rows past `rows` read +0.0 and are never
// stored.
template <typename V>
HFR_TILE_INLINE void TransposeIntoLanes(const double* x, size_t stride,
                                        size_t rows, double* lanes) {
  constexpr size_t L = kLanes<V>;
  using Mask = decltype(V{} == V{});
  V r[L];
  for (size_t k = 0; k < L; ++k) {
    r[k] = V{};
    if (k < rows) std::memcpy(&r[k], x + k * stride, sizeof(V));
  }
  V t[L];
  if constexpr (L == 2) {
    t[0] = __builtin_shuffle(r[0], r[1], Mask{0, 2});
    t[1] = __builtin_shuffle(r[0], r[1], Mask{1, 3});
  } else {
    const V lo01 = __builtin_shuffle(r[0], r[1], Mask{0, 4, 2, 6});
    const V hi01 = __builtin_shuffle(r[0], r[1], Mask{1, 5, 3, 7});
    const V lo23 = __builtin_shuffle(r[2], r[3], Mask{0, 4, 2, 6});
    const V hi23 = __builtin_shuffle(r[2], r[3], Mask{1, 5, 3, 7});
    t[0] = __builtin_shuffle(lo01, lo23, Mask{0, 1, 4, 5});
    t[1] = __builtin_shuffle(hi01, hi23, Mask{0, 1, 4, 5});
    t[2] = __builtin_shuffle(lo01, lo23, Mask{2, 3, 6, 7});
    t[3] = __builtin_shuffle(hi01, hi23, Mask{2, 3, 6, 7});
  }
  for (size_t k = 0; k < L; ++k) {
    std::memcpy(lanes + k * L, &t[k], sizeof(V));
  }
}

// Outputs [j0, j0 + J) of one layer over a row group in lanes:
// out[j] = init[j] + Σ_i in[i] · w[i, j] over ascending i, ReLU'd when
// `relu`. in and out hold one vector per input and output.
template <typename V, size_t J, bool kSkipZero>
HFR_TILE_INLINE void LanesTile(const double* in, const DenseLayer& layer,
                               size_t j0, bool relu, double* out) {
  constexpr size_t L = kLanes<V>;
  V acc[J];
  for (size_t v = 0; v < J; ++v) Splat(acc[v], layer.init[j0 + v]);
  for (size_t i = 0; i < layer.in_dim; ++i) {
    V xi;
    std::memcpy(&xi, in + i * L, sizeof(V));
    const double* wi = layer.w + i * layer.out_dim + j0;
    for (size_t v = 0; v < J; ++v) MulAddLanes<kSkipZero>(acc[v], xi, wi[v]);
  }
  for (size_t v = 0; v < J; ++v) {
    V o = acc[v];
    if (relu) o = o > V{} ? o : V{};  // Relu, lane by lane
    std::memcpy(out + (j0 + v) * L, &o, sizeof(V));
  }
}

// A whole layer: chunks of 8 outputs, then the rest one at a time.
template <typename V, bool kSkipZero>
HFR_TILE_INLINE void LanesLayer(const double* in, const DenseLayer& layer,
                                bool relu, double* out) {
  size_t j = 0;
  for (; j + 8 <= layer.out_dim; j += 8) {
    LanesTile<V, 8, kSkipZero>(in, layer, j, relu, out);
  }
  for (; j < layer.out_dim; ++j) {
    LanesTile<V, 1, kSkipZero>(in, layer, j, relu, out);
  }
}

// `lanes` holds 2 x `width` vectors, width the widest layer input or
// output. A layer runs select-free when ZeroSkipIsInert holds for it:
// layer 0's left operand is the rows, a later layer's the activations.
template <typename V>
HFR_TILE_INLINE void FeedForwardRowsTiles(const double* x, size_t batch,
                                          size_t x_stride,
                                          const DenseLayer* layers,
                                          size_t num_layers, double* lanes,
                                          size_t width, double* logits) {
  constexpr size_t L = kLanes<V>;
  uint64_t select = 0;  // bit l: layer l keeps the zero-skip select
  for (size_t l = 0; l < num_layers; ++l) {
    const DenseLayer& d = layers[l];
    const Block left = l == 0 ? Block{x, batch, x_stride, d.in_dim}
                              : Block{nullptr, 0, 0, 0};
    if (!ZeroSkipIsInert<V>(left, Contiguous(d.w, d.in_dim * d.out_dim),
                            Contiguous(d.init, d.out_dim))) {
      select |= uint64_t{1} << l;
    }
  }
  const size_t in_dim = layers[0].in_dim;
  for (size_t r0 = 0; r0 < batch; r0 += L) {
    const size_t rows = std::min(L, batch - r0);
    const double* xr = x + r0 * x_stride;
    double* in = lanes;
    double* out = lanes + width * L;
    size_t c = 0;
    for (; c + L <= in_dim; c += L) {
      TransposeIntoLanes<V>(xr + c, x_stride, rows, in + c * L);
    }
    for (; c < in_dim; ++c) {
      V t{};
      for (size_t r = 0; r < rows; ++r) t[r] = xr[r * x_stride + c];
      std::memcpy(in + c * L, &t, sizeof(V));
    }
    for (size_t l = 0; l < num_layers; ++l) {
      const bool relu = l + 1 < num_layers;
      if ((select >> l & 1) != 0) {
        LanesLayer<V, true>(in, layers[l], relu, out);
      } else {
        LanesLayer<V, false>(in, layers[l], relu, out);
      }
      std::swap(in, out);
    }
    for (size_t r = 0; r < rows; ++r) logits[r0 + r] = in[r];
  }
}

#ifdef HFR_HAVE_AVX2_TU
HFR_FP64_AVX2 void GemvBatchResumeAvx2(const double* x, size_t batch,
                                       size_t x_stride, size_t in_dim,
                                       const double* w, const double* init,
                                       size_t out_dim, double* out) {
  GemvBatchResumeTiles<V4>(x, batch, x_stride, in_dim, w, init, out_dim, out);
}
HFR_FP64_AVX2 void AccumulateOuterBatchAvx2(const double* in,
                                            const double* delta, size_t batch,
                                            size_t in_dim, size_t out_dim,
                                            double* grads_w, double* grads_b) {
  AccumulateOuterBatchTiles<V4>(in, delta, batch, in_dim, out_dim, grads_w,
                                grads_b);
}
HFR_FP64_AVX2 void GemvBatchTransposedAvx2(const double* delta, size_t batch,
                                           size_t out_dim, const double* wt,
                                           size_t in_dim, double* dx) {
  GemvBatchTransposedTiles<V4>(delta, batch, out_dim, wt, in_dim, dx);
}
HFR_FP64_AVX2 void ColumnGramAvx2(const double* x, size_t m, size_t n,
                                  double* c) {
  ColumnGramTiles<V4>(x, m, n, c);
}
HFR_FP64_AVX2 void FeedForwardRowsAvx2(const double* x, size_t batch,
                                       size_t x_stride,
                                       const DenseLayer* layers,
                                       size_t num_layers, double* lanes,
                                       size_t width, double* logits) {
  FeedForwardRowsTiles<V4>(x, batch, x_stride, layers, num_layers, lanes,
                           width, logits);
}
#endif  // HFR_HAVE_AVX2_TU

}  // namespace

template <typename T>
void GemvBatchResume(const T* x, size_t batch, size_t x_stride, size_t in_dim,
                     const T* w, const T* init, size_t out_dim, T* out) {
  if constexpr (std::is_same_v<T, double>) {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuHasAvx2()) {
      return GemvBatchResumeAvx2(x, batch, x_stride, in_dim, w, init, out_dim,
                                 out);
    }
#endif
    GemvBatchResumeTiles<V2>(x, batch, x_stride, in_dim, w, init, out_dim,
                             out);
  } else {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuSupportsFp32Simd()) {
      return fp32::GemvBatchResumeAvx2(x, batch, x_stride, in_dim, w, init,
                                       out_dim, out);
    }
#endif
    fp32::GemvBatchResumeScalar(x, batch, x_stride, in_dim, w, init, out_dim,
                                out);
  }
}

template <typename T>
void GemvBatchBiased(const T* x, size_t batch, size_t in_dim, const T* w,
                     const T* bias, size_t out_dim, T* out) {
  // A biased GEMV is a resume from the bias with contiguous rows.
  GemvBatchResume(x, batch, in_dim, in_dim, w, bias, out_dim, out);
}

template <typename T>
void AccumulateOuterBatch(const T* in, const T* delta, size_t batch,
                          size_t in_dim, size_t out_dim, T* grads_w,
                          T* grads_b) {
  if constexpr (std::is_same_v<T, double>) {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuHasAvx2()) {
      return AccumulateOuterBatchAvx2(in, delta, batch, in_dim, out_dim,
                                      grads_w, grads_b);
    }
#endif
    AccumulateOuterBatchTiles<V2>(in, delta, batch, in_dim, out_dim, grads_w,
                                  grads_b);
  } else {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuSupportsFp32Simd()) {
      return fp32::AccumulateOuterBatchAvx2(in, delta, batch, in_dim, out_dim,
                                            grads_w, grads_b);
    }
#endif
    fp32::AccumulateOuterBatchScalar(in, delta, batch, in_dim, out_dim,
                                     grads_w, grads_b);
  }
}

template <typename T>
void GemvBatchTransposed(const T* delta, size_t batch, size_t out_dim,
                         const T* w, size_t in_dim, T* dx) {
  if constexpr (std::is_same_v<T, double>) {
    // The tiles vectorize across i, so they read a transposed copy of the
    // small weight panel.
    thread_local AlignedVector<double> wt;
    wt.resize(out_dim * in_dim);
    for (size_t i = 0; i < in_dim; ++i) {
      for (size_t j = 0; j < out_dim; ++j) {
        wt[j * in_dim + i] = w[i * out_dim + j];
      }
    }
#ifdef HFR_HAVE_AVX2_TU
    if (CpuHasAvx2()) {
      return GemvBatchTransposedAvx2(delta, batch, out_dim, wt.data(), in_dim,
                                     dx);
    }
#endif
    GemvBatchTransposedTiles<V2>(delta, batch, out_dim, wt.data(), in_dim, dx);
  } else {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuSupportsFp32Simd()) {
      return fp32::GemvBatchTransposedAvx2(delta, batch, out_dim, w, in_dim,
                                           dx);
    }
#endif
    fp32::GemvBatchTransposedScalar(delta, batch, out_dim, w, in_dim, dx);
  }
}

void ColumnGram(const double* x, size_t m, size_t n, double* c) {
#ifdef HFR_HAVE_AVX2_TU
  if (CpuHasAvx2()) return ColumnGramAvx2(x, m, n, c);
#endif
  ColumnGramTiles<V2>(x, m, n, c);
}

void FeedForwardRows(const double* x, size_t batch, size_t x_stride,
                     const DenseLayer* layers, size_t num_layers,
                     double* logits) {
  HFR_CHECK_GT(num_layers, 0u);
  HFR_CHECK_LE(num_layers, 64u);
  HFR_CHECK_EQ(layers[num_layers - 1].out_dim, 1u);
  if (batch == 0) return;
  size_t width = layers[0].in_dim;
  for (size_t l = 0; l < num_layers; ++l) {
    width = std::max(width, layers[l].out_dim);
  }
  thread_local AlignedVector<double> lanes;
  lanes.resize(2 * width * kLanes<V4>);
#ifdef HFR_HAVE_AVX2_TU
  if (CpuHasAvx2()) {
    return FeedForwardRowsAvx2(x, batch, x_stride, layers, num_layers,
                               lanes.data(), width, logits);
  }
#endif
  FeedForwardRowsTiles<V2>(x, batch, x_stride, layers, num_layers,
                           lanes.data(), width, logits);
}

template <typename T>
void GramMatrix(const T* x, size_t k, size_t n, MatrixT<T>* out) {
  HFR_CHECK(out != nullptr);
  HFR_CHECK_EQ(out->rows(), k);
  HFR_CHECK_EQ(out->cols(), k);
  // Upper triangle in square tiles so both operand panels stay cache-hot;
  // every entry is still the backend's dot of two packed rows.
  for (size_t a0 = 0; a0 < k; a0 += kKernelRowBlock) {
    const size_t a1 = std::min(k, a0 + kKernelRowBlock);
    for (size_t c0 = a0; c0 < k; c0 += kKernelRowBlock) {
      const size_t c1 = std::min(k, c0 + kKernelRowBlock);
      for (size_t a = a0; a < a1; ++a) {
        const T* xa = x + a * n;
        for (size_t c = std::max(a, c0); c < c1; ++c) {
          (*out)(a, c) = Dot(xa, x + c * n, n);
        }
      }
    }
  }
  for (size_t a = 0; a < k; ++a) {
    for (size_t c = a + 1; c < k; ++c) (*out)(c, a) = (*out)(a, c);
  }
}

template void GemvBatchBiased<double>(const double*, size_t, size_t,
                                      const double*, const double*, size_t,
                                      double*);
template void GemvBatchBiased<float>(const float*, size_t, size_t,
                                     const float*, const float*, size_t,
                                     float*);
template void GemvBatchResume<double>(const double*, size_t, size_t, size_t,
                                      const double*, const double*, size_t,
                                      double*);
template void GemvBatchResume<float>(const float*, size_t, size_t, size_t,
                                     const float*, const float*, size_t,
                                     float*);
template void AccumulateOuterBatch<double>(const double*, const double*,
                                           size_t, size_t, size_t, double*,
                                           double*);
template void AccumulateOuterBatch<float>(const float*, const float*, size_t,
                                          size_t, size_t, float*, float*);
template void GemvBatchTransposed<double>(const double*, size_t, size_t,
                                          const double*, size_t, double*);
template void GemvBatchTransposed<float>(const float*, size_t, size_t,
                                         const float*, size_t, float*);
template void GramMatrix<double>(const double*, size_t, size_t, Matrix*);
template void GramMatrix<float>(const float*, size_t, size_t, MatrixF*);

}  // namespace hetefedrec
