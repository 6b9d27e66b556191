#include "src/math/adam.h"

#include <cmath>
#include <cstring>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace hetefedrec {

namespace {

// Branch-free, so the scan vectorizes.
template <typename T>
bool AllFinite(const T* x, size_t n) {
  unsigned finite = 1;
  for (size_t i = 0; i < n; ++i) finite &= std::isfinite(x[i]) ? 1u : 0u;
  return finite != 0;
}

// --- the element update, at vector width --------------------------------
//
// Every element runs these operations, in this order (the scalar loop
// they replaced is the oracle in tests/math/adam_test.cc):
//
//   m = b1·m + (1 − b1)·g
//   v = b2·v + ((1 − b2)·g)·g
//   p = p − (lr·(m / bias1)) / (sqrt(v / bias2) + eps)
//
// Elements are independent and IEEE division and square root are
// correctly rounded in SIMD too, so vector lanes change no bits. On
// x86-64 this translation unit builds for the baseline ISA, which has no
// FMA, so no multiply and add can be contracted. The square root is the
// SSE instruction rather than std::sqrt, whose errno path keeps GCC from
// vectorizing the loop. The step runs 16-byte vectors on every CPU:
// 32-byte AVX2 entry points saved about 8 % of client.adam_s on the one
// fp32 workload, under 1 % of its run, which did not pay for a second
// ISA path (docs/PERFORMANCE.md).
template <typename T>
struct Vec {
  typedef T type __attribute__((vector_size(16)));
};

#if defined(__SSE2__)
inline Vec<double>::type Sqrt(Vec<double>::type x) { return _mm_sqrt_pd(x); }
inline Vec<float>::type Sqrt(Vec<float>::type x) { return _mm_sqrt_ps(x); }
#else
template <typename V>
V Sqrt(V x) {
  for (size_t l = 0; l < sizeof(V) / sizeof(x[0]); ++l) {
    x[l] = std::sqrt(x[l]);
  }
  return x;
}
#endif

// One step's scalars, cast to T once.
template <typename T>
struct StepScalars {
  T b1, b2, c1, c2, bias1, bias2, lr, eps;
};

template <typename T>
StepScalars<T> MakeStepScalars(const AdamOptions& o, long long t) {
  StepScalars<T> s;
  s.b1 = static_cast<T>(o.beta1);
  s.b2 = static_cast<T>(o.beta2);
  s.c1 = T(1) - s.b1;
  s.c2 = T(1) - s.b2;
  // Bias corrections in double regardless of T (cast once): keeps the
  // double path bit-identical and costs one conversion per step.
  s.bias1 = static_cast<T>(1.0 - std::pow(o.beta1, static_cast<double>(t)));
  s.bias2 = static_cast<T>(1.0 - std::pow(o.beta2, static_cast<double>(t)));
  s.lr = static_cast<T>(o.lr);
  s.eps = static_cast<T>(o.eps);
  return s;
}

// One vector of elements.
template <typename T>
inline void StepBlock(const StepScalars<T>& s, const T* g, T* m, T* v, T* p) {
  typedef typename Vec<T>::type V;
  V gv, mv, vv, pv;
  std::memcpy(&gv, g, sizeof(V));
  std::memcpy(&mv, m, sizeof(V));
  std::memcpy(&vv, v, sizeof(V));
  std::memcpy(&pv, p, sizeof(V));
  mv = s.b1 * mv + s.c1 * gv;
  vv = s.b2 * vv + s.c2 * gv * gv;
  pv -= s.lr * (mv / s.bias1) / (Sqrt(vv / s.bias2) + s.eps);
  std::memcpy(m, &mv, sizeof(V));
  std::memcpy(v, &vv, sizeof(V));
  std::memcpy(p, &pv, sizeof(V));
}

// n elements: whole vectors, then the tail as one zero-padded vector.
// Declared inline so GCC inlines it into the row loop: a call per row
// cost up to 1.2x in BM_SparseRowAdamStep.
template <typename T>
inline void StepRow(const StepScalars<T>& s, const T* g, T* m, T* v, T* p,
                    size_t n) {
  constexpr size_t L = sizeof(typename Vec<T>::type) / sizeof(T);
  size_t d = 0;
  for (; d + L <= n; d += L) StepBlock(s, g + d, m + d, v + d, p + d);
  if (d == n) return;
  const size_t bytes = (n - d) * sizeof(T);
  T gt[L] = {}, mt[L] = {}, vt[L] = {}, pt[L] = {};
  std::memcpy(gt, g + d, bytes);
  std::memcpy(mt, m + d, bytes);
  std::memcpy(vt, v + d, bytes);
  std::memcpy(pt, p + d, bytes);
  StepBlock(s, gt, mt, vt, pt);
  std::memcpy(m + d, mt, bytes);
  std::memcpy(v + d, vt, bytes);
  std::memcpy(p + d, pt, bytes);
}

}  // namespace

template <typename T>
void AdamT<T>::Step(MatrixT<T>* param, const MatrixT<T>& grad) {
  HFR_CHECK(param->SameShape(grad));
  if (!AllFinite(grad.data().data(), grad.size())) {
    ++skipped_;
    return;
  }
  if (m_.empty()) {
    m_ = MatrixT<T>(param->rows(), param->cols());
    v_ = MatrixT<T>(param->rows(), param->cols());
  }
  HFR_CHECK(m_.SameShape(*param));
  ++t_;
  StepRow(MakeStepScalars<T>(options_, t_), grad.data().data(),
          m_.data().data(), v_.data().data(), param->data().data(),
          param->size());
}

template <typename T>
void AdamT<T>::Reset() {
  m_ = MatrixT<T>();
  v_ = MatrixT<T>();
  t_ = 0;
  skipped_ = 0;
}

template class AdamT<double>;
template class AdamT<float>;

template <typename T>
void SparseRowAdamT<T>::Reset(size_t num_rows, size_t width) {
  moments_.Reset(num_rows, 2 * width);
  t_ = 0;
  skipped_ = 0;
}

template <typename T>
void SparseRowAdamT<T>::Step(RowOverlayTableT<T>* table,
                             const SparseRowStoreT<T>& grad) {
  const size_t w = table->cols();
  HFR_CHECK_EQ(grad.cols(), w);
  HFR_CHECK_EQ(grad.rows(), table->rows());
  HFR_CHECK_EQ(moments_.rows(), table->rows());
  HFR_CHECK_EQ(moments_.cols(), 2 * w);
  for (uint32_t r : grad.touched()) {
    if (!AllFinite(grad.RowOrNull(r), w)) {
      ++skipped_;
      return;
    }
  }
  ++t_;
  const StepScalars<T> s = MakeStepScalars<T>(options_, t_);
  // Enroll this step's gradient rows first so pointers into `moments_`
  // stay stable during the update sweep.
  for (uint32_t r : grad.touched()) moments_.EnsureRow(r);
  // A touched row with no gradient row this step steps with g = +0, read
  // from a zero row, so no element tests for a gradient.
  thread_local std::vector<T> zeros;
  if (zeros.size() < w) zeros.assign(w, T(0));
  for (uint32_t r : moments_.touched()) {
    T* m = moments_.RowOrNull(r);
    const T* g = grad.RowOrNull(r);
    StepRow(s, g != nullptr ? g : zeros.data(), m, m + w, table->MutableRow(r),
            w);
  }
}

template class SparseRowAdamT<double>;
template class SparseRowAdamT<float>;

}  // namespace hetefedrec
