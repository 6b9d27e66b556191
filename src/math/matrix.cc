#include "src/math/matrix.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "src/math/backend.h"
#include "src/math/kernels_fp32.h"

namespace hetefedrec {

template <typename T>
void MatrixT<T>::Fill(T value) {
  std::fill(data_.begin(), data_.end(), value);
}

template <typename T>
void MatrixT<T>::AddScaled(const MatrixT& other, T scale) {
  HFR_CHECK(SameShape(other));
  const T* src = other.data_.data();
  T* dst = data_.data();
  for (size_t i = 0; i < data_.size(); ++i) dst[i] += scale * src[i];
}

template <typename T>
void MatrixT<T>::Scale(T scale) {
  for (T& v : data_) v *= scale;
}

template <typename T>
MatrixT<T> MatrixT<T>::LeadingCols(size_t n_cols) const {
  HFR_CHECK_LE(n_cols, cols_);
  MatrixT out(rows_, n_cols);
  for (size_t r = 0; r < rows_; ++r) {
    const T* src = Row(r);
    T* dst = out.Row(r);
    std::copy(src, src + n_cols, dst);
  }
  return out;
}

template <typename T>
T MatrixT<T>::FrobeniusNorm() const {
  T sum = T(0);
  for (T v : data_) sum += v * v;
  return std::sqrt(sum);
}

template <typename T>
T MatrixT<T>::MaxAbs() const {
  T m = T(0);
  for (T v : data_) m = std::max(m, std::abs(v));
  return m;
}

template class MatrixT<double>;
template class MatrixT<float>;

// The float helpers run the AVX2+FMA set when the CPU has it; the scalar
// fp32 set gives the same bits.
template <typename T>
T Dot(const T* a, const T* b, size_t n) {
  if constexpr (std::is_same_v<T, float>) {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuSupportsFp32Simd()) return fp32::DotAvx2(a, b, n);
#endif
    return fp32::DotScalar(a, b, n);
  } else {
    T s = T(0);
    for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
  }
}

template <typename T>
void Axpy(T alpha, const T* x, T* y, size_t n) {
  if constexpr (std::is_same_v<T, float>) {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuSupportsFp32Simd()) return fp32::AxpyAvx2(alpha, x, y, n);
#endif
    return fp32::AxpyScalar(alpha, x, y, n);
  } else {
    for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  }
}

template <typename T>
T Norm2(const T* a, size_t n) {
  return std::sqrt(Dot(a, a, n));
}

template <typename T>
T CosineSimilarity(const T* a, const T* b, size_t n) {
  T na = Norm2(a, n);
  T nb = Norm2(b, n);
  if (na == T(0) || nb == T(0)) return T(0);
  return Dot(a, b, n) / (na * nb);
}

template double Dot<double>(const double*, const double*, size_t);
template float Dot<float>(const float*, const float*, size_t);
template void Axpy<double>(double, const double*, double*, size_t);
template void Axpy<float>(float, const float*, float*, size_t);
template double Norm2<double>(const double*, size_t);
template float Norm2<float>(const float*, size_t);
template double CosineSimilarity<double>(const double*, const double*, size_t);
template float CosineSimilarity<float>(const float*, const float*, size_t);

}  // namespace hetefedrec
