// Dense row-major matrix, templated on the element scalar.
//
// This is the dense numeric container used across the library: embedding
// tables, feed-forward weights, covariance and correlation matrices, and
// the reference (dense) client-update path. Two instantiations exist:
// `Matrix` (double) is the storage of record — item tables at server
// granularity, FFN layers, checkpoints — and the interchange format every
// sparse structure can scatter into; `MatrixF` (float) is the working
// container of the fp32 compute backend (src/math/backend.h), used for
// client-local training state and evaluation scratch, never for state the
// server persists. The individual kernels stay simple loops, but the hot
// paths are engineered for scale: per-client training goes through the
// row-sparse containers in src/math/sparse.h so round cost is proportional
// to a client's data rather than the catalogue, rounds execute in parallel
// (src/util/thread_pool.h), and storage is 32-byte aligned
// (src/math/aligned.h) so the SIMD kernels load full vectors from row 0.
#ifndef HETEFEDREC_MATH_MATRIX_H_
#define HETEFEDREC_MATH_MATRIX_H_

#include <cstddef>

#include "src/math/aligned.h"
#include "src/util/logging.h"

namespace hetefedrec {

/// \brief Row-major dense matrix over scalar T (double or float).
template <typename T>
class MatrixT {
 public:
  using Scalar = T;

  /// Empty 0x0 matrix.
  MatrixT() = default;

  /// rows x cols matrix initialized to zero.
  MatrixT(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T(0)) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(size_t r, size_t c) {
    HFR_CHECK_LT(r, rows_);
    HFR_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  T operator()(size_t r, size_t c) const {
    HFR_CHECK_LT(r, rows_);
    HFR_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Raw pointer to the start of row r (contiguous, cols() scalars).
  T* Row(size_t r) {
    HFR_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const T* Row(size_t r) const {
    HFR_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  /// Same as Row(r); lets a MatrixT stand in for a sparse row store in
  /// templated gradient/update code (see src/math/sparse.h).
  T* MutableRow(size_t r) { return Row(r); }

  AlignedVector<T>& data() { return data_; }
  const AlignedVector<T>& data() const { return data_; }

  /// Sets every element to `value`.
  void Fill(T value);

  /// Sets every element to zero.
  void SetZero() { Fill(T(0)); }

  /// this += scale * other. Shapes must match.
  void AddScaled(const MatrixT& other, T scale);

  /// this *= scale.
  void Scale(T scale);

  /// Copy of the first `n_cols` columns (all rows). Eq. 8's `[: Nx]` slice.
  MatrixT LeadingCols(size_t n_cols) const;

  /// Frobenius norm sqrt(sum of squares).
  T FrobeniusNorm() const;

  /// Largest |element|.
  T MaxAbs() const;

  bool SameShape(const MatrixT& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Element-wise cast-assign from the other scalar width; resizes to
  /// match. The fp32 backend's conversion boundary (double → float on the
  /// way into client/eval compute, never back).
  template <typename U>
  void AssignCast(const MatrixT<U>& other) {
    rows_ = other.rows();
    cols_ = other.cols();
    data_.resize(rows_ * cols_);
    const U* src = other.data().data();
    for (size_t i = 0; i < data_.size(); ++i) data_[i] = static_cast<T>(src[i]);
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  AlignedVector<T> data_;
};

/// Storage-of-record instantiation (server tables, checkpoints, wire).
using Matrix = MatrixT<double>;
/// fp32 compute-backend instantiation (client/eval working state).
using MatrixF = MatrixT<float>;

extern template class MatrixT<double>;
extern template class MatrixT<float>;

// --- Free vector helpers over raw rows ------------------------------------
//
// The double instantiations keep the plain ascending scalar loops the
// repo's bit-identity guarantees are pinned against; the float
// instantiations dispatch to the fp32 kernel backend (scalar or AVX2 —
// bit-identical to each other, see src/math/backend.h).

/// Dot product of two length-n arrays.
template <typename T>
T Dot(const T* a, const T* b, size_t n);

/// y += alpha * x (length n).
template <typename T>
void Axpy(T alpha, const T* x, T* y, size_t n);

/// Euclidean norm of a length-n array.
template <typename T>
T Norm2(const T* a, size_t n);

/// Cosine similarity; returns 0 when either vector is all-zero.
template <typename T>
T CosineSimilarity(const T* a, const T* b, size_t n);

extern template double Dot<double>(const double*, const double*, size_t);
extern template float Dot<float>(const float*, const float*, size_t);
extern template void Axpy<double>(double, const double*, double*, size_t);
extern template void Axpy<float>(float, const float*, float*, size_t);
extern template double Norm2<double>(const double*, size_t);
extern template float Norm2<float>(const float*, size_t);
extern template double CosineSimilarity<double>(const double*, const double*,
                                                size_t);
extern template float CosineSimilarity<float>(const float*, const float*,
                                              size_t);

}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_MATRIX_H_
