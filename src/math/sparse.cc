#include "src/math/sparse.h"

namespace hetefedrec {

template <typename T>
void SparseRowStoreT<T>::Reset(size_t num_rows, size_t cols) {
  // pos_ maps row -> packed index independently of the column stride, so a
  // width change is still an O(touched) reset; only a row-count change
  // pays for a fresh table. This matters when one store serves clients of
  // interleaved widths over a large catalogue.
  if (num_rows == num_rows_) {
    Clear();
  } else {
    num_rows_ = num_rows;
    pos_.assign(num_rows, -1);
    rows_.clear();
    data_.clear();
  }
  cols_ = cols;
}

template <typename T>
void SparseRowStoreT<T>::Clear() {
  for (uint32_t r : rows_) pos_[r] = -1;
  rows_.clear();
  data_.clear();
}

template <typename T>
T* SparseRowStoreT<T>::EnsureRow(size_t r) {
  HFR_CHECK_LT(r, num_rows_);
  int64_t p = pos_[r];
  if (p < 0) {
    p = static_cast<int64_t>(rows_.size());
    pos_[r] = p;
    rows_.push_back(static_cast<uint32_t>(r));
    data_.resize(data_.size() + cols_, T(0));
  }
  return data_.data() + static_cast<size_t>(p) * cols_;
}

template <typename T>
void SparseRowStoreT<T>::Snapshot(std::vector<uint32_t>* rows,
                                  std::vector<T>* data) const {
  rows->assign(rows_.begin(), rows_.end());
  data->assign(data_.begin(), data_.end());
}

template <typename T>
void SparseRowStoreT<T>::Restore(const std::vector<uint32_t>& rows,
                                 const std::vector<T>& data) {
  HFR_CHECK_EQ(data.size(), rows.size() * cols_);
  Clear();
  rows_.assign(rows.begin(), rows.end());
  data_.assign(data.begin(), data.end());
  for (size_t k = 0; k < rows_.size(); ++k) {
    HFR_CHECK_LT(rows_[k], num_rows_);
    pos_[rows_[k]] = static_cast<int64_t>(k);
  }
}

template class SparseRowStoreT<double>;
template class SparseRowStoreT<float>;

template <typename T>
void RowOverlayTableT<T>::Reset(const Matrix* base) {
  HFR_CHECK(base != nullptr);
  base_ = base;
  local_.Reset(base->rows(), base->cols());
  if constexpr (std::is_same_v<T, float>) {
    read_cache_.Reset(base->rows(), base->cols());
  }
}

template <typename T>
T* RowOverlayTableT<T>::MutableRow(size_t r) {
  const bool fresh = !local_.Has(r);
  T* p = local_.EnsureRow(r);
  if (fresh) {
    const double* src = base_->Row(r);
    for (size_t c = 0; c < cols(); ++c) p[c] = static_cast<T>(src[c]);
  }
  return p;
}

template <typename T>
const T* RowOverlayTableT<T>::CachedBaseRow(size_t r) const {
  const T* cached = read_cache_.RowOrNull(r);
  if (cached != nullptr) return cached;
  T* p = read_cache_.EnsureRow(r);
  const double* src = base_->Row(r);
  for (size_t c = 0; c < cols(); ++c) p[c] = static_cast<T>(src[c]);
  return p;
}

template class RowOverlayTableT<double>;
template class RowOverlayTableT<float>;

void SparseRowUpdate::AddScaledTo(Matrix* dst, double scale) const {
  HFR_CHECK_GE(dst->cols(), width);
  for (size_t k = 0; k < rows.size(); ++k) {
    HFR_CHECK_LT(rows[k], dst->rows());
    Axpy(scale, RowData(k), dst->Row(rows[k]), width);
  }
}

}  // namespace hetefedrec
