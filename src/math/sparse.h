// Sparse row-touched containers for the client→server update path.
//
// A federated client's local samples touch only O(|train items| +
// negatives + DDR sample rows) item-embedding rows per round, yet the
// dense hot path pays O(num_items × width) per client for the download
// copy, the per-epoch gradient zeroing, the Adam sweep and the upload
// delta. The three types here make every one of those steps proportional
// to the rows actually touched:
//
//   SparseRowStoreT  — packed (row index → fixed-width row data) map with
//                      O(1) lookup via a dense position table and O(touched)
//                      reset. Used for gradient accumulators and per-row
//                      Adam moments.
//   RowOverlayTableT — copy-on-write view over a base Matrix: reads fall
//                      through to the base until a row is first mutated.
//                      This is the client's "local table" without the
//                      dense download copy.
//   SparseRowUpdate  — packed upload (ascending rows + packed per-row
//                      delta data), the one form in which a client's item
//                      delta reaches the server. Always double: the wire
//                      and the server aggregation are fp64 storage of
//                      record on every compute backend.
//
// The stores and overlays are templated on the working scalar for the fp32
// compute backend (src/math/backend.h). A float overlay still sits over the
// *double* base table — rows are cast on first touch (writes) or into a
// read cache (reads), so the conversion cost stays O(rows the client
// actually visits), never O(catalogue).
//
// Correctness invariant (see docs/PERFORMANCE.md): a row whose gradient is
// exactly zero in every local epoch is provably left untouched by Adam
// (its moments stay zero, so the step is exactly 0.0), hence omitting it
// from the upload is bit-identical to uploading a zero delta row.
#ifndef HETEFEDREC_MATH_SPARSE_H_
#define HETEFEDREC_MATH_SPARSE_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/math/matrix.h"

namespace hetefedrec {

/// \brief Packed set of touched rows, each holding `cols` scalars.
///
/// Lookup is O(1) through a dense `pos_` table sized to the logical row
/// count; `Clear` is O(touched), so reusing one store across clients and
/// epochs costs nothing proportional to the catalogue.
template <typename T>
class SparseRowStoreT {
 public:
  using Scalar = T;

  SparseRowStoreT() = default;

  /// Re-shapes the store for a `num_rows x cols` logical matrix and drops
  /// all touched rows. O(touched_prev) when the shape is unchanged.
  void Reset(size_t num_rows, size_t cols);

  /// Drops all touched rows, keeping the logical shape and capacity.
  void Clear();

  size_t rows() const { return num_rows_; }
  size_t cols() const { return cols_; }

  /// Touched row indices in first-touch order. Not sorted.
  const std::vector<uint32_t>& touched() const { return rows_; }

  bool Has(size_t r) const {
    HFR_CHECK_LT(r, num_rows_);
    return pos_[r] >= 0;
  }

  /// Row data if touched, nullptr otherwise.
  const T* RowOrNull(size_t r) const {
    HFR_CHECK_LT(r, num_rows_);
    const int64_t p = pos_[r];
    return p < 0 ? nullptr : data_.data() + static_cast<size_t>(p) * cols_;
  }
  T* RowOrNull(size_t r) {
    HFR_CHECK_LT(r, num_rows_);
    const int64_t p = pos_[r];
    return p < 0 ? nullptr : data_.data() + static_cast<size_t>(p) * cols_;
  }

  /// Row data, created zero-filled on first touch. The returned pointer is
  /// invalidated by the next EnsureRow/MutableRow of a *new* row.
  T* EnsureRow(size_t r);

  /// Alias of EnsureRow so the store can stand in for a Matrix gradient
  /// accumulator in templated backward passes.
  T* MutableRow(size_t r) { return EnsureRow(r); }

  /// Copies the packed touched state (rows + data, NOT the O(num_rows)
  /// position table) into the caller's buffers. O(touched).
  void Snapshot(std::vector<uint32_t>* rows, std::vector<T>* data) const;

  /// Replaces the touched set with a snapshot taken from a store of the
  /// same logical shape. O(touched_current + touched_snapshot): the
  /// position table is patched incrementally, never reallocated.
  void Restore(const std::vector<uint32_t>& rows, const std::vector<T>& data);

 private:
  size_t num_rows_ = 0;
  size_t cols_ = 0;
  std::vector<int64_t> pos_;  // -1 = untouched, else index into rows_/data_
  std::vector<uint32_t> rows_;
  AlignedVector<T> data_;  // rows_.size() * cols_, packed
};

using SparseRowStore = SparseRowStoreT<double>;
using SparseRowStoreF = SparseRowStoreT<float>;

extern template class SparseRowStoreT<double>;
extern template class SparseRowStoreT<float>;

/// \brief Copy-on-write row view over a base Matrix (always double).
///
/// Reads (`Row`) return the overlay row when present and the base row
/// otherwise; `MutableRow` copies the base row into the overlay on first
/// touch. The overlay after training holds exactly the rows whose values
/// can differ from the base — the client's upload set.
///
/// For T = float the base stays the server's double table: `MutableRow`
/// casts the base row on first touch, and `Row` of an untouched row casts
/// it into a separate read cache (so reads never pollute the upload set).
/// Both costs are O(visited rows).
template <typename T>
class RowOverlayTableT {
 public:
  using Scalar = T;

  RowOverlayTableT() = default;

  /// Binds the view to `base` and drops all overlay rows. `base` must
  /// outlive the view (or the next Reset).
  void Reset(const Matrix* base);

  size_t rows() const { return base_->rows(); }
  size_t cols() const { return base_->cols(); }

  const T* Row(size_t r) const {
    const T* p = local_.RowOrNull(r);
    if (p != nullptr) return p;
    if constexpr (std::is_same_v<T, double>) {
      return base_->Row(r);
    } else {
      return CachedBaseRow(r);
    }
  }

  /// Overlay row for r, initialized from the base row on first touch.
  T* MutableRow(size_t r);

  /// Overlay row indices in first-touch order.
  const std::vector<uint32_t>& touched() const { return local_.touched(); }

  const Matrix& base() const { return *base_; }

  /// Read access to the overlay store (tests / diagnostics).
  const SparseRowStoreT<T>& local() const { return local_; }

  /// Packed copy of the overlay rows (used to snapshot the best validation
  /// epoch). O(touched) — deliberately not a store copy, whose position
  /// table would cost O(num_items) per improving epoch.
  void SnapshotLocal(std::vector<uint32_t>* rows, std::vector<T>* data) const {
    local_.Snapshot(rows, data);
  }

  /// Replaces the overlay with a snapshot (rows touched after the snapshot
  /// revert to base values by vanishing from the overlay). O(touched).
  void RestoreLocal(const std::vector<uint32_t>& rows,
                    const std::vector<T>& data) {
    local_.Restore(rows, data);
  }

 private:
  // Float path only: lazily cast base rows for read-only access.
  const T* CachedBaseRow(size_t r) const;

  const Matrix* base_ = nullptr;
  SparseRowStoreT<T> local_;
  // mutable: a logically-const read materializes the cast copy.
  mutable SparseRowStoreT<T> read_cache_;
};

using RowOverlayTable = RowOverlayTableT<double>;
using RowOverlayTableF = RowOverlayTableT<float>;

extern template class RowOverlayTableT<double>;
extern template class RowOverlayTableT<float>;

/// \brief Packed upload: rows (ascending) + per-row data.
struct SparseRowUpdate {
  size_t width = 0;
  std::vector<uint32_t> rows;  // strictly ascending
  std::vector<double> data;    // rows.size() * width, packed

  size_t num_rows() const { return rows.size(); }

  const double* RowData(size_t k) const { return data.data() + k * width; }

  /// Scalars a real serialization would ship: one index + `width` values
  /// per touched row.
  size_t ParamCount() const { return rows.size() * (width + 1); }

  /// dst->Row(rows[k])[0..width) += scale * RowData(k). `dst` may be wider
  /// (leading-column semantics, Eq. 7-8).
  void AddScaledTo(Matrix* dst, double scale) const;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_SPARSE_H_
