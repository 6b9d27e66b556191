// Adam optimizer (Kingma & Ba, 2015) over Matrix parameters.
//
// Clients run Adam locally (the paper's optimizer, lr = 0.001); the server
// applies aggregated *updates*, not Adam, per Eq. 4/9. Both classes are
// templated on the working scalar: the double instantiations are the
// bit-identity reference, the float ones serve the fp32 compute backend
// (hyper-parameters stay double in AdamOptions and are cast once per
// step, and the bias corrections are computed in double then cast, so the
// double path is unchanged to the bit).
#ifndef HETEFEDREC_MATH_ADAM_H_
#define HETEFEDREC_MATH_ADAM_H_

#include "src/math/matrix.h"
#include "src/math/sparse.h"

namespace hetefedrec {

/// Hyper-parameters for Adam; defaults follow the original paper.
struct AdamOptions {
  double lr = 0.001;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
};

/// \brief Per-parameter Adam state (first/second moments + step count).
///
/// One `AdamT` instance owns the state for exactly one Matrix-shaped
/// parameter. State is created lazily on the first `Step` so the class can
/// be declared before parameter shapes are known.
template <typename T>
class AdamT {
 public:
  explicit AdamT(AdamOptions options = {}) : options_(options) {}

  /// Applies one Adam update: param -= lr * mhat / (sqrt(vhat) + eps).
  /// Shapes of `param` and `grad` must match across all calls.
  ///
  /// A gradient containing any non-finite value (NaN/Inf) would poison the
  /// moment estimates forever; such steps are skipped entirely — no moment
  /// decay, no step-count increment — and counted in `skipped_steps()`.
  void Step(MatrixT<T>* param, const MatrixT<T>& grad);

  /// Resets moments and the step counter (used when a client receives fresh
  /// global parameters at the start of a round).
  void Reset();

  const AdamOptions& options() const { return options_; }
  long long step_count() const { return t_; }

  /// Steps dropped because the gradient contained a non-finite value.
  /// Cleared by `Reset` along with the moments.
  long long skipped_steps() const { return skipped_; }

  /// First and second moments; empty before the first step (tests).
  const MatrixT<T>& first_moment() const { return m_; }
  const MatrixT<T>& second_moment() const { return v_; }

 private:
  AdamOptions options_;
  MatrixT<T> m_;
  MatrixT<T> v_;
  long long t_ = 0;
  long long skipped_ = 0;
};

using Adam = AdamT<double>;
using AdamF = AdamT<float>;

extern template class AdamT<double>;
extern template class AdamT<float>;

/// \brief Row-sparse Adam over a copy-on-write table view.
///
/// Bit-identical to running dense `Adam` over the full table with a
/// gradient that is zero outside the touched rows: a never-touched row has
/// zero moments and zero gradient, so its dense update is exactly 0.0;
/// a row first touched at global step t has had zero moments through steps
/// 1..t-1, which is exactly the state this class materializes lazily. Rows
/// touched in an earlier step keep receiving moment-decay steps in later
/// ones (matching dense Adam), so the per-step cost is O(cumulative touched
/// rows × width), never O(table).
template <typename T>
class SparseRowAdamT {
 public:
  explicit SparseRowAdamT(AdamOptions options = {}) : options_(options) {}

  /// Replaces the hyper-parameters (takes effect from the next Step).
  void set_options(const AdamOptions& options) { options_ = options; }

  /// Drops all moments and re-shapes for a `num_rows x width` table.
  /// O(previously touched rows) when the shape is unchanged, so one
  /// instance can serve a whole sequence of clients.
  void Reset(size_t num_rows, size_t width);

  /// One global Adam step: every row in `grad` joins the touched set, then
  /// every touched row is stepped (absent rows with exact-zero gradient).
  ///
  /// Like dense `Adam::Step`, a gradient with any non-finite value skips the
  /// whole step (no enrollment, no decay, no step-count increment) and bumps
  /// `skipped_steps()`.
  void Step(RowOverlayTableT<T>* table, const SparseRowStoreT<T>& grad);

  long long step_count() const { return t_; }

  /// Steps dropped because the gradient contained a non-finite value.
  /// Cleared by `Reset` along with the moments.
  long long skipped_steps() const { return skipped_; }

  /// Per touched row: [m(0..w), v(0..w)] (tests).
  const SparseRowStoreT<T>& moments() const { return moments_; }

 private:
  AdamOptions options_;
  SparseRowStoreT<T> moments_;  // per touched row: [m(0..w), v(0..w)]
  long long t_ = 0;
  long long skipped_ = 0;
};

using SparseRowAdam = SparseRowAdamT<double>;
using SparseRowAdamF = SparseRowAdamT<float>;

extern template class SparseRowAdamT<double>;
extern template class SparseRowAdamT<float>;

}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_ADAM_H_
