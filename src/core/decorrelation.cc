#include "src/core/decorrelation.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "src/math/kernels.h"
#include "src/math/sparse.h"

namespace hetefedrec {

namespace {

// Per-thread buffers reused across calls: a client's local update runs on
// one thread, so DDR allocates nothing after its first call per shape.
struct DdrScratch {
  std::vector<size_t> rows;
  std::vector<double> mean, var, inv_sd, col_mean_g, zeros;
  AlignedVector<double> x, c, g;  // m x N, N x N, m x N (row-major)
};

DdrScratch& Scratch() {
  thread_local DdrScratch scratch;
  return scratch;
}

}  // namespace

template <typename TableT, typename GradT>
double DecorrelationLossAndGrad(const TableT& table, double alpha,
                                size_t sample_rows, Rng* rng, GradT* grad) {
  const size_t n_cols = table.cols();
  HFR_CHECK_GT(n_cols, 0u);
  if (grad) {
    HFR_CHECK_GE(grad->cols(), n_cols);
    HFR_CHECK_EQ(grad->rows(), table.rows());
  }
  if (table.rows() < 2) return 0.0;
  DdrScratch& s = Scratch();

  // Row sample (or all rows).
  std::vector<size_t>& rows = s.rows;
  rows.clear();
  if (sample_rows > 0 && sample_rows < table.rows()) {
    HFR_CHECK(rng != nullptr);
    for (size_t k = 0; k < sample_rows; ++k) {
      rows.push_back(rng->UniformInt(table.rows()));
    }
  } else {
    rows.resize(table.rows());
    std::iota(rows.begin(), rows.end(), 0);
  }
  const size_t m = rows.size();
  const double inv_m = 1.0 / static_cast<double>(m);

  // Column means and variances over the sample. The loss math stays in
  // double on every backend (tiny sample, and the RNG draw sequence above
  // must match fp64 exactly); only the row reads below may be float.
  std::vector<double>& mean = s.mean;
  mean.assign(n_cols, 0.0);
  for (size_t r : rows) {
    const auto* row = table.Row(r);
    for (size_t c = 0; c < n_cols; ++c) mean[c] += row[c];
  }
  for (double& v : mean) v *= inv_m;
  std::vector<double>& var = s.var;
  var.assign(n_cols, 0.0);
  for (size_t r : rows) {
    const auto* row = table.Row(r);
    for (size_t c = 0; c < n_cols; ++c) {
      double d = row[c] - mean[c];
      var[c] += d * d;
    }
  }
  constexpr double kEps = 1e-8;
  std::vector<double>& inv_sd = s.inv_sd;
  inv_sd.resize(n_cols);
  for (size_t c = 0; c < n_cols; ++c) {
    inv_sd[c] = 1.0 / std::sqrt(var[c] * inv_m + kEps);
  }

  // Standardized sample X (m x N) and C = XᵀX / m.
  s.x.resize(m * n_cols);
  double* x = s.x.data();
  for (size_t k = 0; k < m; ++k) {
    const auto* row = table.Row(rows[k]);
    double* xrow = x + k * n_cols;
    for (size_t c = 0; c < n_cols; ++c) {
      xrow[c] = (row[c] - mean[c]) * inv_sd[c];
    }
  }
  s.c.resize(n_cols * n_cols);
  double* c_mat = s.c.data();
  ColumnGram(x, m, n_cols, c_mat);
  double sum_sq = 0.0;
  for (size_t t = 0; t < n_cols * n_cols; ++t) {
    c_mat[t] *= inv_m;
    sum_sq += c_mat[t] * c_mat[t];
  }

  const double c_norm = std::sqrt(sum_sq);
  const double loss = c_norm / static_cast<double>(n_cols);
  if (!grad || c_norm < 1e-12 || alpha == 0.0) return loss;

  // dL/dX = 2 X C / (m N ||C||_F); then exact centering backprop with the
  // per-column sd treated as constant. X·C is a GEMV batch over X's rows
  // resuming from zero.
  s.zeros.assign(n_cols, 0.0);
  s.g.resize(m * n_cols);
  double* g = s.g.data();
  GemvBatchResume(x, m, n_cols, n_cols, c_mat, s.zeros.data(), n_cols, g);
  const double g_scale =
      2.0 * inv_m / (static_cast<double>(n_cols) * c_norm);
  for (size_t t = 0; t < m * n_cols; ++t) g[t] *= g_scale;

  std::vector<double>& col_mean_g = s.col_mean_g;
  col_mean_g.assign(n_cols, 0.0);
  for (size_t k = 0; k < m; ++k) {
    const double* grow = g + k * n_cols;
    for (size_t c = 0; c < n_cols; ++c) col_mean_g[c] += grow[c];
  }
  for (double& v : col_mean_g) v *= inv_m;

  for (size_t k = 0; k < m; ++k) {
    const double* grow = g + k * n_cols;
    auto* out = grad->MutableRow(rows[k]);
    for (size_t c = 0; c < n_cols; ++c) {
      out[c] += alpha * (grow[c] - col_mean_g[c]) * inv_sd[c];
    }
  }
  return loss;
}

template double DecorrelationLossAndGrad<Matrix, Matrix>(const Matrix&,
                                                         double, size_t,
                                                         Rng*, Matrix*);
template double DecorrelationLossAndGrad<RowOverlayTable, SparseRowStore>(
    const RowOverlayTable&, double, size_t, Rng*, SparseRowStore*);
template double DecorrelationLossAndGrad<MatrixF, MatrixF>(const MatrixF&,
                                                           double, size_t,
                                                           Rng*, MatrixF*);
template double DecorrelationLossAndGrad<RowOverlayTableF, SparseRowStoreF>(
    const RowOverlayTableF&, double, size_t, Rng*, SparseRowStoreF*);

}  // namespace hetefedrec
