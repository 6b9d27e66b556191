#include "src/core/decorrelation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "src/math/adam.h"
#include "src/math/eigen.h"
#include "src/math/init.h"
#include "src/math/sparse.h"
#include "src/math/stats.h"

namespace hetefedrec {
namespace {

Matrix CorrelatedTable(size_t rows, size_t cols, uint64_t seed) {
  // All columns are noisy copies of one factor: heavily collapsed.
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    double t = rng.Normal();
    for (size_t c = 0; c < cols; ++c) m(r, c) = t + 0.05 * rng.Normal();
  }
  return m;
}

Matrix IsotropicTable(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  InitNormal(&m, 1.0, &rng);
  return m;
}

// --- Oracle: the straightforward product formula ---------------------------
//
// DDR's production path runs C = XᵀX and G = X·C on the kernel layer
// (ColumnGram, GemvBatchResume). This test-local copy computes them the
// naive way — an explicit transpose and a triple-loop matmul that skips
// exact-zero left operands — and every other step exactly as the
// production code does, so loss and gradient must match bit for bit.

Matrix OracleTransposed(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) out(c, r) = m(r, c);
  }
  return out;
}

Matrix OracleMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

template <typename TableT, typename GradT>
double OracleDdr(const TableT& table, double alpha, size_t sample_rows,
                 Rng* rng, GradT* grad) {
  const size_t n_cols = table.cols();
  if (table.rows() < 2) return 0.0;
  std::vector<size_t> rows;
  if (sample_rows > 0 && sample_rows < table.rows()) {
    for (size_t k = 0; k < sample_rows; ++k) {
      rows.push_back(rng->UniformInt(table.rows()));
    }
  } else {
    rows.resize(table.rows());
    std::iota(rows.begin(), rows.end(), 0);
  }
  const size_t m = rows.size();
  const double inv_m = 1.0 / static_cast<double>(m);
  std::vector<double> mean(n_cols, 0.0), inv_sd(n_cols, 0.0);
  for (size_t r : rows) {
    const auto* row = table.Row(r);
    for (size_t c = 0; c < n_cols; ++c) mean[c] += row[c];
  }
  for (double& v : mean) v *= inv_m;
  std::vector<double> var(n_cols, 0.0);
  for (size_t r : rows) {
    const auto* row = table.Row(r);
    for (size_t c = 0; c < n_cols; ++c) {
      double d = row[c] - mean[c];
      var[c] += d * d;
    }
  }
  for (size_t c = 0; c < n_cols; ++c) {
    inv_sd[c] = 1.0 / std::sqrt(var[c] * inv_m + 1e-8);
  }
  Matrix x(m, n_cols);
  for (size_t k = 0; k < m; ++k) {
    const auto* row = table.Row(rows[k]);
    for (size_t c = 0; c < n_cols; ++c) {
      x(k, c) = (row[c] - mean[c]) * inv_sd[c];
    }
  }
  Matrix c_mat = OracleMatMul(OracleTransposed(x), x);
  c_mat.Scale(inv_m);
  const double c_norm = c_mat.FrobeniusNorm();
  const double loss = c_norm / static_cast<double>(n_cols);
  if (!grad || c_norm < 1e-12 || alpha == 0.0) return loss;
  Matrix g = OracleMatMul(x, c_mat);
  g.Scale(2.0 * inv_m / (static_cast<double>(n_cols) * c_norm));
  std::vector<double> col_mean_g(n_cols, 0.0);
  for (size_t k = 0; k < m; ++k) {
    for (size_t c = 0; c < n_cols; ++c) col_mean_g[c] += g(k, c);
  }
  for (double& v : col_mean_g) v *= inv_m;
  for (size_t k = 0; k < m; ++k) {
    auto* out = grad->MutableRow(rows[k]);
    for (size_t c = 0; c < n_cols; ++c) {
      out[c] += alpha * (g(k, c) - col_mean_g[c]) * inv_sd[c];
    }
  }
  return loss;
}

template <typename T>
uint64_t Bits(T v) {
  if constexpr (sizeof(T) == 8) {
    uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  } else {
    uint32_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  }
}

// Production vs oracle element: identical bits, or — on a poisoned table —
// the same finiteness.
template <typename T>
void ExpectMatches(T got, T want, bool poisoned, const std::string& where) {
  if (poisoned) {
    EXPECT_EQ(std::isfinite(got), std::isfinite(want)) << where;
  } else {
    EXPECT_EQ(Bits(got), Bits(want)) << where << ": " << got << " vs " << want;
  }
}

// A random 300 x width table whose column 1 is constant (its standardized
// column is exact zeros), optionally poisoned with a NaN and an Inf.
Matrix OracleTable(size_t width, uint64_t seed, bool poisoned) {
  Matrix t = CorrelatedTable(300, width, seed);
  if (width > 1) {
    for (size_t r = 0; r < t.rows(); ++r) t(r, 1) = 0.75;
  }
  if (poisoned) {
    t(7, 0) = std::numeric_limits<double>::quiet_NaN();
    t(11, width - 1) = std::numeric_limits<double>::infinity();
  }
  return t;
}

constexpr size_t kOracleWidths[] = {3, 8, 16, 33, 64, 128};

TEST(DecorrelationOracleTest, DenseMatchesProductFormulaBitForBit) {
  for (bool poisoned : {false, true}) {
    for (size_t width : kOracleWidths) {
      for (size_t sample_rows : {size_t{0}, size_t{256}}) {
        const Matrix table = OracleTable(width, 31 + width, poisoned);
        Matrix grad = IsotropicTable(table.rows(), table.cols(), 37);
        Matrix grad_ref = grad;
        Rng rng(41), rng_ref(41);
        const double loss =
            DecorrelationLossAndGrad(table, 0.5, sample_rows, &rng, &grad);
        const double loss_ref =
            OracleDdr(table, 0.5, sample_rows, &rng_ref, &grad_ref);
        const std::string where = "width=" + std::to_string(width) +
                                  " sample_rows=" +
                                  std::to_string(sample_rows) +
                                  (poisoned ? " poisoned" : "");
        ExpectMatches(loss, loss_ref, poisoned, where + " loss");
        for (size_t t = 0; t < grad.size(); ++t) {
          ExpectMatches(grad.data()[t], grad_ref.data()[t], poisoned,
                        where + " grad[" + std::to_string(t) + "]");
        }
      }
    }
  }
}

template <typename T>
void CheckSparseAgainstOracle(bool poisoned) {
  for (size_t width : kOracleWidths) {
    for (size_t sample_rows : {size_t{0}, size_t{256}}) {
      const Matrix base = OracleTable(width, 43 + width, poisoned);
      // Overlay a few locally edited rows on the shared base.
      RowOverlayTableT<T> view;
      view.Reset(&base);
      for (size_t r : {size_t{2}, size_t{150}, size_t{299}}) {
        T* row = view.MutableRow(r);
        for (size_t c = 0; c < width; ++c) row[c] += T(0.125);
      }
      SparseRowStoreT<T> grad, grad_ref;
      grad.Reset(base.rows(), width);
      grad_ref.Reset(base.rows(), width);
      Rng rng(47), rng_ref(47);
      const double loss =
          DecorrelationLossAndGrad(view, 0.5, sample_rows, &rng, &grad);
      const double loss_ref =
          OracleDdr(view, 0.5, sample_rows, &rng_ref, &grad_ref);
      const std::string where = "width=" + std::to_string(width) +
                                " sample_rows=" + std::to_string(sample_rows) +
                                (poisoned ? " poisoned" : "");
      ExpectMatches(loss, loss_ref, poisoned, where + " loss");
      ASSERT_EQ(grad.touched(), grad_ref.touched()) << where;
      for (uint32_t r : grad.touched()) {
        const T* got = grad.RowOrNull(r);
        const T* want = grad_ref.RowOrNull(r);
        for (size_t c = 0; c < width; ++c) {
          ExpectMatches(got[c], want[c], poisoned,
                        where + " row " + std::to_string(r));
        }
      }
    }
  }
}

TEST(DecorrelationOracleTest, OverlaySparseMatchesProductFormulaBitForBit) {
  CheckSparseAgainstOracle<double>(false);
  CheckSparseAgainstOracle<double>(true);
}

TEST(DecorrelationOracleTest, FloatOverlaySparseMatchesProductFormula) {
  CheckSparseAgainstOracle<float>(false);
  CheckSparseAgainstOracle<float>(true);
}

TEST(DecorrelationOracleTest, FloatDenseMatchesProductFormula) {
  for (size_t width : kOracleWidths) {
    MatrixF table;
    table.AssignCast(OracleTable(width, 53 + width, false));
    MatrixF grad(table.rows(), table.cols()), grad_ref = grad;
    Rng rng(59), rng_ref(59);
    const double loss =
        DecorrelationLossAndGrad(table, 0.5, 256, &rng, &grad);
    const double loss_ref = OracleDdr(table, 0.5, 256, &rng_ref, &grad_ref);
    EXPECT_EQ(Bits(loss), Bits(loss_ref)) << "width=" << width;
    for (size_t t = 0; t < grad.size(); ++t) {
      ASSERT_EQ(Bits(grad.data()[t]), Bits(grad_ref.data()[t]))
          << "width=" << width << " t=" << t;
    }
  }
}

TEST(DecorrelationTest, LossHigherForCorrelatedTable) {
  double collapsed = DecorrelationLossAndGrad(CorrelatedTable(300, 6, 1), 1.0,
                                              0, nullptr, nullptr);
  double isotropic = DecorrelationLossAndGrad(IsotropicTable(300, 6, 2), 1.0,
                                              0, nullptr, nullptr);
  EXPECT_GT(collapsed, isotropic);
  // Fully correlated: C ~ all-ones -> ||C||_F ~ N -> loss ~ 1.
  EXPECT_NEAR(collapsed, 1.0, 0.05);
  // Independent columns: C ~ I -> loss ~ sqrt(N)/N = 1/sqrt(N).
  EXPECT_NEAR(isotropic, 1.0 / std::sqrt(6.0), 0.05);
}

TEST(DecorrelationTest, GradientDescendsTheLossUnderAdam) {
  // Matches real usage: clients feed the DDR gradient to Adam (lr 0.001-
  // 0.01); plain gradient steps would crawl because the loss scales the
  // gradient by 1/(M·N·||C||_F).
  Matrix v = CorrelatedTable(120, 5, 3);
  double before = DecorrelationLossAndGrad(v, 1.0, 0, nullptr, nullptr);
  AdamOptions opt;
  opt.lr = 0.01;
  Adam adam(opt);
  for (int step = 0; step < 300; ++step) {
    Matrix grad(v.rows(), v.cols());
    DecorrelationLossAndGrad(v, 1.0, 0, nullptr, &grad);
    adam.Step(&v, grad);
  }
  double after = DecorrelationLossAndGrad(v, 1.0, 0, nullptr, nullptr);
  EXPECT_LT(after, before * 0.7);
}

TEST(DecorrelationTest, OptimizationReducesSingularValueVariance) {
  // The Table V story: descending Lreg equalizes the covariance
  // eigenvalues.
  Matrix v = CorrelatedTable(200, 4, 5);
  // Normalize scale so the eigenvalue variance comparison is meaningful.
  double before = SingularValueVariance(StandardizeColumns(v));
  AdamOptions opt;
  opt.lr = 0.01;
  Adam adam(opt);
  for (int step = 0; step < 300; ++step) {
    Matrix grad(v.rows(), v.cols());
    DecorrelationLossAndGrad(v, 1.0, 0, nullptr, &grad);
    adam.Step(&v, grad);
  }
  double after = SingularValueVariance(StandardizeColumns(v));
  EXPECT_LT(after, before * 0.5);
}

TEST(DecorrelationTest, GradientScalesLinearlyWithAlpha) {
  Matrix v = CorrelatedTable(80, 4, 7);
  Matrix g1(v.rows(), v.cols());
  Matrix g2(v.rows(), v.cols());
  DecorrelationLossAndGrad(v, 1.0, 0, nullptr, &g1);
  DecorrelationLossAndGrad(v, 2.0, 0, nullptr, &g2);
  for (size_t i = 0; i < g1.data().size(); ++i) {
    EXPECT_NEAR(g2.data()[i], 2.0 * g1.data()[i], 1e-12);
  }
}

TEST(DecorrelationTest, LossInvariantToColumnScaling) {
  // Correlation is scale-free; standardization must absorb column scales.
  Matrix v = CorrelatedTable(150, 4, 9);
  double base = DecorrelationLossAndGrad(v, 1.0, 0, nullptr, nullptr);
  Matrix scaled = v;
  for (size_t r = 0; r < scaled.rows(); ++r) {
    scaled(r, 1) *= 7.0;
    scaled(r, 3) *= 0.01;
  }
  double after = DecorrelationLossAndGrad(scaled, 1.0, 0, nullptr, nullptr);
  // The eps guard in the standardization makes invariance approximate.
  EXPECT_NEAR(base, after, 1e-3);
}

TEST(DecorrelationTest, GradientColumnMeansNearZero) {
  // Exact centering backprop: the gradient of each column sums to ~0.
  Matrix v = CorrelatedTable(100, 5, 11);
  Matrix grad(v.rows(), v.cols());
  DecorrelationLossAndGrad(v, 1.0, 0, nullptr, &grad);
  auto means = ColumnMeans(grad);
  for (double m : means) EXPECT_NEAR(m, 0.0, 1e-12);
}

TEST(DecorrelationTest, RowSamplingApproximatesFullLoss) {
  Matrix v = CorrelatedTable(2000, 4, 13);
  double full = DecorrelationLossAndGrad(v, 1.0, 0, nullptr, nullptr);
  Rng rng(17);
  double sampled = DecorrelationLossAndGrad(v, 1.0, 500, &rng, nullptr);
  EXPECT_NEAR(sampled, full, 0.1 * full);
}

TEST(DecorrelationTest, DegenerateInputsSafe) {
  Matrix one_row(1, 4);
  EXPECT_DOUBLE_EQ(
      DecorrelationLossAndGrad(one_row, 1.0, 0, nullptr, nullptr), 0.0);
  // Constant columns: loss must be finite (eps guards the sd).
  Matrix constant(50, 3);
  constant.Fill(2.5);
  double loss = DecorrelationLossAndGrad(constant, 1.0, 0, nullptr, nullptr);
  EXPECT_FALSE(std::isnan(loss));
}

TEST(DecorrelationTest, ZeroAlphaComputesLossWithoutGrad) {
  Matrix v = CorrelatedTable(60, 4, 19);
  Matrix grad(v.rows(), v.cols());
  double loss = DecorrelationLossAndGrad(v, 0.0, 0, nullptr, &grad);
  EXPECT_GT(loss, 0.0);
  EXPECT_DOUBLE_EQ(grad.MaxAbs(), 0.0);
}

}  // namespace
}  // namespace hetefedrec
