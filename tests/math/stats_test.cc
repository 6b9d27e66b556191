#include "src/math/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/math/init.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

Matrix TwoColumn() {
  // col0 = [1,2,3,4], col1 = [2,4,6,8] (perfectly correlated, col1 = 2*col0)
  Matrix m(4, 2);
  for (size_t r = 0; r < 4; ++r) {
    m(r, 0) = static_cast<double>(r + 1);
    m(r, 1) = 2.0 * static_cast<double>(r + 1);
  }
  return m;
}

TEST(StatsTest, ColumnMeans) {
  auto means = ColumnMeans(TwoColumn());
  EXPECT_DOUBLE_EQ(means[0], 2.5);
  EXPECT_DOUBLE_EQ(means[1], 5.0);
}

TEST(StatsTest, ColumnVariances) {
  auto vars = ColumnVariances(TwoColumn());
  EXPECT_DOUBLE_EQ(vars[0], 1.25);  // population variance of 1..4
  EXPECT_DOUBLE_EQ(vars[1], 5.0);
}

TEST(StatsTest, CovarianceMatrixSymmetricAndCorrect) {
  Matrix cov = CovarianceMatrix(TwoColumn());
  EXPECT_DOUBLE_EQ(cov(0, 0), 1.25);
  EXPECT_DOUBLE_EQ(cov(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(cov(0, 1), cov(1, 0));
}

TEST(StatsTest, StandardizeColumnsZeroMeanUnitVar) {
  Rng rng(3);
  Matrix m(200, 4);
  InitNormal(&m, 3.0, &rng);
  for (size_t r = 0; r < m.rows(); ++r) m(r, 2) += 10.0;  // shifted column
  Matrix z = StandardizeColumns(m);
  auto means = ColumnMeans(z);
  auto vars = ColumnVariances(z);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(means[c], 0.0, 1e-9);
    EXPECT_NEAR(vars[c], 1.0, 1e-6);
  }
}

TEST(StatsTest, ScalarHelpers) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(v), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
}

TEST(StatsTest, EmptyMatrixStats) {
  Matrix m(0, 3);
  auto means = ColumnMeans(m);
  EXPECT_EQ(means.size(), 3u);
  EXPECT_DOUBLE_EQ(means[0], 0.0);
  Matrix cov = CovarianceMatrix(m);
  EXPECT_EQ(cov.rows(), 3u);
}

}  // namespace
}  // namespace hetefedrec
