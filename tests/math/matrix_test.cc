#include "src/math/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hetefedrec {
namespace {

Matrix Iota(size_t rows, size_t cols) {
  Matrix m(rows, cols);
  double v = 1.0;
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) m(r, c) = v++;
  return m;
}

TEST(MatrixTest, ConstructionZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 0.0);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, ElementAccessRowMajor) {
  Matrix m = Iota(2, 3);
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
  EXPECT_EQ(m.Row(1)[2], 6.0);
}

TEST(MatrixTest, FillAndSetZero) {
  Matrix m(2, 2);
  m.Fill(7.5);
  EXPECT_EQ(m(1, 1), 7.5);
  m.SetZero();
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, AddScaled) {
  Matrix a = Iota(2, 2);
  Matrix b = Iota(2, 2);
  a.AddScaled(b, -0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(a(1, 1), 2.0);
}

TEST(MatrixTest, ScaleInPlace) {
  Matrix m = Iota(1, 3);
  m.Scale(-2.0);
  EXPECT_DOUBLE_EQ(m(0, 2), -6.0);
}

TEST(MatrixTest, LeadingColsSlices) {
  Matrix m = Iota(2, 4);
  Matrix s = m.LeadingCols(2);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_EQ(s(0, 0), 1.0);
  EXPECT_EQ(s(0, 1), 2.0);
  EXPECT_EQ(s(1, 0), 5.0);
  EXPECT_EQ(s(1, 1), 6.0);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, MaxAbs) {
  Matrix m(1, 3);
  m(0, 0) = -9.0;
  m(0, 1) = 2.0;
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 9.0);
}

TEST(VectorOpsTest, DotAxpyNorm) {
  double a[3] = {1, 2, 3};
  double b[3] = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 32.0);
  Axpy(2.0, a, b, 3);
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  double c[2] = {3, 4};
  EXPECT_DOUBLE_EQ(Norm2(c, 2), 5.0);
}

TEST(VectorOpsTest, CosineSimilarity) {
  double a[2] = {1, 0};
  double b[2] = {0, 1};
  double c[2] = {2, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b, 2), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, c, 2), 1.0);
  double zero[2] = {0, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero, 2), 0.0);
}

}  // namespace
}  // namespace hetefedrec
