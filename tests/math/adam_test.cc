#include "src/math/adam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/math/init.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // With bias correction, the first Adam step is ±lr for any nonzero grad.
  AdamOptions opt;
  opt.lr = 0.1;
  Adam adam(opt);
  Matrix p(1, 2);
  Matrix g(1, 2);
  g(0, 0) = 5.0;
  g(0, 1) = -0.001;
  adam.Step(&p, g);
  EXPECT_NEAR(p(0, 0), -0.1, 1e-6);
  EXPECT_NEAR(p(0, 1), 0.1, 1e-3);  // eps slightly damps tiny grads
}

TEST(AdamTest, ZeroGradLeavesParamsFixed) {
  Adam adam;
  Matrix p(2, 2);
  p.Fill(3.0);
  Matrix g(2, 2);
  adam.Step(&p, g);
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(p(r, c), 3.0);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2; gradient 2(x-3).
  AdamOptions opt;
  opt.lr = 0.05;
  Adam adam(opt);
  Matrix x(1, 1);
  for (int i = 0; i < 2000; ++i) {
    Matrix g(1, 1);
    g(0, 0) = 2.0 * (x(0, 0) - 3.0);
    adam.Step(&x, g);
  }
  EXPECT_NEAR(x(0, 0), 3.0, 1e-3);
}

TEST(AdamTest, ConvergesOnRosenbrockStart) {
  // A harder anisotropic objective: f = 100(y - x^2)^2 + (1-x)^2.
  AdamOptions opt;
  opt.lr = 0.01;
  Adam adam(opt);
  Matrix p(1, 2);
  p(0, 0) = -1.0;
  p(0, 1) = 1.0;
  for (int i = 0; i < 20000; ++i) {
    double x = p(0, 0), y = p(0, 1);
    Matrix g(1, 2);
    g(0, 0) = -400.0 * x * (y - x * x) - 2.0 * (1.0 - x);
    g(0, 1) = 200.0 * (y - x * x);
    adam.Step(&p, g);
  }
  EXPECT_NEAR(p(0, 0), 1.0, 0.05);
  EXPECT_NEAR(p(0, 1), 1.0, 0.1);
}

TEST(AdamTest, ResetClearsState) {
  Adam adam;
  Matrix p(1, 1);
  Matrix g(1, 1);
  g(0, 0) = 1.0;
  adam.Step(&p, g);
  EXPECT_EQ(adam.step_count(), 1);
  adam.Reset();
  EXPECT_EQ(adam.step_count(), 0);
  // After reset the optimizer accepts a different shape.
  Matrix p2(2, 2), g2(2, 2);
  g2.Fill(1.0);
  adam.Step(&p2, g2);
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(AdamTest, StepCountsAccumulate) {
  Adam adam;
  Matrix p(1, 1), g(1, 1);
  g(0, 0) = 0.5;
  for (int i = 0; i < 5; ++i) adam.Step(&p, g);
  EXPECT_EQ(adam.step_count(), 5);
}

TEST(AdamTest, NonFiniteGradientSkipsTheStep) {
  AdamOptions opt;
  opt.lr = 0.1;
  Adam adam(opt);
  Matrix p(1, 2), g(1, 2);
  g(0, 0) = 1.0;
  g(0, 1) = 1.0;
  adam.Step(&p, g);
  const double p0 = p(0, 0), p1 = p(0, 1);

  // A NaN anywhere in the gradient must leave params, moments, and the step
  // count untouched — otherwise the moments are poisoned forever.
  Matrix bad = g;
  bad(0, 1) = std::nan("");
  adam.Step(&p, bad);
  EXPECT_DOUBLE_EQ(p(0, 0), p0);
  EXPECT_DOUBLE_EQ(p(0, 1), p1);
  EXPECT_EQ(adam.step_count(), 1);
  EXPECT_EQ(adam.skipped_steps(), 1);

  bad(0, 1) = std::numeric_limits<double>::infinity();
  adam.Step(&p, bad);
  EXPECT_EQ(adam.skipped_steps(), 2);

  // The skipped step left no trace: the next clean step matches a fresh
  // optimizer that saw only the two clean gradients.
  adam.Step(&p, g);
  Adam fresh(opt);
  Matrix q(1, 2);
  fresh.Step(&q, g);
  fresh.Step(&q, g);
  EXPECT_DOUBLE_EQ(p(0, 0), q(0, 0));
  EXPECT_DOUBLE_EQ(p(0, 1), q(0, 1));
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(AdamTest, ResetClearsSkippedCounter) {
  Adam adam;
  Matrix p(1, 1), g(1, 1);
  g(0, 0) = std::nan("");
  adam.Step(&p, g);
  EXPECT_EQ(adam.skipped_steps(), 1);
  adam.Reset();
  EXPECT_EQ(adam.skipped_steps(), 0);
}

TEST(SparseRowAdamTest, NonFiniteGradientSkipsTheStep) {
  AdamOptions opt;
  opt.lr = 0.1;
  Matrix base(4, 2);
  base.Fill(1.0);

  RowOverlayTable table;
  table.Reset(&base);
  SparseRowAdam adam(opt);
  adam.Reset(4, 2);

  SparseRowStore grad;
  grad.Reset(4, 2);
  double* row = grad.EnsureRow(1);
  row[0] = 0.5;
  row[1] = std::nan("");
  adam.Step(&table, grad);
  EXPECT_EQ(adam.step_count(), 0);
  EXPECT_EQ(adam.skipped_steps(), 1);
  // No row was enrolled or modified.
  EXPECT_TRUE(table.touched().empty());
  EXPECT_DOUBLE_EQ(table.Row(1)[0], 1.0);

  // A clean step afterwards behaves exactly like the first step of a fresh
  // optimizer.
  row[1] = 0.5;
  adam.Step(&table, grad);
  EXPECT_EQ(adam.step_count(), 1);
  EXPECT_NEAR(table.Row(1)[0], 1.0 - opt.lr, 1e-6);

  adam.Reset(4, 2);
  EXPECT_EQ(adam.skipped_steps(), 0);
}

// --- bit-pattern oracle ----------------------------------------------------
//
// The scalar loops the vectorized step replaced, one element at a time.
// The step must reproduce them to the bit in both precisions: the same
// operations in the same order, with no FMA and correctly rounded
// division and square root.

template <typename T>
void OracleElements(const AdamOptions& o, long long t, const T* g, T* m,
                    T* v, T* p, size_t n) {
  const T b1 = static_cast<T>(o.beta1);
  const T b2 = static_cast<T>(o.beta2);
  const T one(1);
  const T bias1 =
      static_cast<T>(1.0 - std::pow(o.beta1, static_cast<double>(t)));
  const T bias2 =
      static_cast<T>(1.0 - std::pow(o.beta2, static_cast<double>(t)));
  const T lr = static_cast<T>(o.lr);
  const T eps = static_cast<T>(o.eps);
  for (size_t d = 0; d < n; ++d) {
    const T gd = g != nullptr ? g[d] : T(0);
    m[d] = b1 * m[d] + (one - b1) * gd;
    v[d] = b2 * v[d] + (one - b2) * gd * gd;
    const T mhat = m[d] / bias1;
    const T vhat = v[d] / bias2;
    p[d] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

template <typename T>
bool OracleAllFinite(const std::vector<T>& x) {
  for (T e : x) {
    if (!std::isfinite(e)) return false;
  }
  return true;
}

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

template <typename T>
::testing::AssertionResult SameBits(const T* got, const T* want, size_t n) {
  for (size_t d = 0; d < n; ++d) {
    if (Bits(got[d]) != Bits(want[d])) {
      return ::testing::AssertionFailure()
             << "element " << d << ": " << got[d] << " vs " << want[d];
    }
  }
  return ::testing::AssertionSuccess();
}

// Gradient values: normals salted with exact zeros of both signs,
// subnormals of both signs, and one value whose square overflows, so the
// second moment turns infinite while the gradient stays finite.
template <typename T>
std::vector<T> OracleGradient(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> g(n);
  const T tiny = std::numeric_limits<T>::denorm_min();
  for (size_t d = 0; d < n; ++d) {
    g[d] = static_cast<T>(rng.Normal(0.0, 0.5));
    switch ((d + seed) % 9) {
      case 1:
        g[d] = T(0);
        break;
      case 3:
        g[d] = -T(0);
        break;
      case 5:
        g[d] = tiny * T(3);
        break;
      case 7:
        g[d] = -std::numeric_limits<T>::min() / T(4);
        break;
      default:
        break;
    }
  }
  if (n > 2) g[n - 2] = std::sqrt(std::numeric_limits<T>::max()) * T(1e3);
  return g;
}

constexpr size_t kOracleWidths[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 128};

template <typename T>
void CheckDenseAgainstOracle() {
  AdamOptions opt;
  opt.lr = 0.01;
  for (size_t width : kOracleWidths) {
    SCOPED_TRACE(::testing::Message() << "width=" << width);
    const size_t n = 3 * width;
    MatrixT<T> p(3, width);
    Rng init(width);
    for (T& x : p.data()) x = static_cast<T>(init.Normal(0.0, 0.1));
    std::vector<T> want_p(p.data().begin(), p.data().end());
    std::vector<T> want_m(n, T(0)), want_v(n, T(0));
    AdamT<T> adam(opt);
    long long t = 0;
    for (int step = 0; step < 5; ++step) {
      SCOPED_TRACE(::testing::Message() << "step=" << step);
      std::vector<T> g = OracleGradient<T>(n, 31 * width + step);
      // Step 2 carries a non-finite value: the whole step is skipped.
      if (step == 2) g[n / 2] = std::numeric_limits<T>::quiet_NaN();
      if (step == 3) g[0] = -std::numeric_limits<T>::infinity();
      MatrixT<T> grad(3, width);
      std::copy(g.begin(), g.end(), grad.data().begin());
      adam.Step(&p, grad);
      if (OracleAllFinite(g)) {
        ++t;
        OracleElements(opt, t, g.data(), want_m.data(), want_v.data(),
                       want_p.data(), n);
      }
      ASSERT_EQ(adam.step_count(), t);
      ASSERT_TRUE(SameBits(p.data().data(), want_p.data(), n)) << "param";
      ASSERT_TRUE(SameBits(adam.first_moment().data().data(), want_m.data(),
                           n))
          << "m";
      ASSERT_TRUE(SameBits(adam.second_moment().data().data(),
                           want_v.data(), n))
          << "v";
    }
    EXPECT_EQ(adam.skipped_steps(), 2);
  }
}

TEST(AdamOracleTest, DenseStepMatchesScalarLoopBitForBit) {
  CheckDenseAgainstOracle<double>();
  CheckDenseAgainstOracle<float>();
}

template <typename T>
void CheckSparseAgainstOracle() {
  AdamOptions opt;
  opt.lr = 0.01;
  constexpr size_t kRows = 12;
  // Rows touched per step. Rows leave the gradient and keep decaying;
  // step 3 carries a NaN and is skipped whole.
  const std::vector<std::vector<uint32_t>> kSteps = {
      {1, 4, 7, 9}, {4, 10}, {0, 1}, {2, 5}, {7}, {}};
  for (size_t width : kOracleWidths) {
    SCOPED_TRACE(::testing::Message() << "width=" << width);
    Matrix base(kRows, width);
    Rng init(width + 101);
    InitNormal(&base, 0.1, &init);
    RowOverlayTableT<T> table;
    table.Reset(&base);
    SparseRowAdamT<T> adam(opt);
    adam.Reset(kRows, width);

    std::vector<T> want_p(kRows * width);
    for (size_t t = 0; t < want_p.size(); ++t) {
      want_p[t] = static_cast<T>(base.data()[t]);
    }
    std::vector<T> want_m(kRows * width, T(0)), want_v(kRows * width, T(0));
    std::vector<bool> touched(kRows, false);
    long long t = 0;
    SparseRowStoreT<T> grad;
    for (size_t step = 0; step < kSteps.size(); ++step) {
      SCOPED_TRACE(::testing::Message() << "step=" << step);
      grad.Reset(kRows, width);
      bool finite = true;
      for (uint32_t r : kSteps[step]) {
        std::vector<T> g =
            OracleGradient<T>(width, 17 * r + 5 * step + width);
        if (step == 3 && r == 5) {
          g[width - 1] = std::numeric_limits<T>::quiet_NaN();
        }
        finite = finite && OracleAllFinite(g);
        std::copy(g.begin(), g.end(), grad.EnsureRow(r));
      }
      adam.Step(&table, grad);
      if (finite) {
        ++t;
        for (uint32_t r : kSteps[step]) touched[r] = true;
        for (size_t r = 0; r < kRows; ++r) {
          if (!touched[r]) continue;
          OracleElements(opt, t, grad.RowOrNull(r), &want_m[r * width],
                         &want_v[r * width], &want_p[r * width], width);
        }
      }
      ASSERT_EQ(adam.step_count(), t);
      size_t num_touched = 0;
      for (size_t r = 0; r < kRows; ++r) {
        SCOPED_TRACE(::testing::Message() << "row=" << r);
        ASSERT_TRUE(SameBits(table.Row(r), &want_p[r * width], width))
            << "param";
        ASSERT_EQ(adam.moments().Has(r), touched[r]);
        if (!touched[r]) continue;
        ++num_touched;
        const T* mv = adam.moments().RowOrNull(r);
        ASSERT_TRUE(SameBits(mv, &want_m[r * width], width)) << "m";
        ASSERT_TRUE(SameBits(mv + width, &want_v[r * width], width)) << "v";
      }
      ASSERT_EQ(adam.moments().touched().size(), num_touched);
    }
    EXPECT_EQ(adam.skipped_steps(), 1);
  }
}

TEST(AdamOracleTest, SparseRowStepMatchesScalarLoopBitForBit) {
  CheckSparseAgainstOracle<double>();
  CheckSparseAgainstOracle<float>();
}

}  // namespace
}  // namespace hetefedrec
