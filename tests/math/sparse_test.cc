#include "src/math/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/math/adam.h"
#include "src/math/init.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

TEST(SparseRowStoreTest, EnsureRowZeroInitializedAndStable) {
  SparseRowStore s;
  s.Reset(10, 3);
  EXPECT_EQ(s.rows(), 10u);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_FALSE(s.Has(4));
  EXPECT_EQ(s.RowOrNull(4), nullptr);

  double* r4 = s.EnsureRow(4);
  for (int d = 0; d < 3; ++d) EXPECT_EQ(r4[d], 0.0);
  r4[1] = 2.5;
  EXPECT_TRUE(s.Has(4));
  EXPECT_EQ(s.RowOrNull(4)[1], 2.5);
  // Re-ensuring an existing row returns the same data.
  EXPECT_EQ(s.EnsureRow(4)[1], 2.5);
  ASSERT_EQ(s.touched().size(), 1u);
  EXPECT_EQ(s.touched()[0], 4u);
}

TEST(SparseRowStoreTest, ClearIsTouchedProportionalAndComplete) {
  SparseRowStore s;
  s.Reset(100, 2);
  s.EnsureRow(7)[0] = 1.0;
  s.EnsureRow(93)[1] = -1.0;
  s.Clear();
  EXPECT_TRUE(s.touched().empty());
  EXPECT_FALSE(s.Has(7));
  EXPECT_FALSE(s.Has(93));
  // After clearing, rows come back zeroed.
  EXPECT_EQ(s.EnsureRow(7)[0], 0.0);
}

TEST(SparseRowStoreTest, ResetReshapes) {
  SparseRowStore s;
  s.Reset(5, 2);
  s.EnsureRow(1);
  s.Reset(8, 4);
  EXPECT_EQ(s.rows(), 8u);
  EXPECT_EQ(s.cols(), 4u);
  EXPECT_FALSE(s.Has(1));
}

TEST(RowOverlayTableTest, ReadsFallThroughUntilMutated) {
  Matrix base(6, 2);
  base(3, 0) = 1.5;
  base(3, 1) = -2.0;
  RowOverlayTable view;
  view.Reset(&base);
  EXPECT_EQ(view.rows(), 6u);
  EXPECT_EQ(view.cols(), 2u);
  EXPECT_EQ(view.Row(3)[0], 1.5);

  double* r3 = view.MutableRow(3);
  EXPECT_EQ(r3[0], 1.5);  // copy-on-write seeded from the base
  r3[0] = 9.0;
  EXPECT_EQ(view.Row(3)[0], 9.0);
  EXPECT_EQ(base(3, 0), 1.5);  // base untouched
  EXPECT_EQ(view.Row(2)[1], 0.0);
  ASSERT_EQ(view.touched().size(), 1u);
}

TEST(SparseRowUpdateTest, ParamCountAndScatter) {
  SparseRowUpdate up;
  up.width = 3;
  up.rows = {1, 4};
  up.data = {1.0, 0.0, 0.0, 0.0, 0.0, -3.0};
  ASSERT_EQ(up.num_rows(), 2u);
  EXPECT_EQ(up.RowData(1)[2], -3.0);
  EXPECT_EQ(up.ParamCount(), 2u * 4u);

  // Scatter into a wider destination: leading-column semantics.
  Matrix wide(5, 4);
  wide.Fill(1.0);
  up.AddScaledTo(&wide, 2.0);
  EXPECT_EQ(wide(1, 0), 3.0);
  EXPECT_EQ(wide(4, 2), -5.0);
  EXPECT_EQ(wide(4, 3), 1.0);  // tail column untouched
  EXPECT_EQ(wide(0, 0), 1.0);  // untouched row
}

TEST(SparseRowAdamTest, MatchesDenseAdamBitForBit) {
  // Dense Adam over a gradient that is zero outside a touched set must be
  // reproduced exactly by SparseRowAdam over the touched rows only — the
  // invariant the sparse client-update path rests on.
  constexpr size_t kRows = 32;
  constexpr size_t kCols = 4;
  Rng rng(11);
  Matrix base(kRows, kCols);
  InitNormal(&base, 0.1, &rng);

  Matrix dense_param = base;
  Adam dense_adam;
  SparseRowAdam sparse_adam;
  sparse_adam.Reset(kRows, kCols);
  RowOverlayTable view;
  view.Reset(&base);

  // Three steps with different touched sets, including a row that is
  // touched in step 1 but not afterwards (moment decay must continue).
  const std::vector<std::vector<uint32_t>> step_rows = {
      {2, 17, 30}, {17, 5}, {5, 2, 9}};
  SparseRowStore grad;
  grad.Reset(kRows, kCols);
  for (const auto& rows : step_rows) {
    Matrix dense_grad(kRows, kCols);
    grad.Clear();
    for (uint32_t r : rows) {
      double* g = grad.EnsureRow(r);
      for (size_t c = 0; c < kCols; ++c) {
        double v = rng.Normal();
        g[c] = v;
        dense_grad(r, c) = v;
      }
    }
    dense_adam.Step(&dense_param, dense_grad);
    sparse_adam.Step(&view, grad);
  }

  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      EXPECT_EQ(view.Row(r)[c], dense_param(r, c))
          << "row " << r << " col " << c;
    }
  }
  // Rows never touched must not be in the overlay at all.
  for (uint32_t r : view.touched()) {
    bool expected = false;
    for (const auto& rows : step_rows) {
      expected |= std::find(rows.begin(), rows.end(), r) != rows.end();
    }
    EXPECT_TRUE(expected) << "spurious overlay row " << r;
  }
}

TEST(RowOverlayTableTest, PackedSnapshotRestoreRoundTrips) {
  // The best-validation-epoch snapshot path: save the overlay after some
  // mutations, mutate more (including brand-new rows), restore — the view
  // must read exactly the snapshot state, with later rows reverting to
  // base values by vanishing from the overlay.
  Matrix base(6, 2);
  for (size_t r = 0; r < 6; ++r) {
    base(r, 0) = static_cast<double>(r);
    base(r, 1) = 10.0 + static_cast<double>(r);
  }
  RowOverlayTable view;
  view.Reset(&base);
  view.MutableRow(1)[0] = 100.0;
  view.MutableRow(4)[1] = 200.0;

  std::vector<uint32_t> snap_rows;
  std::vector<double> snap_data;
  view.SnapshotLocal(&snap_rows, &snap_data);
  EXPECT_EQ(snap_rows.size(), 2u);
  EXPECT_EQ(snap_data.size(), 4u);

  view.MutableRow(1)[0] = -1.0;  // post-snapshot drift on a snapshot row
  view.MutableRow(3)[0] = -2.0;  // post-snapshot touch of a new row

  view.RestoreLocal(snap_rows, snap_data);
  EXPECT_EQ(view.Row(1)[0], 100.0);
  EXPECT_EQ(view.Row(4)[1], 200.0);
  EXPECT_EQ(view.Row(3)[0], 3.0);  // reverted to base
  EXPECT_EQ(view.touched().size(), 2u);

  // The restored overlay stays mutable and consistent.
  view.MutableRow(3)[0] = 7.0;
  EXPECT_EQ(view.Row(3)[0], 7.0);
  EXPECT_EQ(view.touched().size(), 3u);
}

}  // namespace
}  // namespace hetefedrec
