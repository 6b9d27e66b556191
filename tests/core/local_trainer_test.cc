#include "src/core/local_trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/math/activations.h"
#include "src/math/init.h"

namespace hetefedrec {
namespace {

constexpr size_t kUsers = 4;
constexpr size_t kItems = 40;

Dataset MakeDataset() {
  std::vector<Interaction> xs;
  Rng rng(21);
  for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
    for (int k = 0; k < 8; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 3 + k) % kItems)});
    }
  }
  return Dataset::FromInteractions(xs, kUsers, kItems).value();
}

struct Globals {
  Matrix table;
  std::vector<FeedForwardNet> thetas;

  Globals(const std::vector<size_t>& widths, uint64_t seed) {
    Rng rng(seed);
    table = Matrix(kItems, widths.back());
    InitNormal(&table, 0.1, &rng);
    for (size_t w : widths) {
      FeedForwardNet t(2 * w, {8, 8});
      t.InitXavier(&rng);
      thetas.push_back(std::move(t));
    }
  }
};

// These tests run the dense reference path (the options' default), which
// uploads every row in ascending order: packed row r is item row r.
double DeltaAt(const LocalUpdateResult& res, size_t r, size_t c) {
  EXPECT_EQ(res.v_delta.rows[r], r);
  return res.v_delta.RowData(r)[c];
}

double MaxAbsDelta(const LocalUpdateResult& res) {
  double m = 0.0;
  for (double v : res.v_delta.data) m = std::max(m, std::abs(v));
  return m;
}

TEST(LocalTrainerTest, SingleTaskProducesDeltasAndCounts) {
  Dataset ds = MakeDataset();
  Globals g({4}, 1);
  LocalTrainer trainer(ds, BaseModel::kNcf);
  ClientState client;
  Rng root(2);
  InitClient(&client, 0, Group::kSmall, 4, 0.1, root);

  LocalTrainerOptions opt;
  opt.local_epochs = 2;
  std::vector<LocalTaskSpec> tasks = {{0, 4}};
  auto res = trainer.Train(&client, g.table, {&g.thetas[0]}, tasks, opt);

  ASSERT_EQ(res.v_delta.num_rows(), kItems);
  for (size_t r = 0; r < kItems; ++r) EXPECT_EQ(res.v_delta.rows[r], r);
  EXPECT_EQ(res.v_delta.width, 4u);
  EXPECT_EQ(res.v_delta.data.size(), kItems * 4u);
  EXPECT_GT(MaxAbsDelta(res), 0.0);
  ASSERT_EQ(res.theta_deltas.size(), 1u);
  EXPECT_GT(res.theta_deltas[0].MaxAbs(), 0.0);
  EXPECT_GT(res.train_loss, 0.0);
  EXPECT_EQ(res.params_down, kItems * 4 + g.thetas[0].ParamCount());
  EXPECT_EQ(res.params_up, res.params_down);
}

TEST(LocalTrainerTest, UserEmbeddingUpdatedInPlace) {
  Dataset ds = MakeDataset();
  Globals g({4}, 3);
  LocalTrainer trainer(ds, BaseModel::kNcf);
  ClientState client;
  Rng root(4);
  InitClient(&client, 1, Group::kSmall, 4, 0.1, root);
  Matrix before = client.user_embedding;

  LocalTrainerOptions opt;
  std::vector<LocalTaskSpec> tasks = {{0, 4}};
  trainer.Train(&client, g.table, {&g.thetas[0]}, tasks, opt);
  bool moved = false;
  for (size_t c = 0; c < 4 && !moved; ++c) {
    moved = client.user_embedding(0, c) != before(0, c);
  }
  EXPECT_TRUE(moved);
}

TEST(LocalTrainerTest, UntouchedItemRowsHaveZeroDelta) {
  // Without DDR, only items the client sampled (positives + negatives)
  // receive gradient; others must be exactly zero in the delta.
  Dataset ds = MakeDataset();
  Globals g({4}, 5);
  LocalTrainer trainer(ds, BaseModel::kNcf);
  ClientState client;
  Rng root(6);
  InitClient(&client, 0, Group::kSmall, 4, 0.1, root);

  LocalTrainerOptions opt;
  opt.apply_ddr = false;
  std::vector<LocalTaskSpec> tasks = {{0, 4}};
  auto res = trainer.Train(&client, g.table, {&g.thetas[0]}, tasks, opt);

  // Find at least one untouched row (kItems=40, user touches <= 8
  // positives + a few dozen sampled negatives across 2 epochs; some rows
  // stay untouched with overwhelming probability).
  size_t zero_rows = 0;
  for (size_t r = 0; r < kItems; ++r) {
    double row_max = 0;
    for (size_t c = 0; c < 4; ++c) {
      row_max = std::max(row_max, std::abs(DeltaAt(res, r, c)));
    }
    if (row_max == 0.0) zero_rows++;
  }
  EXPECT_GT(zero_rows, 0u);
}

TEST(LocalTrainerTest, DdrMakesDeltaDense) {
  Dataset ds = MakeDataset();
  Globals g({4}, 7);
  LocalTrainer trainer(ds, BaseModel::kNcf);
  ClientState client;
  Rng root(8);
  InitClient(&client, 0, Group::kSmall, 4, 0.1, root);

  LocalTrainerOptions opt;
  opt.apply_ddr = true;
  opt.alpha = 1.0;
  opt.ddr_sample_rows = 0;  // full table
  std::vector<LocalTaskSpec> tasks = {{0, 4}};
  auto res = trainer.Train(&client, g.table, {&g.thetas[0]}, tasks, opt);
  EXPECT_GT(res.reg_loss, 0.0);
  size_t zero_rows = 0;
  for (size_t r = 0; r < kItems; ++r) {
    double row_max = 0;
    for (size_t c = 0; c < 4; ++c) {
      row_max = std::max(row_max, std::abs(DeltaAt(res, r, c)));
    }
    if (row_max == 0.0) zero_rows++;
  }
  EXPECT_EQ(zero_rows, 0u);
}

TEST(LocalTrainerTest, DualTaskTouchesAllThetas) {
  Dataset ds = MakeDataset();
  Globals g({2, 4, 8}, 9);
  LocalTrainer trainer(ds, BaseModel::kNcf);
  ClientState client;
  Rng root(10);
  InitClient(&client, 2, Group::kLarge, 8, 0.1, root);

  LocalTrainerOptions opt;
  std::vector<LocalTaskSpec> tasks = {{0, 2}, {1, 4}, {2, 8}};
  auto res = trainer.Train(
      &client, g.table, {&g.thetas[0], &g.thetas[1], &g.thetas[2]}, tasks,
      opt);
  ASSERT_EQ(res.theta_deltas.size(), 3u);
  for (const auto& d : res.theta_deltas) EXPECT_GT(d.MaxAbs(), 0.0);
  // Comm includes all three Θ (Table III: Ul transmits Vl + Θs,m,l).
  size_t expected = kItems * 8 + g.thetas[0].ParamCount() +
                    g.thetas[1].ParamCount() + g.thetas[2].ParamCount();
  EXPECT_EQ(res.params_down, expected);
}

TEST(LocalTrainerTest, TrainingReducesLocalLoss) {
  Dataset ds = MakeDataset();
  Globals g({6}, 11);
  LocalTrainer trainer(ds, BaseModel::kNcf);

  // Loss after 1 local epoch vs after 30: should clearly go down.
  auto run = [&](int epochs) {
    ClientState client;
    Rng root(12);
    InitClient(&client, 0, Group::kSmall, 6, 0.1, root);
    LocalTrainerOptions opt;
    opt.local_epochs = epochs;
    std::vector<LocalTaskSpec> tasks = {{0, 6}};
    return trainer.Train(&client, g.table, {&g.thetas[0]}, tasks, opt)
        .train_loss;
  };
  double short_loss = run(1);
  double long_loss = run(30);
  EXPECT_LT(long_loss, short_loss);
}

TEST(LocalTrainerTest, DeterministicForSameClientState) {
  Dataset ds = MakeDataset();
  Globals g({4}, 13);
  LocalTrainer trainer(ds, BaseModel::kLightGcn);
  LocalTrainerOptions opt;
  std::vector<LocalTaskSpec> tasks = {{0, 4}};

  auto run = [&]() {
    ClientState client;
    Rng root(14);
    InitClient(&client, 3, Group::kSmall, 4, 0.1, root);
    return trainer.Train(&client, g.table, {&g.thetas[0]}, tasks, opt);
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.v_delta.rows, b.v_delta.rows);
  ASSERT_EQ(a.v_delta.data.size(), b.v_delta.data.size());
  for (size_t i = 0; i < a.v_delta.data.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.v_delta.data[i], b.v_delta.data[i]);
  }
  EXPECT_DOUBLE_EQ(a.train_loss, b.train_loss);
}

TEST(LocalTrainerTest, ValidationCarveOutRecordsLoss) {
  Dataset ds = MakeDataset();
  Globals g({4}, 17);
  LocalTrainer trainer(ds, BaseModel::kNcf);
  ClientState client;
  Rng root(18);
  InitClient(&client, 0, Group::kSmall, 4, 0.1, root);

  LocalTrainerOptions opt;
  opt.local_epochs = 4;
  opt.validation_fraction = 0.25;
  opt.min_validation_positives = 4;  // fixture users have ~6 train items
  auto res = trainer.Train(&client, g.table, {&g.thetas[0]}, {{0, 4}}, opt);
  EXPECT_GT(res.validation_loss, 0.0);
  EXPECT_TRUE(std::isfinite(res.validation_loss));
  EXPECT_GT(MaxAbsDelta(res), 0.0);
}

TEST(LocalTrainerTest, ValidationSkippedForTinyClients) {
  Dataset ds = MakeDataset();
  Globals g({4}, 19);
  LocalTrainer trainer(ds, BaseModel::kNcf);
  ClientState client;
  Rng root(20);
  InitClient(&client, 1, Group::kSmall, 4, 0.1, root);

  LocalTrainerOptions opt;
  opt.validation_fraction = 0.1;
  opt.min_validation_positives = 100;  // more than any fixture user has
  auto res = trainer.Train(&client, g.table, {&g.thetas[0]}, {{0, 4}}, opt);
  EXPECT_DOUBLE_EQ(res.validation_loss, 0.0);
}

TEST(LocalTrainerTest, ValidationSelectionNeverWorseThanLastEpoch) {
  // With many local epochs, best-of-epochs validation loss must be <= the
  // validation loss that plain last-epoch training would report.
  Dataset ds = MakeDataset();
  Globals g({4}, 21);
  LocalTrainer trainer(ds, BaseModel::kNcf);

  auto run = [&](int epochs) {
    ClientState client;
    Rng root(22);
    InitClient(&client, 0, Group::kSmall, 4, 0.1, root);
    LocalTrainerOptions opt;
    opt.local_epochs = epochs;
    opt.validation_fraction = 0.25;
    opt.min_validation_positives = 4;
    return trainer.Train(&client, g.table, {&g.thetas[0]}, {{0, 4}}, opt)
        .validation_loss;
  };
  double best_of_8 = run(8);
  double best_of_1 = run(1);
  EXPECT_LE(best_of_8, best_of_1 + 1e-9);
}

TEST(LocalTrainerTest, LightGcnPathProducesFiniteUpdates) {
  Dataset ds = MakeDataset();
  Globals g({2, 4, 8}, 15);
  LocalTrainer trainer(ds, BaseModel::kLightGcn);
  ClientState client;
  Rng root(16);
  InitClient(&client, 1, Group::kLarge, 8, 0.1, root);

  LocalTrainerOptions opt;
  opt.apply_ddr = true;
  opt.ddr_sample_rows = 8;
  std::vector<LocalTaskSpec> tasks = {{0, 2}, {1, 4}, {2, 8}};
  auto res = trainer.Train(
      &client, g.table, {&g.thetas[0], &g.thetas[1], &g.thetas[2]}, tasks,
      opt);
  for (double v : res.v_delta.data) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(res.train_loss));
}

}  // namespace
}  // namespace hetefedrec
