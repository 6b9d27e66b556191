// The paper's server-side math on ShardedServer: padded sum/mean
// aggregation per width segment (Eq. 7-9), the Eq. 10 prefix invariant,
// clustered isolation, Θ aggregation per slot (Eq. 15), empty rounds and
// RESKD (Eq. 16-17). Every test runs at one shard and at three uneven
// shards: the shard count must never change the arithmetic.
#include "src/fed/shard/sharded_server.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

namespace hetefedrec {
namespace {

constexpr size_t kItems = 20;

class ShardedServerTest : public testing::TestWithParam<size_t> {
 protected:
  ShardedServer::Options BaseOptions(
      bool shared = true, AggregationMode mode = AggregationMode::kSum) const {
    ShardedServer::Options opt;
    opt.widths = {2, 4, 8};
    opt.num_items = kItems;
    opt.embed_init_std = 0.1;
    opt.aggregation = mode;
    opt.shared_aggregation = shared;
    opt.seed = 3;
    opt.num_shards = GetParam();
    return opt;
  }
};

LocalUpdateResult MakeUpdate(size_t width, double v_value,
                             const std::vector<LocalTaskSpec>& tasks,
                             const ShardedServer& server) {
  LocalUpdateResult r;
  // Every row, as the dense reference trainer uploads.
  r.v_delta.width = width;
  r.v_delta.rows.resize(kItems);
  std::iota(r.v_delta.rows.begin(), r.v_delta.rows.end(), 0u);
  r.v_delta.data.assign(kItems * width, v_value);
  for (const auto& task : tasks) {
    FeedForwardNet d = FeedForwardNet::ZerosLike(server.theta(task.slot));
    r.theta_deltas.push_back(std::move(d));
  }
  return r;
}

std::vector<LocalTaskSpec> TasksUpTo(size_t group,
                                     const std::vector<size_t>& widths) {
  std::vector<LocalTaskSpec> tasks;
  for (size_t t = 0; t <= group; ++t) tasks.push_back({t, widths[t]});
  return tasks;
}

TEST_P(ShardedServerTest, InitializationSharesPrefixes) {
  ShardedServer server(BaseOptions());
  // Eq. 10 precondition: Vs = Vm[:, :Ns] = Vl[:, :Ns] at t=0.
  for (size_t r = 0; r < kItems; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(server.table(0)(r, c), server.table(2)(r, c));
      EXPECT_DOUBLE_EQ(server.table(0)(r, c), server.table(1)(r, c));
    }
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(server.table(1)(r, c), server.table(2)(r, c));
    }
  }
}

TEST_P(ShardedServerTest, ThetaInputDimsFollowWidths) {
  ShardedServer server(BaseOptions());
  EXPECT_EQ(server.theta(0).input_dim(), 4u);
  EXPECT_EQ(server.theta(1).input_dim(), 8u);
  EXPECT_EQ(server.theta(2).input_dim(), 16u);
}

TEST_P(ShardedServerTest, PaddedSumAggregation) {
  // Eq. 7-9 with kSum: columns accumulate every update that reaches them.
  auto opt = BaseOptions(true, AggregationMode::kSum);
  ShardedServer server(opt);
  Matrix before_l = server.table(2);

  server.BeginRound();
  auto small_tasks = TasksUpTo(0, opt.widths);
  auto large_tasks = TasksUpTo(2, opt.widths);
  server.UploadDelta(small_tasks, MakeUpdate(2, 1.0, small_tasks, server));
  server.UploadDelta(large_tasks, MakeUpdate(8, 0.5, large_tasks, server));
  server.FinishRound();

  // Columns 0..1: small (1.0) + large (0.5); columns 2..7: large only.
  EXPECT_NEAR(server.table(2)(0, 0) - before_l(0, 0), 1.5, 1e-12);
  EXPECT_NEAR(server.table(2)(0, 1) - before_l(0, 1), 1.5, 1e-12);
  EXPECT_NEAR(server.table(2)(0, 3) - before_l(0, 3), 0.5, 1e-12);
  EXPECT_NEAR(server.table(2)(0, 7) - before_l(0, 7), 0.5, 1e-12);
  // Small and medium tables get their slices.
  EXPECT_NEAR(server.table(0)(5, 1), before_l(5, 1) + 1.5, 1e-12);
  EXPECT_NEAR(server.table(1)(5, 3), before_l(5, 3) + 0.5, 1e-12);
}

TEST_P(ShardedServerTest, PaddedMeanAggregationNormalizesPerSegment) {
  auto opt = BaseOptions(true, AggregationMode::kMean);
  ShardedServer server(opt);
  Matrix before_l = server.table(2);

  server.BeginRound();
  auto small_tasks = TasksUpTo(0, opt.widths);
  auto large_tasks = TasksUpTo(2, opt.widths);
  // Three small clients (delta 1.0) + one large (delta 0.5).
  for (int i = 0; i < 3; ++i) {
    server.UploadDelta(small_tasks, MakeUpdate(2, 1.0, small_tasks, server));
  }
  server.UploadDelta(large_tasks, MakeUpdate(8, 0.5, large_tasks, server));
  server.FinishRound();

  // Segment [0,2): (3*1.0 + 0.5)/4 contributors = 0.875.
  EXPECT_NEAR(server.table(2)(0, 0) - before_l(0, 0), 0.875, 1e-12);
  // Segment [2,8): only the large client -> 0.5/1.
  EXPECT_NEAR(server.table(2)(0, 5) - before_l(0, 5), 0.5, 1e-12);
}

TEST_P(ShardedServerTest, Eq10InvariantUnderPaddedAggregation) {
  // After any number of padded aggregation rounds (without distillation),
  // the prefix identity Vs = Vm[:Ns] = Vl[:Ns] must persist.
  auto opt = BaseOptions(true, AggregationMode::kMean);
  ShardedServer server(opt);
  Rng rng(5);
  for (int round = 0; round < 4; ++round) {
    server.BeginRound();
    for (int c = 0; c < 5; ++c) {
      size_t group = rng.UniformInt(3);
      auto tasks = TasksUpTo(group, opt.widths);
      auto update = MakeUpdate(opt.widths[group], rng.Uniform(-1, 1), tasks,
                               server);
      server.UploadDelta(tasks, update);
    }
    server.FinishRound();
    for (size_t r = 0; r < kItems; ++r) {
      for (size_t c = 0; c < 2; ++c) {
        EXPECT_DOUBLE_EQ(server.table(0)(r, c), server.table(1)(r, c));
        EXPECT_DOUBLE_EQ(server.table(0)(r, c), server.table(2)(r, c));
      }
      for (size_t c = 2; c < 4; ++c) {
        EXPECT_DOUBLE_EQ(server.table(1)(r, c), server.table(2)(r, c));
      }
    }
  }
}

TEST_P(ShardedServerTest, ClusteredAggregationIsolatesSlots) {
  auto opt = BaseOptions(/*shared=*/false, AggregationMode::kSum);
  ShardedServer server(opt);
  Matrix before_s = server.table(0);
  Matrix before_l = server.table(2);

  server.BeginRound();
  std::vector<LocalTaskSpec> small_tasks = {{0, 2}};
  server.UploadDelta(small_tasks, MakeUpdate(2, 1.0, small_tasks, server));
  server.FinishRound();

  EXPECT_NEAR(server.table(0)(0, 0) - before_s(0, 0), 1.0, 1e-12);
  // Large table untouched: no cross-slot knowledge flow.
  for (size_t r = 0; r < kItems; ++r) {
    for (size_t c = 0; c < 8; ++c) {
      EXPECT_DOUBLE_EQ(server.table(2)(r, c), before_l(r, c));
    }
  }
}

TEST_P(ShardedServerTest, ThetaAggregatedPerSlot) {
  auto opt = BaseOptions(true, AggregationMode::kMean);
  ShardedServer server(opt);
  double theta_s_before = server.theta(0).weight(0)(0, 0);
  double theta_l_before = server.theta(2).weight(0)(0, 0);

  server.BeginRound();
  auto tasks = TasksUpTo(2, opt.widths);  // large client trains all three Θ
  auto update = MakeUpdate(8, 0.0, tasks, server);
  for (auto& d : update.theta_deltas) {
    d.weight(0)(0, 0) = 0.25;  // same delta into each Θ slot
  }
  server.UploadDelta(tasks, update);
  server.FinishRound();

  EXPECT_NEAR(server.theta(0).weight(0)(0, 0) - theta_s_before, 0.25, 1e-12);
  EXPECT_NEAR(server.theta(2).weight(0)(0, 0) - theta_l_before, 0.25, 1e-12);
}

TEST_P(ShardedServerTest, EmptyRoundIsNoOp) {
  auto opt = BaseOptions(true, AggregationMode::kMean);
  ShardedServer server(opt);
  Matrix before = server.table(2);
  server.BeginRound();
  server.FinishRound();
  for (size_t i = 0; i < before.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(server.table(2).data()[i], before.data()[i]);
  }
}

TEST_P(ShardedServerTest, DistillBreaksPrefixTiesButKeepsShapes) {
  auto opt = BaseOptions();
  ShardedServer server(opt);
  DistillationOptions kd;
  kd.kd_items = kItems;
  kd.steps = 3;
  kd.lr = 0.1;
  Rng rng(7);
  double loss = server.Distill(kd, &rng);
  EXPECT_GE(loss, 0.0);
  EXPECT_EQ(server.table(0).cols(), 2u);
  EXPECT_EQ(server.table(2).cols(), 8u);
}

TEST_P(ShardedServerTest, SingleSlotDistillIsNoOp) {
  ShardedServer::Options opt = BaseOptions();
  opt.widths = {4};
  opt.seed = 9;
  ShardedServer server(opt);
  DistillationOptions kd;
  Rng rng(11);
  EXPECT_DOUBLE_EQ(server.Distill(kd, &rng), 0.0);
}

TEST_P(ShardedServerTest, SlotParamCountMatchesPaperExample) {
  // Paper §V-F: on ML, Vs/Vm/Vl have 29648 / 59296 / 118592 parameters
  // (3706 items x 8/16/32 dims).
  ShardedServer::Options opt = BaseOptions();
  opt.widths = {8, 16, 32};
  opt.num_items = 3706;
  opt.seed = 1;
  ShardedServer server(opt);
  EXPECT_EQ(server.table(0).size(), 29648u);
  EXPECT_EQ(server.table(1).size(), 59296u);
  EXPECT_EQ(server.table(2).size(), 118592u);
  EXPECT_EQ(server.SlotParamCount(0),
            29648u + server.theta(0).ParamCount());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedServerTest,
                         testing::Values(size_t{1}, size_t{3}),
                         [](const testing::TestParamInfo<size_t>& info) {
                           return "S" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hetefedrec
