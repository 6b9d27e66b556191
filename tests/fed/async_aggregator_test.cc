// AsyncAggregator unit semantics: virtual-time event ordering, the
// staleness-weight formula, the zero-gap == synchronous-merge identity,
// the max-staleness drop policy and the distillation cadence.
#include "src/fed/sync/async_aggregator.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/fed/shard/sharded_server.h"

namespace hetefedrec {
namespace {

constexpr size_t kItems = 24;

ShardedServer::Options ServerOptions() {
  ShardedServer::Options opt;
  opt.widths = {2, 4, 8};
  opt.num_items = kItems;
  opt.embed_init_std = 0.1;
  opt.aggregation = AggregationMode::kMean;
  opt.shared_aggregation = true;
  opt.seed = 3;
  return opt;
}

std::vector<LocalTaskSpec> TasksUpTo(size_t group,
                                     const std::vector<size_t>& widths) {
  std::vector<LocalTaskSpec> tasks;
  for (size_t t = 0; t <= group; ++t) tasks.push_back({t, widths[t]});
  return tasks;
}

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
    r.theta_deltas.push_back(
        FeedForwardNet::ZerosLike(server.theta(task.slot)));
  }
  r.train_loss = v_value;
  r.params_up = 7;
  return r;
}

void ExpectTablesEqual(const ShardedServer& a, const ShardedServer& b) {
  ASSERT_EQ(a.num_slots(), b.num_slots());
  for (size_t s = 0; s < a.num_slots(); ++s) {
    for (size_t r = 0; r < a.table(s).rows(); ++r) {
      for (size_t c = 0; c < a.table(s).cols(); ++c) {
        EXPECT_EQ(a.table(s)(r, c), b.table(s)(r, c))
            << "slot " << s << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(AsyncAggregatorTest, StalenessWeightFormula) {
  ShardedServer server(ServerOptions());
  AsyncAggregator::Options opt;
  opt.staleness_alpha = 0.5;
  AsyncAggregator agg(&server, opt);
  // w(0) must be *exactly* 1 — a fresh arrival is a synchronous merge.
  EXPECT_EQ(agg.StalenessWeight(0), 1.0);
  EXPECT_DOUBLE_EQ(agg.StalenessWeight(3), 0.5);   // 1/sqrt(4)
  EXPECT_DOUBLE_EQ(agg.StalenessWeight(15), 0.25);  // 1/sqrt(16)
  EXPECT_GT(agg.StalenessWeight(100), 0.0);

  AsyncAggregator::Options flat;
  flat.staleness_alpha = 0.0;
  AsyncAggregator no_damp(&server, flat);
  EXPECT_EQ(no_damp.StalenessWeight(1000), 1.0);
}

// The satellite invariant: a zero-gap async merge must produce the same
// tables as the synchronous round machinery merging the same single
// update — bit-identical, under the default kMean configuration.
TEST(AsyncAggregatorTest, ZeroGapMergeEqualsSynchronousMerge) {
  auto opt = ServerOptions();
  ShardedServer sync_server(opt);
  ShardedServer async_server(opt);
  auto tasks = TasksUpTo(2, opt.widths);
  LocalUpdateResult update = MakeUpdate(8, 0.25, tasks, sync_server);

  sync_server.BeginRound();
  sync_server.UploadDelta(tasks, update);
  sync_server.FinishRound();

  AsyncAggregator agg(&async_server, AsyncAggregator::Options{});
  agg.Submit(0, &tasks, MakeUpdate(8, 0.25, tasks, async_server), 0, 1.0);
  AsyncAggregator::Outcome out = agg.MergeNext(DistillationOptions{}, nullptr);
  EXPECT_TRUE(out.merged);
  EXPECT_EQ(out.staleness, 0u);
  EXPECT_EQ(out.weight, 1.0);

  ExpectTablesEqual(sync_server, async_server);
  // Both advanced the version exactly once.
  EXPECT_EQ(sync_server.versions().round(), async_server.versions().round());
}

TEST(AsyncAggregatorTest, EventsPopInVirtualTimeOrderWithSeqTiebreak) {
  auto opt = ServerOptions();
  ShardedServer server(opt);
  auto tasks = TasksUpTo(0, opt.widths);
  AsyncAggregator agg(&server, AsyncAggregator::Options{});

  agg.Submit(7, &tasks, MakeUpdate(2, 0.1, tasks, server), 0, 5.0);
  agg.Submit(3, &tasks, MakeUpdate(2, 0.1, tasks, server), 0, 2.0);
  agg.Submit(9, &tasks, MakeUpdate(2, 0.1, tasks, server), 0, 2.0);
  agg.Submit(1, &tasks, MakeUpdate(2, 0.1, tasks, server), 0, 9.0);
  EXPECT_EQ(agg.in_flight(), 4u);

  std::vector<UserId> order;
  std::vector<double> clocks;
  while (!agg.empty()) {
    auto out = agg.MergeNext(DistillationOptions{}, nullptr);
    order.push_back(out.user);
    clocks.push_back(out.finish_seconds);
    EXPECT_EQ(agg.clock_seconds(), out.finish_seconds);
  }
  // Time order; the 2.0s tie breaks by submission sequence (3 before 9).
  EXPECT_EQ(order, (std::vector<UserId>{3, 9, 7, 1}));
  EXPECT_EQ(clocks, (std::vector<double>{2.0, 2.0, 5.0, 9.0}));
  EXPECT_EQ(agg.merged_updates(), 4u);
}

TEST(AsyncAggregatorTest, StalenessCountsMergesSinceDownload) {
  auto opt = ServerOptions();
  ShardedServer server(opt);
  auto tasks = TasksUpTo(1, opt.widths);
  AsyncAggregator::Options aopt;
  aopt.staleness_alpha = 1.0;
  AsyncAggregator agg(&server, aopt);

  // Three clients all downloaded version 0; each merge advances the
  // version, so their staleness gaps are 0, 1, 2 and their weights
  // 1, 1/2, 1/3.
  const uint64_t v0 = server.versions().round();
  for (int k = 0; k < 3; ++k) {
    agg.Submit(static_cast<UserId>(k), &tasks,
               MakeUpdate(4, 0.1, tasks, server), v0, 1.0 + k);
  }
  auto a = agg.MergeNext(DistillationOptions{}, nullptr);
  auto b = agg.MergeNext(DistillationOptions{}, nullptr);
  auto c = agg.MergeNext(DistillationOptions{}, nullptr);
  EXPECT_EQ(a.staleness, 0u);
  EXPECT_EQ(b.staleness, 1u);
  EXPECT_EQ(c.staleness, 2u);
  EXPECT_EQ(a.weight, 1.0);
  EXPECT_DOUBLE_EQ(b.weight, 0.5);
  EXPECT_DOUBLE_EQ(c.weight, 1.0 / 3.0);
}

TEST(AsyncAggregatorTest, MaxStalenessDropsWithoutMutatingTables) {
  auto opt = ServerOptions();
  ShardedServer server(opt);
  auto tasks = TasksUpTo(1, opt.widths);
  AsyncAggregator::Options aopt;
  aopt.max_staleness = 1;
  AsyncAggregator agg(&server, aopt);

  const uint64_t v0 = server.versions().round();
  for (int k = 0; k < 3; ++k) {
    agg.Submit(static_cast<UserId>(k), &tasks,
               MakeUpdate(4, 0.5, tasks, server), v0, 1.0 + k);
  }
  auto a = agg.MergeNext(DistillationOptions{}, nullptr);
  auto b = agg.MergeNext(DistillationOptions{}, nullptr);
  EXPECT_TRUE(a.merged);
  EXPECT_TRUE(b.merged);

  // The third arrival has gap 2 > max_staleness 1: dropped, tables and
  // version untouched, outcome still echoes the client for requeueing.
  const Matrix before = server.table(2);
  const uint64_t version_before = server.versions().round();
  auto c = agg.MergeNext(DistillationOptions{}, nullptr);
  EXPECT_FALSE(c.merged);
  EXPECT_EQ(c.weight, 0.0);
  EXPECT_EQ(c.user, 2u);
  EXPECT_EQ(agg.dropped_updates(), 1u);
  EXPECT_EQ(agg.merged_updates(), 2u);
  EXPECT_EQ(server.versions().round(), version_before);
  for (size_t r = 0; r < before.rows(); ++r) {
    for (size_t col = 0; col < before.cols(); ++col) {
      EXPECT_EQ(server.table(2)(r, col), before(r, col));
    }
  }
}

TEST(AsyncAggregatorTest, DistillationFiresEveryNMerges) {
  auto opt = ServerOptions();
  ShardedServer server(opt);
  auto tasks = TasksUpTo(2, opt.widths);
  AsyncAggregator::Options aopt;
  aopt.distill_every = 3;
  AsyncAggregator agg(&server, aopt);
  DistillationOptions kd;
  kd.kd_items = 4;
  kd.steps = 1;
  kd.lr = 0.01;
  Rng kd_rng(11);

  int distills = 0;
  for (int k = 0; k < 7; ++k) {
    agg.Submit(static_cast<UserId>(k), &tasks,
               MakeUpdate(8, 0.01, tasks, server),
               server.versions().round(), static_cast<double>(k + 1));
    auto out = agg.MergeNext(kd, &kd_rng);
    if (out.distilled) distills++;
  }
  EXPECT_EQ(distills, 2);  // after merges 3 and 6

  // Null rng (RESKD off) never distills regardless of cadence.
  agg.Submit(99, &tasks, MakeUpdate(8, 0.01, tasks, server),
             server.versions().round(), 100.0);
  EXPECT_FALSE(agg.MergeNext(kd, nullptr).distilled);
}

}  // namespace
}  // namespace hetefedrec
