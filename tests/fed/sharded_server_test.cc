// ShardedServer shard contract: shards are an accounting partition of one
// whole-catalogue round state. Range geometry and row routing, bit-identity
// of higher shard counts against one shard for touched-row and full-row
// uploads (both aggregation layouts), version stamps across shard
// boundaries, per-shard upload accounting, and the Snapshot/RestoreSnapshot
// round-trip including shard-count portability of a snapshot.
#include "src/fed/shard/sharded_server.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hetefedrec {
namespace {

constexpr size_t kItems = 23;  // deliberately not divisible by 2/4/8

ShardedServer::Options BaseOptions(bool shared = true,
                                   AggregationMode mode =
                                       AggregationMode::kMean) {
  ShardedServer::Options opt;
  opt.widths = {2, 4, 8};
  opt.num_items = kItems;
  opt.embed_init_std = 0.1;
  opt.aggregation = mode;
  opt.shared_aggregation = shared;
  opt.seed = 3;
  return opt;
}

ShardedServer MakeSharded(size_t shards, bool shared = true,
                          AggregationMode mode = AggregationMode::kMean) {
  ShardedServer::Options opt = BaseOptions(shared, mode);
  opt.num_shards = shards;
  return ShardedServer(opt);
}

std::vector<LocalTaskSpec> TasksUpTo(size_t group,
                                     const std::vector<size_t>& widths) {
  std::vector<LocalTaskSpec> tasks;
  for (size_t t = 0; t <= group; ++t) tasks.push_back({t, widths[t]});
  return tasks;
}

LocalUpdateResult SparseUpdate(size_t width,
                               const std::vector<uint32_t>& rows,
                               double v_value,
                               const std::vector<LocalTaskSpec>& tasks,
                               const ShardedServer& server) {
  LocalUpdateResult r;
  r.v_delta.width = width;
  r.v_delta.rows = rows;
  r.v_delta.data.assign(rows.size() * width, v_value);
  for (const auto& task : tasks) {
    r.theta_deltas.push_back(FeedForwardNet::ZerosLike(server.theta(task.slot)));
  }
  return r;
}

// Every row of the catalogue, as the dense reference trainer uploads.
LocalUpdateResult FullRowUpdate(size_t width, double v_value,
                                const std::vector<LocalTaskSpec>& tasks,
                                const ShardedServer& server) {
  std::vector<uint32_t> rows(kItems);
  for (size_t r = 0; r < kItems; ++r) rows[r] = static_cast<uint32_t>(r);
  return SparseUpdate(width, rows, v_value, tasks, server);
}

void ExpectSameTables(const ShardedServer& a, const ShardedServer& b) {
  ASSERT_EQ(a.num_slots(), b.num_slots());
  for (size_t s = 0; s < a.num_slots(); ++s) {
    EXPECT_EQ(a.table(s).data(), b.table(s).data()) << "slot " << s;
  }
}

TEST(ShardedServerTest, RangesPartitionTheCatalogue) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ShardedServer server = MakeSharded(shards);
    SCOPED_TRACE("S=" + std::to_string(shards));
    EXPECT_EQ(server.num_shards(), shards);
    size_t covered = 0;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(server.shard_row_begin(s), covered);
      EXPECT_GT(server.shard_row_count(s), 0u);
      covered += server.shard_row_count(s);
    }
    EXPECT_EQ(covered, kItems);
    // Every row routes into the shard whose range contains it.
    for (size_t row = 0; row < kItems; ++row) {
      const size_t s = server.shard_of_row(row);
      EXPECT_GE(row, server.shard_row_begin(s));
      EXPECT_LT(row, server.shard_row_begin(s) + server.shard_row_count(s));
    }
  }
}

TEST(ShardedServerTest, InitialStateIsShardCountInvariant) {
  ShardedServer one = MakeSharded(1);
  for (size_t shards : {size_t{3}, size_t{8}}) {
    ShardedServer server = MakeSharded(shards);
    SCOPED_TRACE("S=" + std::to_string(shards));
    ExpectSameTables(one, server);
    for (size_t s = 0; s < one.num_slots(); ++s) {
      // Same seed, same RNG draw order: Θ weights agree exactly too.
      ServerSnapshot a = one.Snapshot();
      ServerSnapshot b = server.Snapshot();
      EXPECT_EQ(a.thetas[s].ParamCount(), b.thetas[s].ParamCount());
    }
  }
}

// The core arithmetic contract, isolated from the trainer: a mixed round
// of touched-row and full-row uploads of every width lands bit-identically
// on one shard and on several higher shard counts — shared (padded) and
// clustered layouts, mean and sum modes.
TEST(ShardedServerTest, MixedRoundMatchesOneShardAnyShardCount) {
  for (bool shared : {true, false}) {
    for (AggregationMode mode :
         {AggregationMode::kMean, AggregationMode::kSum}) {
      ShardedServer one = MakeSharded(1, shared, mode);
      auto opt = BaseOptions(shared, mode);
      auto run_round = [&opt](ShardedServer* server) {
        server->BeginRound();
        auto small = TasksUpTo(0, opt.widths);
        auto medium = TasksUpTo(1, opt.widths);
        auto large = TasksUpTo(2, opt.widths);
        server->UploadDelta(
            small, SparseUpdate(2, {0, 7, 22}, 1.25, small, *server));
        server->UploadDelta(
            large, SparseUpdate(8, {3, 7, 11, 19}, -0.5, large, *server));
        server->UploadDelta(medium,
                            FullRowUpdate(4, 0.125, medium, *server), 2.0);
        server->UploadDelta(
            large, SparseUpdate(8, {0, 22}, 0.75, large, *server));
        server->FinishRound();
      };
      run_round(&one);
      for (size_t shards : {size_t{2}, size_t{5}}) {
        ShardedServer server = MakeSharded(shards, shared, mode);
        run_round(&server);
        SCOPED_TRACE((shared ? "shared" : "clustered") +
                     std::string("/S=") + std::to_string(shards));
        ExpectSameTables(one, server);
      }
    }
  }
}

TEST(ShardedServerTest, VersionsStampRowsAcrossShardBoundaries) {
  ShardedServer server = MakeSharded(4);
  EXPECT_EQ(server.versions().round(), 0u);
  auto large = TasksUpTo(2, BaseOptions().widths);

  server.BeginRound();
  // Sparse round: only the touched rows (one per shard boundary region)
  // gain stamps.
  server.UploadDelta(large,
                     SparseUpdate(8, {0, 6, 12, 22}, 1.0, large, server));
  server.FinishRound();
  EXPECT_EQ(server.versions().round(), 1u);
  for (size_t slot = 0; slot < 3; ++slot) {
    EXPECT_EQ(server.versions().Version(slot, 0), 1u);
    EXPECT_EQ(server.versions().Version(slot, 22), 1u);
    EXPECT_EQ(server.versions().Version(slot, 1), 0u);  // untouched
  }

  server.BeginRound();
  // Full-row round: every row of every shard carries the round's stamp.
  server.UploadDelta(large, FullRowUpdate(8, 0.5, large, server));
  server.FinishRound();
  EXPECT_EQ(server.versions().round(), 2u);
  for (size_t row = 0; row < kItems; ++row) {
    EXPECT_EQ(server.versions().Version(0, row), 2u) << "row " << row;
  }
}

// A full-row client stamps every row of every slot it changed, on one
// shard and across shard boundaries alike; a slot it did not change keeps
// the stamps of earlier rounds.
TEST(ShardedServerTest, FullRowRoundStampsEveryRowOfChangedSlots) {
  for (bool shared : {true, false}) {
    for (size_t shards : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE((shared ? "shared" : "clustered") + std::string("/S=") +
                   std::to_string(shards));
      ShardedServer server = MakeSharded(shards, shared);
      const auto widths = BaseOptions().widths;
      auto small = TasksUpTo(0, widths);
      auto medium = TasksUpTo(1, widths);
      server.BeginRound();
      server.UploadDelta(small, SparseUpdate(2, {4}, 0.1, small, server));
      server.FinishRound();  // round 1: row 4 only
      server.BeginRound();
      server.UploadDelta(medium, FullRowUpdate(4, 0.25, medium, server));
      server.FinishRound();  // round 2
      // Padded aggregation: the medium delta's leading columns reach every
      // slot. Clustered: it changes the medium slot alone.
      for (size_t slot = 0; slot < widths.size(); ++slot) {
        const bool changed = shared || slot == 1;
        for (size_t row = 0; row < kItems; ++row) {
          uint64_t want = changed ? 2u : 0u;
          if (!changed && row == 4 && slot == 0) want = 1u;
          EXPECT_EQ(server.versions().Version(slot, row), want)
              << "slot " << slot << " row " << row;
        }
      }
    }
  }
}

TEST(ShardedServerTest, PerShardUploadScalarsRouteByRow) {
  ShardedServer server = MakeSharded(2);
  const size_t split = server.shard_row_begin(1);
  auto large = TasksUpTo(2, BaseOptions().widths);

  server.BeginRound();
  // Two rows in shard 0, one in shard 1.
  server.UploadDelta(
      large, SparseUpdate(
                 8, {0, static_cast<uint32_t>(split - 1),
                     static_cast<uint32_t>(split)},
                 1.0, large, server));
  server.FinishRound();

  EXPECT_EQ(server.shard_upload_scalars(0), 2u * 8u);
  EXPECT_EQ(server.shard_upload_scalars(1), 1u * 8u);
}

// Snapshot exports the single-table layout regardless of the shard count,
// so a snapshot written at S=4 restores into S=2.
TEST(ShardedServerTest, SnapshotRoundTripsAcrossShardCounts) {
  ShardedServer origin = MakeSharded(4);
  auto large = TasksUpTo(2, BaseOptions().widths);
  origin.BeginRound();
  origin.UploadDelta(large,
                     SparseUpdate(8, {2, 9, 17}, 0.625, large, origin));
  origin.FinishRound();
  ServerSnapshot snap = origin.Snapshot();
  EXPECT_EQ(snap.version_round, 1u);
  ASSERT_EQ(snap.tables.size(), 3u);
  ASSERT_EQ(snap.versions.size(), 3u);
  for (const auto& slot_versions : snap.versions) {
    EXPECT_EQ(slot_versions.size(), kItems);
  }

  ShardedServer other = MakeSharded(2);
  other.RestoreSnapshot(origin.Snapshot());
  ExpectSameTables(origin, other);
  EXPECT_EQ(other.versions().round(), 1u);
  for (size_t row = 0; row < kItems; ++row) {
    for (size_t slot = 0; slot < 3; ++slot) {
      EXPECT_EQ(other.versions().Version(slot, row),
                origin.versions().Version(slot, row));
    }
  }

  // And the restored server keeps aggregating identically to the origin.
  auto next_round = [&large](ShardedServer* server) {
    server->BeginRound();
    server->UploadDelta(large,
                        SparseUpdate(8, {2, 20}, -0.25, large, *server));
    server->FinishRound();
  };
  next_round(&origin);
  next_round(&other);
  ExpectSameTables(origin, other);
}

}  // namespace
}  // namespace hetefedrec
