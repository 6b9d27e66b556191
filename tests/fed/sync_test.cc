// Unit tests for the delta-sync subsystem: version stamps, client
// replicas, the sync service's staleness logic, and the simulated
// network's determinism.
#include <gtest/gtest.h>

#include <vector>

#include "src/fed/sync/network.h"
#include "src/fed/sync/replica.h"
#include "src/fed/sync/sync_service.h"
#include "src/fed/sync/versioned_table.h"
#include "src/math/init.h"

namespace hetefedrec {
namespace {

TEST(VersionedTableTest, StartsAtVersionZeroAndStamps) {
  VersionedTable v(2, 10);
  EXPECT_EQ(v.round(), 0u);
  EXPECT_EQ(v.Version(0, 3), 0u);

  v.AdvanceRound();
  v.Stamp(0, 3);
  EXPECT_EQ(v.Version(0, 3), 1u);
  EXPECT_EQ(v.Version(0, 4), 0u);  // untouched row
  EXPECT_EQ(v.Version(1, 3), 0u);  // untouched slot
}

TEST(VersionedTableTest, VersionsAreMonotone) {
  VersionedTable v(1, 4);
  uint64_t last = v.Version(0, 2);
  for (int round = 0; round < 5; ++round) {
    v.AdvanceRound();
    if (round % 2 == 0) v.Stamp(0, 2);
    EXPECT_GE(v.Version(0, 2), last);
    last = v.Version(0, 2);
  }
}

TEST(ClientReplicaTest, HoldAndStaleness) {
  ClientReplica rep;
  EXPECT_EQ(rep.HeldVersion(7), ClientReplica::kNeverHeld);
  EXPECT_TRUE(rep.IsStale(7, 0));  // never held is always stale

  rep.Hold(7, 3);
  EXPECT_EQ(rep.HeldVersion(7), 3u);
  EXPECT_FALSE(rep.IsStale(7, 3));
  EXPECT_TRUE(rep.IsStale(7, 4));
  EXPECT_EQ(rep.rows_held(), 1u);

  rep.Invalidate();
  EXPECT_EQ(rep.HeldVersion(7), ClientReplica::kNeverHeld);
  EXPECT_EQ(rep.rows_held(), 0u);
}

TEST(ClientReplicaTest, CapacityEvictsLeastRecentlyUsed) {
  ClientReplica rep;
  rep.set_capacity(2);
  rep.Hold(1, 5);
  rep.Hold(2, 5);
  rep.Hold(3, 5);  // evicts row 1 (least recently used)
  EXPECT_EQ(rep.rows_held(), 2u);
  EXPECT_EQ(rep.HeldVersion(1), ClientReplica::kNeverHeld);
  EXPECT_EQ(rep.HeldVersion(2), 5u);
  EXPECT_EQ(rep.HeldVersion(3), 5u);

  // Touch refreshes recency: row 2 survives the next eviction.
  rep.Touch(2);
  rep.Hold(4, 6);  // evicts row 3, not the freshly touched 2
  EXPECT_EQ(rep.HeldVersion(3), ClientReplica::kNeverHeld);
  EXPECT_EQ(rep.HeldVersion(2), 5u);
  EXPECT_EQ(rep.HeldVersion(4), 6u);

  // Re-holding an existing row is an update, not an insertion.
  rep.Hold(2, 7);
  EXPECT_EQ(rep.rows_held(), 2u);
  EXPECT_EQ(rep.HeldVersion(2), 7u);

  // Shrinking the capacity evicts immediately.
  rep.set_capacity(1);
  EXPECT_EQ(rep.rows_held(), 1u);
  EXPECT_EQ(rep.HeldVersion(2), 7u);  // most recently used survives
}

TEST(ClientReplicaTest, UncappedExportsEveryHeldRowInRowOrder) {
  // No cap (the default): no recency is tracked, and the export lists
  // every held row in ascending row order with its version.
  ClientReplica rep;
  rep.Hold(9, 4);
  rep.Hold(2, 5);
  rep.Hold(5, 6);
  rep.Hold(2, 7);  // an update, not a second row
  std::vector<uint32_t> rows = {99};
  std::vector<uint64_t> versions = {99};
  rep.ExportRows(&rows, &versions);
  EXPECT_EQ(rows, (std::vector<uint32_t>{2, 5, 9}));
  EXPECT_EQ(versions, (std::vector<uint64_t>{7, 6, 4}));

  // Replaying the export rebuilds the same holdings.
  ClientReplica restored;
  for (size_t i = 0; i < rows.size(); ++i) restored.Hold(rows[i], versions[i]);
  EXPECT_EQ(restored.rows_held(), 3u);
  for (uint32_t row : {2u, 5u, 9u}) {
    EXPECT_EQ(restored.HeldVersion(row), rep.HeldVersion(row)) << row;
  }
}

TEST(ClientReplicaTest, CappedExportsColdestFirst) {
  ClientReplica rep;
  rep.set_capacity(3);
  rep.Hold(9, 1);
  rep.Hold(2, 2);
  rep.Hold(5, 3);
  rep.Touch(9);  // 9 becomes the hottest
  std::vector<uint32_t> rows;
  std::vector<uint64_t> versions;
  rep.ExportRows(&rows, &versions);
  EXPECT_EQ(rows, (std::vector<uint32_t>{2, 5, 9}));
  EXPECT_EQ(versions, (std::vector<uint64_t>{2, 3, 1}));
}

TEST(SyncServiceTest, CappedReplicaReshipsEvictedRows) {
  Matrix table(20, 4);
  Rng rng(3);
  InitNormal(&table, 0.1, &rng);
  VersionedTable versions(1, 20);
  SyncService::Options opts;
  opts.replica_cap = 2;
  opts.verify_values = true;  // eviction must stay lossless under audit
  SyncService sync(1, opts);

  const std::vector<uint32_t> ab = {1, 2};
  SyncPlan first = sync.Sync(0, 0, ab, table, versions, 0);
  EXPECT_EQ(first.shipped_rows, 2u);
  // Within capacity: a repeat subscription ships nothing.
  EXPECT_EQ(sync.Sync(0, 0, ab, table, versions, 0).shipped_rows, 0u);

  // A third row evicts the least recently used; the repeat subscription
  // of the original pair must re-ship the evicted row only.
  const std::vector<uint32_t> c = {3};
  EXPECT_EQ(sync.Sync(0, 0, c, table, versions, 0).shipped_rows, 1u);
  EXPECT_EQ(sync.replica(0).rows_held(), 2u);
  SyncPlan again = sync.Sync(0, 0, ab, table, versions, 0);
  EXPECT_EQ(again.shipped_rows, 2u);  // row 3 evicted one of {1,2} then
                                      // re-shipping 1 evicted the other
  EXPECT_LE(sync.replica(0).rows_held(), 2u);
}

TEST(SyncServiceTest, FirstSyncShipsEverythingSecondShipsNothing) {
  Matrix table(20, 4);
  Rng rng(3);
  InitNormal(&table, 0.1, &rng);
  VersionedTable versions(1, 20);
  SyncService sync(2);

  const std::vector<uint32_t> subs = {1, 5, 9};
  SyncPlan first = sync.Sync(0, 0, subs, table, versions, 100);
  EXPECT_EQ(first.subscribed_rows, 3u);
  EXPECT_EQ(first.shipped_rows, 3u);
  EXPECT_EQ(first.params, 3 * (4 + 1) + 100 + 1);

  // Nothing changed server-side: only Θ and the header go down.
  SyncPlan second = sync.Sync(0, 0, subs, table, versions, 100);
  EXPECT_EQ(second.shipped_rows, 0u);
  EXPECT_EQ(second.params, 100u + 1);

  // Another client's replica is independent.
  SyncPlan other = sync.Sync(1, 0, subs, table, versions, 100);
  EXPECT_EQ(other.shipped_rows, 3u);
}

TEST(SyncServiceTest, OnlyAdvancedRowsReship) {
  Matrix table(20, 4);
  Rng rng(5);
  InitNormal(&table, 0.1, &rng);
  VersionedTable versions(1, 20);
  SyncService sync(1);

  sync.Sync(0, 0, {1, 5, 9}, table, versions, 0);
  versions.AdvanceRound();
  versions.Stamp(0, 5);

  SyncPlan plan = sync.Sync(0, 0, {1, 5, 9, 12}, table, versions, 0);
  // 5 advanced, 12 was never held; 1 and 9 are fresh.
  EXPECT_EQ(plan.shipped_rows, 2u);
}

TEST(SyncServiceTest, VerifyValuesCatchesFreshRowsAndTracksBytes) {
  Matrix table(10, 3);
  Rng rng(11);
  InitNormal(&table, 0.1, &rng);
  VersionedTable versions(1, 10);
  SyncService::Options opts;
  opts.verify_values = true;
  SyncService sync(1, opts);

  sync.Sync(0, 0, {2, 4}, table, versions, 0);
  const double* cached = sync.replica(0).Values(2, 3);
  ASSERT_NE(cached, nullptr);
  for (size_t d = 0; d < 3; ++d) EXPECT_EQ(cached[d], table.Row(2)[d]);

  // Mutating a row WITH a stamp: the row re-ships and the cache follows.
  versions.AdvanceRound();
  table.Row(2)[0] += 1.0;
  versions.Stamp(0, 2);
  SyncPlan plan = sync.Sync(0, 0, {2, 4}, table, versions, 0);
  EXPECT_EQ(plan.shipped_rows, 1u);
  EXPECT_EQ(sync.replica(0).Values(2, 3)[0], table.Row(2)[0]);
}

TEST(SyncServiceTest, VerifyValuesDiesOnUnstampedMutation) {
  Matrix table(10, 3);
  Rng rng(13);
  InitNormal(&table, 0.1, &rng);
  VersionedTable versions(1, 10);
  SyncService::Options opts;
  opts.verify_values = true;
  SyncService sync(1, opts);

  sync.Sync(0, 0, {2}, table, versions, 0);
  table.Row(2)[1] += 1.0;  // mutation without a version stamp
  EXPECT_DEATH(sync.Sync(0, 0, {2}, table, versions, 0), "");
}

TEST(SimulatedNetworkTest, DrawsAreDeterministicAndOrderFree) {
  NetworkOptions opts;
  opts.availability = 0.5;
  opts.bandwidth_sigma = 0.8;
  opts.latency_sigma = 0.3;
  opts.seed = 42;
  SimulatedNetwork a(opts);
  SimulatedNetwork b(opts);

  // Same (client, round) key gives the same draw regardless of query
  // order or interleaving.
  for (UserId u = 0; u < 20; ++u) {
    EXPECT_EQ(a.Online(u, 3), b.Online(u, 3));
    EXPECT_EQ(a.ClientBandwidth(u), b.ClientBandwidth(u));
    EXPECT_EQ(a.FinishSeconds(u, 3, 1000, 500, 64),
              b.FinishSeconds(u, 3, 1000, 500, 64));
  }
  for (UserId u = 19; u >= 0; --u) {
    EXPECT_EQ(a.Online(u, 3), b.Online(u, 3));
  }
}

TEST(SimulatedNetworkTest, AvailabilityOneNeverDrops) {
  NetworkOptions opts;
  opts.availability = 1.0;
  SimulatedNetwork net(opts);
  for (UserId u = 0; u < 50; ++u) {
    EXPECT_TRUE(net.Online(u, 1));
  }
}

TEST(SimulatedNetworkTest, AvailabilityVariesAcrossRounds) {
  NetworkOptions opts;
  opts.availability = 0.5;
  opts.seed = 9;
  SimulatedNetwork net(opts);
  // A client offline in one round must be able to come back: over many
  // rounds both states appear.
  bool seen_on = false, seen_off = false;
  for (uint64_t round = 0; round < 64; ++round) {
    (net.Online(0, round) ? seen_on : seen_off) = true;
  }
  EXPECT_TRUE(seen_on);
  EXPECT_TRUE(seen_off);
}

TEST(SimulatedNetworkTest, FinishTimeGrowsWithPayload) {
  NetworkOptions opts;
  opts.latency_seconds = 0.01;
  opts.compute_seconds_per_sample = 1e-5;
  SimulatedNetwork net(opts);
  const double small = net.FinishSeconds(0, 1, 1000, 1000, 10);
  const double big = net.FinishSeconds(0, 1, 1000000, 1000, 10);
  EXPECT_LT(small, big);
  const double more_compute = net.FinishSeconds(0, 1, 1000, 1000, 10000);
  EXPECT_LT(small, more_compute);
}

}  // namespace
}  // namespace hetefedrec
