#include "src/fed/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace hetefedrec {
namespace {

// One epoch of rounds with everyone online: the paper's protocol.
std::vector<std::vector<UserId>> EpochRounds(ClientQueue* queue, Rng* rng) {
  queue->BeginEpoch(rng);
  std::vector<std::vector<UserId>> rounds;
  while (!queue->Exhausted()) rounds.push_back(queue->NextRound());
  return rounds;
}

TEST(ClientQueueTest, EveryUserExactlyOncePerEpoch) {
  ClientQueue queue(1000, 256);
  Rng rng(3);
  std::set<UserId> seen;
  for (const auto& round : EpochRounds(&queue, &rng)) {
    for (UserId u : round) EXPECT_TRUE(seen.insert(u).second);
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 999);
}

TEST(ClientQueueTest, RoundSizesMatchPaperProtocol) {
  ClientQueue queue(1000, 256);
  Rng rng(5);
  auto rounds = EpochRounds(&queue, &rng);
  ASSERT_EQ(rounds.size(), 4u);
  EXPECT_EQ(rounds[0].size(), 256u);
  EXPECT_EQ(rounds[1].size(), 256u);
  EXPECT_EQ(rounds[2].size(), 256u);
  EXPECT_EQ(rounds[3].size(), 232u);  // remainder
  EXPECT_EQ(queue.rounds_per_epoch(), 4u);
}

TEST(ClientQueueTest, FewerUsersThanRoundSize) {
  ClientQueue queue(100, 256);
  Rng rng(7);
  auto rounds = EpochRounds(&queue, &rng);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].size(), 100u);
}

TEST(ClientQueueTest, ShuffleChangesAcrossEpochs) {
  ClientQueue queue(500, 100);
  Rng rng(11);
  auto e1 = EpochRounds(&queue, &rng);
  auto e2 = EpochRounds(&queue, &rng);
  EXPECT_NE(e1[0], e2[0]);  // astronomically unlikely to coincide
}

TEST(ClientQueueTest, DeterministicGivenRngState) {
  ClientQueue queue(300, 64);
  Rng a(13), b(13);
  EXPECT_EQ(EpochRounds(&queue, &a), EpochRounds(&queue, &b));
}

// With no requeues and no over-selection the queue's rounds are the
// paper's protocol written out: one shuffle of every user, cut into
// consecutive rounds. This keeps the default execution path bit-identical
// to it.
TEST(ClientQueueTest, MatchesEpochBatchesWhenEveryoneIsOnline) {
  Rng a(17), b(17);
  std::vector<UserId> order(1000);
  std::iota(order.begin(), order.end(), 0);
  a.Shuffle(&order);
  ClientQueue queue(1000, 256);
  queue.BeginEpoch(&b);
  for (size_t start = 0; start < order.size(); start += 256) {
    ASSERT_FALSE(queue.Exhausted());
    const size_t end = std::min(order.size(), start + 256);
    EXPECT_EQ(queue.NextRound(),
              std::vector<UserId>(order.begin() + start, order.begin() + end));
  }
  EXPECT_TRUE(queue.Exhausted());
  EXPECT_EQ(queue.rounds_per_epoch(), 4u);
}

TEST(ClientQueueTest, OverSelectionPopsSlackExtra) {
  ClientQueue queue(100, 10, /*over_selection=*/4);
  Rng rng(19);
  queue.BeginEpoch(&rng);
  EXPECT_EQ(queue.NextRound().size(), 14u);
}

TEST(ClientQueueTest, RequeuedClientsComeBackThisEpoch) {
  ClientQueue queue(20, 8);
  Rng rng(23);
  queue.BeginEpoch(&rng);
  auto first = queue.NextRound();
  // Pretend the first three were offline.
  for (size_t k = 0; k < 3; ++k) queue.Requeue(first[k]);
  std::set<UserId> rest;
  while (!queue.Exhausted()) {
    for (UserId u : queue.NextRound()) rest.insert(u);
  }
  // 12 remaining + the 3 requeued.
  EXPECT_EQ(rest.size(), 15u);
  for (size_t k = 0; k < 3; ++k) EXPECT_TRUE(rest.count(first[k]));
}

TEST(ClientQueueTest, CompactionKeepsOrderUnderLongRequeueChains) {
  // Many rounds of "everyone offline" exercise the internal compaction;
  // selection order must stay FIFO.
  ClientQueue queue(16, 4);
  Rng rng(29);
  queue.BeginEpoch(&rng);
  std::vector<UserId> first_pass;
  for (int round = 0; round < 4; ++round) {
    for (UserId u : queue.NextRound()) {
      first_pass.push_back(u);
      queue.Requeue(u);
    }
  }
  std::vector<UserId> second_pass;
  for (int round = 0; round < 4; ++round) {
    for (UserId u : queue.NextRound()) second_pass.push_back(u);
  }
  EXPECT_EQ(first_pass, second_pass);
}

}  // namespace
}  // namespace hetefedrec
