#include "src/data/dataset.h"

#include <gtest/gtest.h>

#include <set>

namespace hetefedrec {
namespace {

std::vector<Interaction> MakeInteractions() {
  // user 0: items 0..9 (10), user 1: items 0..4 (5), user 2: item 5 (1).
  std::vector<Interaction> out;
  for (ItemId i = 0; i < 10; ++i) out.push_back({0, i});
  for (ItemId i = 0; i < 5; ++i) out.push_back({1, i});
  out.push_back({2, 5});
  return out;
}

TEST(DatasetTest, SplitSizesFollowFraction) {
  auto ds = Dataset::FromInteractions(MakeInteractions(), 3, 12);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->TrainItems(0).size(), 8u);
  EXPECT_EQ(ds->TestItems(0).size(), 2u);
  EXPECT_EQ(ds->TrainItems(1).size(), 4u);
  EXPECT_EQ(ds->TestItems(1).size(), 1u);
  // A single-interaction user keeps it in train.
  EXPECT_EQ(ds->TrainItems(2).size(), 1u);
  EXPECT_EQ(ds->TestItems(2).size(), 0u);
}

TEST(DatasetTest, TrainTestDisjointAndComplete) {
  auto ds = Dataset::FromInteractions(MakeInteractions(), 3, 12);
  ASSERT_TRUE(ds.ok());
  for (UserId u = 0; u < 3; ++u) {
    std::set<ItemId> train(ds->TrainItems(u).begin(),
                           ds->TrainItems(u).end());
    std::set<ItemId> test(ds->TestItems(u).begin(), ds->TestItems(u).end());
    for (ItemId i : test) EXPECT_EQ(train.count(i), 0u);
    EXPECT_EQ(train.size() + test.size(), ds->InteractionCount(u));
  }
}

TEST(DatasetTest, DuplicatesCollapsed) {
  std::vector<Interaction> xs = {{0, 1}, {0, 1}, {0, 1}, {0, 2}};
  auto ds = Dataset::FromInteractions(xs, 1, 3);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->InteractionCount(0), 2u);
}

TEST(DatasetTest, CountsAndTotals) {
  auto ds = Dataset::FromInteractions(MakeInteractions(), 3, 12);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_users(), 3u);
  EXPECT_EQ(ds->num_items(), 12u);
  EXPECT_EQ(ds->TotalInteractions(), 16u);
  EXPECT_EQ(ds->InteractionCount(0), 10u);
}

TEST(DatasetTest, HasInteractedCoversBothSplits) {
  auto ds = Dataset::FromInteractions(MakeInteractions(), 3, 12);
  ASSERT_TRUE(ds.ok());
  for (ItemId i = 0; i < 10; ++i) EXPECT_TRUE(ds->HasInteracted(0, i));
  EXPECT_FALSE(ds->HasInteracted(0, 10));
  EXPECT_FALSE(ds->HasInteracted(2, 0));
}

TEST(DatasetTest, RejectsOutOfRangeIds) {
  EXPECT_FALSE(Dataset::FromInteractions({{5, 0}}, 3, 12).ok());
  EXPECT_FALSE(Dataset::FromInteractions({{0, 50}}, 3, 12).ok());
  EXPECT_FALSE(Dataset::FromInteractions({{-1, 0}}, 3, 12).ok());
}

TEST(DatasetTest, RejectsBadOptions) {
  SplitOptions opt;
  opt.train_fraction = 0.0;
  EXPECT_FALSE(Dataset::FromInteractions({{0, 0}}, 1, 1, opt).ok());
  opt.train_fraction = 0.8;
  opt.negatives_per_positive = -1;
  EXPECT_FALSE(Dataset::FromInteractions({{0, 0}}, 1, 1, opt).ok());
  EXPECT_FALSE(Dataset::FromInteractions({}, 0, 5).ok());
}

TEST(DatasetTest, NegativesNeverTrainPositives) {
  auto ds = Dataset::FromInteractions(MakeInteractions(), 3, 12);
  ASSERT_TRUE(ds.ok());
  std::set<ItemId> train(ds->TrainItems(0).begin(), ds->TrainItems(0).end());
  Rng rng(3);
  for (int rep = 0; rep < 50; ++rep) {
    for (ItemId neg : ds->SampleNegatives(0, 5, &rng)) {
      EXPECT_EQ(train.count(neg), 0u);
    }
  }
}

TEST(DatasetTest, NegativesMayIncludeTestItems) {
  // The standard protocol keeps held-out items eligible as negatives;
  // excluding them would leak the test set into training (see dataset.h).
  auto ds = Dataset::FromInteractions(MakeInteractions(), 3, 12);
  ASSERT_TRUE(ds.ok());
  std::set<ItemId> test(ds->TestItems(0).begin(), ds->TestItems(0).end());
  ASSERT_FALSE(test.empty());
  Rng rng(7);
  bool test_item_sampled = false;
  for (int rep = 0; rep < 500 && !test_item_sampled; ++rep) {
    for (ItemId neg : ds->SampleNegatives(0, 5, &rng)) {
      test_item_sampled |= (test.count(neg) > 0);
    }
  }
  EXPECT_TRUE(test_item_sampled);
}

TEST(DatasetTest, NegativesExhaustedUserReturnsEmpty) {
  // User's training set covers every item: no negatives exist.
  std::vector<Interaction> xs;
  for (ItemId i = 0; i < 4; ++i) xs.push_back({0, i});
  SplitOptions opt;
  opt.train_fraction = 1.0;
  auto ds = Dataset::FromInteractions(xs, 1, 4, opt);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->TrainItems(0).size(), 4u);
  Rng rng(5);
  EXPECT_TRUE(ds->SampleNegatives(0, 3, &rng).empty());
}

TEST(DatasetTest, BuildLocalEpochRatioAndLabels) {
  auto ds = Dataset::FromInteractions(MakeInteractions(), 3, 12);
  ASSERT_TRUE(ds.ok());
  Rng rng(7);
  std::vector<Sample> epoch = ds->BuildLocalEpoch(0, &rng);
  // 8 train positives, 4 negatives each.
  EXPECT_EQ(epoch.size(), 8u * 5u);
  std::set<ItemId> train(ds->TrainItems(0).begin(), ds->TrainItems(0).end());
  size_t positives = 0;
  for (const Sample& s : epoch) {
    if (s.label == 1.0) {
      positives++;
      EXPECT_EQ(train.count(s.item), 1u);
    } else {
      EXPECT_EQ(train.count(s.item), 0u);
    }
  }
  EXPECT_EQ(positives, 8u);
}

TEST(DatasetTest, SplitDeterministicPerSeed) {
  SplitOptions a;
  a.seed = 1;
  SplitOptions b;
  b.seed = 1;
  auto d1 = Dataset::FromInteractions(MakeInteractions(), 3, 12, a);
  auto d2 = Dataset::FromInteractions(MakeInteractions(), 3, 12, b);
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_EQ(d1->TrainItems(0), d2->TrainItems(0));
  SplitOptions c;
  c.seed = 2;
  auto d3 = Dataset::FromInteractions(MakeInteractions(), 3, 12, c);
  ASSERT_TRUE(d3.ok());
  // Different seed: very likely different split of user 0's ten items.
  EXPECT_NE(d1->TrainItems(0), d3->TrainItems(0));
}

TEST(DatasetTest, ItemPopularityCountsBothSplits) {
  auto ds = Dataset::FromInteractions(MakeInteractions(), 3, 12);
  ASSERT_TRUE(ds.ok());
  auto pop = ds->ItemPopularity();
  ASSERT_EQ(pop.size(), 12u);
  size_t total = 0;
  for (size_t c : pop) total += c;
  EXPECT_EQ(total, ds->TotalInteractions());
  // Item 0 was interacted by users 0 and 1.
  EXPECT_EQ(pop[0], 2u);
  EXPECT_EQ(pop[11], 0u);
}

}  // namespace
}  // namespace hetefedrec
