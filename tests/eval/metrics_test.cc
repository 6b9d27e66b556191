#include "src/eval/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hetefedrec {
namespace {

TEST(MetricsTest, RecallCountsHitsOverRelevant) {
  std::unordered_set<ItemId> rel = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RecallAtK({1, 9, 2, 8}, rel), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK({5, 6, 7}, rel), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2, 3, 4}, rel), 1.0);
}

TEST(MetricsTest, RecallEmptyRelevantIsZero) {
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2}, {}), 0.0);
}

TEST(MetricsTest, NdcgPerfectRankingIsOne) {
  std::unordered_set<ItemId> rel = {3, 5};
  EXPECT_DOUBLE_EQ(NdcgAtK({3, 5, 1, 2}, rel, 4), 1.0);
}

TEST(MetricsTest, NdcgPositionSensitive) {
  std::unordered_set<ItemId> rel = {7};
  double at_rank1 = NdcgAtK({7, 1, 2}, rel, 3);
  double at_rank3 = NdcgAtK({1, 2, 7}, rel, 3);
  EXPECT_DOUBLE_EQ(at_rank1, 1.0);
  // Hit at rank 3 (1-indexed): DCG = 1/log2(4) = 0.5; IDCG = 1.
  EXPECT_DOUBLE_EQ(at_rank3, 0.5);
  EXPECT_GT(at_rank1, at_rank3);
}

TEST(MetricsTest, NdcgHandComputedMixedCase) {
  std::unordered_set<ItemId> rel = {1, 2, 3};
  // Hits at ranks 1 and 3 of a K=3 list; |rel| = 3 -> ideal hits = 3.
  double dcg = 1.0 / std::log2(2.0) + 1.0 / std::log2(4.0);
  double idcg =
      1.0 / std::log2(2.0) + 1.0 / std::log2(3.0) + 1.0 / std::log2(4.0);
  EXPECT_NEAR(NdcgAtK({1, 9, 2}, rel, 3), dcg / idcg, 1e-12);
}

TEST(MetricsTest, NdcgIdealTruncatedAtK) {
  // More relevant items than list length: IDCG uses min(K, |rel|).
  std::unordered_set<ItemId> rel = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(NdcgAtK({1, 2}, rel, 2), 1.0);
}

TEST(MetricsTest, NdcgIdealNotTruncatedByStarvedList) {
  // Regression: a ranking that could not fill K slots (catalogue or
  // candidate pool smaller than K) must be normalized by min(K, |rel|),
  // not by the achievable list length — the old min(topk.size(), |rel|)
  // normalization graded a 2-slot list against a 2-hit ideal and returned
  // a perfect 1.0 here.
  std::unordered_set<ItemId> rel = {1, 2, 3};
  const double dcg = 1.0 / std::log2(2.0) + 1.0 / std::log2(3.0);
  const double idcg =
      1.0 / std::log2(2.0) + 1.0 / std::log2(3.0) + 1.0 / std::log2(4.0);
  // Both listed items hit, but the ideal@10 list would have placed the
  // third relevant item at rank 3.
  EXPECT_NEAR(NdcgAtK({1, 2}, rel, 10), dcg / idcg, 1e-12);
  EXPECT_LT(NdcgAtK({1, 2}, rel, 10), 1.0);
  // With k == topk.size() the fix is inert: same value as before.
  EXPECT_DOUBLE_EQ(NdcgAtK({1, 2}, rel, 2), 1.0);
}

TEST(MetricsTest, NdcgStarvedCandidatePoolSingleRelevant) {
  // Candidate set smaller than K with one test item: a hit at rank 1 of a
  // 3-candidate pool is still ideal for k=20 (IDCG truncates at |rel|=1),
  // while a hit at rank 3 is not.
  std::unordered_set<ItemId> rel = {9};
  EXPECT_DOUBLE_EQ(NdcgAtK({9, 4, 5}, rel, 20), 1.0);
  EXPECT_DOUBLE_EQ(NdcgAtK({4, 5, 9}, rel, 20), 0.5);
}

}  // namespace
}  // namespace hetefedrec
