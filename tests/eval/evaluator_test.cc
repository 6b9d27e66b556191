#include "src/eval/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "src/eval/metrics.h"
#include "src/util/thread_pool.h"
#include "tests/eval/topk_oracle.h"

namespace hetefedrec {
namespace {

// Deterministic dataset: 6 users, 10 items; user u interacted with items
// u..u+4 so everyone has 4 train + 1 test item.
Dataset MakeDataset() {
  std::vector<Interaction> xs;
  for (UserId u = 0; u < 6; ++u) {
    for (ItemId k = 0; k < 5; ++k) xs.push_back({u, static_cast<ItemId>(u + k)});
  }
  return Dataset::FromInteractions(xs, 6, 10).value();
}

GroupAssignment MakeGroups(const Dataset& ds) {
  return AssignGroups(ds, {2, 2, 2}).value();
}

// Adapts a whole-catalogue scorer (fills one score per item) to the
// id-list callback.
Evaluator::BatchScoreFn CatalogueScores(
    std::function<void(UserId, std::vector<double>*)> fill) {
  return [fill](UserId u, size_t, const std::vector<ItemId>& ids,
                double* out) {
    std::vector<double> scores;
    fill(u, &scores);
    for (size_t i = 0; i < ids.size(); ++i) out[i] = scores[ids[i]];
  };
}

TEST(EvaluatorTest, OracleScorerGetsPerfectMetrics) {
  Dataset ds = MakeDataset();
  GroupAssignment groups = MakeGroups(ds);
  Evaluator ev(ds, groups, 5);
  // Oracle: test items score 1, everything else 0.
  auto oracle = [&](UserId u, std::vector<double>* scores) {
    scores->assign(ds.num_items(), 0.0);
    for (ItemId i : ds.TestItems(u)) (*scores)[i] = 1.0;
  };
  GroupedEval r = ev.Evaluate(CatalogueScores(oracle), nullptr);
  EXPECT_DOUBLE_EQ(r.overall.recall, 1.0);
  EXPECT_DOUBLE_EQ(r.overall.ndcg, 1.0);
  EXPECT_EQ(r.overall.users, 6u);
}

TEST(EvaluatorTest, AdversarialScorerGetsZero) {
  Dataset ds = MakeDataset();
  GroupAssignment groups = MakeGroups(ds);
  Evaluator ev(ds, groups, 2);
  // Anti-oracle: test items score lowest.
  auto anti = [&](UserId u, std::vector<double>* scores) {
    scores->assign(ds.num_items(), 1.0);
    for (ItemId i : ds.TestItems(u)) (*scores)[i] = -1.0;
  };
  GroupedEval r = ev.Evaluate(CatalogueScores(anti), nullptr);
  EXPECT_DOUBLE_EQ(r.overall.recall, 0.0);
  EXPECT_DOUBLE_EQ(r.overall.ndcg, 0.0);
}

TEST(EvaluatorTest, TrainItemsNeverRecommended) {
  Dataset ds = MakeDataset();
  GroupAssignment groups = MakeGroups(ds);
  Evaluator ev(ds, groups, 10);
  // Score train items maximally; they must be masked, so recall stays
  // driven by test items only.
  auto cheater = [&](UserId u, std::vector<double>* scores) {
    scores->assign(ds.num_items(), 0.0);
    for (ItemId i : ds.TrainItems(u)) (*scores)[i] = 100.0;
    for (ItemId i : ds.TestItems(u)) (*scores)[i] = 1.0;
  };
  GroupedEval r = ev.Evaluate(CatalogueScores(cheater), nullptr);
  EXPECT_DOUBLE_EQ(r.overall.recall, 1.0);  // K=10 covers all unmasked
}

TEST(EvaluatorTest, PerGroupCountsSumToOverall) {
  Dataset ds = MakeDataset();
  GroupAssignment groups = MakeGroups(ds);
  Evaluator ev(ds, groups, 5);
  auto zero = [&](UserId, std::vector<double>* scores) {
    scores->assign(ds.num_items(), 0.0);
  };
  GroupedEval r = ev.Evaluate(CatalogueScores(zero), nullptr);
  size_t total = 0;
  for (int g = 0; g < kNumGroups; ++g) total += r.per_group[g].users;
  EXPECT_EQ(total, r.overall.users);
}

TEST(EvaluatorTest, UserSamplingReducesPopulation) {
  Dataset ds = MakeDataset();
  GroupAssignment groups = MakeGroups(ds);
  Evaluator ev(ds, groups, 5, /*user_sample=*/3);
  EXPECT_EQ(ev.eval_users().size(), 3u);
  Evaluator full(ds, groups, 5, /*user_sample=*/0);
  EXPECT_EQ(full.eval_users().size(), 6u);
  Evaluator big(ds, groups, 5, /*user_sample=*/100);
  EXPECT_EQ(big.eval_users().size(), 6u);
}

TEST(EvaluatorTest, SampleDeterministicPerSeed) {
  Dataset ds = MakeDataset();
  GroupAssignment groups = MakeGroups(ds);
  Evaluator a(ds, groups, 5, 3, 42);
  Evaluator b(ds, groups, 5, 3, 42);
  EXPECT_EQ(a.eval_users(), b.eval_users());
}

TEST(EvaluatorTest, ParallelEvaluationBitIdenticalToSerial) {
  // Larger population with non-trivial fractional metrics: any ordering
  // difference in the parallel reduction would perturb the FP sums.
  std::vector<Interaction> xs;
  for (UserId u = 0; u < 64; ++u) {
    for (ItemId k = 0; k < 8; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 11 + k * 3) % 200)});
    }
  }
  Dataset ds = Dataset::FromInteractions(xs, 64, 200).value();
  GroupAssignment groups = AssignGroups(ds, {5, 3, 2}).value();
  Evaluator ev(ds, groups, 10);

  // Deterministic per-user scoring with irrational-ish values so averaged
  // metrics exercise full double precision.
  auto serial_fn = [&](UserId u, std::vector<double>* scores) {
    scores->resize(ds.num_items());
    for (size_t j = 0; j < ds.num_items(); ++j) {
      (*scores)[j] = std::sin(static_cast<double>(u * 131 + j * 17) * 0.01);
    }
  };
  GroupedEval serial = ev.Evaluate(CatalogueScores(serial_fn), nullptr);
  ThreadPool pool(3);  // 4 executing slots
  GroupedEval parallel = ev.Evaluate(CatalogueScores(serial_fn), &pool);
  ThreadPool none(0);  // worker-less pool: ParallelFor runs inline
  GroupedEval degenerate = ev.Evaluate(CatalogueScores(serial_fn), &none);

  for (const GroupedEval* other : {&parallel, &degenerate}) {
    EXPECT_EQ(serial.overall.recall, other->overall.recall);
    EXPECT_EQ(serial.overall.ndcg, other->overall.ndcg);
    EXPECT_EQ(serial.overall.users, other->overall.users);
    for (int g = 0; g < kNumGroups; ++g) {
      EXPECT_EQ(serial.per_group[g].recall, other->per_group[g].recall);
      EXPECT_EQ(serial.per_group[g].ndcg, other->per_group[g].ndcg);
      EXPECT_EQ(serial.per_group[g].users, other->per_group[g].users);
    }
  }
}

TEST(EvaluatorTest, BatchOverloadInFullModeMatchesHandRanking) {
  // The id-list overload with candidate_sample = 0 ranks the full
  // catalogue; it must reproduce a hand ranking of each user's full score
  // array (train items masked), averaged in user order, bit-for-bit.
  std::vector<Interaction> xs;
  for (UserId u = 0; u < 40; ++u) {
    for (ItemId k = 0; k < 8; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 7 + k * 5) % 120)});
    }
  }
  Dataset ds = Dataset::FromInteractions(xs, 40, 120).value();
  GroupAssignment groups = AssignGroups(ds, {5, 3, 2}).value();
  Evaluator ev(ds, groups, 10);

  auto item_score = [](UserId u, ItemId j) {
    return std::sin(static_cast<double>(u * 131 + j * 17) * 0.01);
  };
  auto batch_fn = [&](UserId u, size_t, const std::vector<ItemId>& ids,
                      double* out) {
    for (size_t i = 0; i < ids.size(); ++i) out[i] = item_score(u, ids[i]);
  };

  double sum_recall = 0.0;
  double sum_ndcg = 0.0;
  size_t users = 0;
  for (UserId u = 0; u < 40; ++u) {
    if (ds.TestItems(u).empty()) continue;
    std::vector<double> scores(ds.num_items());
    for (size_t j = 0; j < ds.num_items(); ++j) {
      scores[j] = item_score(u, static_cast<ItemId>(j));
    }
    std::vector<bool> mask(ds.num_items(), false);
    for (ItemId i : ds.TrainItems(u)) mask[i] = true;
    const std::vector<ItemId> topk = TopKItems(scores, mask, 10);
    const std::unordered_set<ItemId> rel(ds.TestItems(u).begin(),
                                         ds.TestItems(u).end());
    sum_recall += RecallAtK(topk, rel);
    sum_ndcg += NdcgAtK(topk, rel, 10);
    ++users;
  }

  ThreadPool pool(3);
  GroupedEval batch = ev.Evaluate(Evaluator::BatchScoreFn(batch_fn), &pool);
  ASSERT_GT(users, 0u);
  EXPECT_EQ(batch.overall.users, users);
  EXPECT_EQ(batch.overall.recall, sum_recall / static_cast<double>(users));
  EXPECT_EQ(batch.overall.ndcg, sum_ndcg / static_cast<double>(users));
}

TEST(EvaluatorCandidateTest, CandidateSetContainsTestAndExcludesInteracted) {
  std::vector<Interaction> xs;
  for (UserId u = 0; u < 10; ++u) {
    for (ItemId k = 0; k < 10; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 13 + k * 3) % 150)});
    }
  }
  Dataset ds = Dataset::FromInteractions(xs, 10, 150).value();
  GroupAssignment groups = AssignGroups(ds, {5, 3, 2}).value();
  Evaluator ev(ds, groups, 5, 0, 9177, /*candidate_sample=*/25);

  for (UserId u = 0; u < 10; ++u) {
    std::vector<ItemId> ids = ev.CandidateItems(u);
    // Sorted, duplicate-free.
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
    // Every test item is present; no train item sneaks in.
    std::unordered_set<ItemId> in_ids(ids.begin(), ids.end());
    for (ItemId t : ds.TestItems(u)) EXPECT_TRUE(in_ids.count(t)) << t;
    for (ItemId t : ds.TrainItems(u)) EXPECT_FALSE(in_ids.count(t)) << t;
    EXPECT_EQ(ids.size(), ds.TestItems(u).size() + 25);
    // Deterministic per user.
    EXPECT_EQ(ids, ev.CandidateItems(u));
  }
}

TEST(EvaluatorCandidateTest, CandidateTopKEqualsFullTopKRestricted) {
  // The pinning test: candidate top-K must equal the full-catalogue top-K
  // restricted to the candidate set (same scores, same ordering).
  std::vector<Interaction> xs;
  for (UserId u = 0; u < 30; ++u) {
    for (ItemId k = 0; k < 10; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 11 + k * 7) % 250)});
    }
  }
  Dataset ds = Dataset::FromInteractions(xs, 30, 250).value();
  GroupAssignment groups = AssignGroups(ds, {5, 3, 2}).value();
  const size_t top_k = 10;
  Evaluator cand_ev(ds, groups, top_k, 0, 9177, /*candidate_sample=*/40);

  auto item_score = [](UserId u, ItemId j) {
    return std::sin(static_cast<double>(u * 37 + j * 101) * 0.013);
  };
  for (UserId u = 0; u < 30; ++u) {
    if (ds.TestItems(u).empty()) continue;
    std::vector<ItemId> ids = cand_ev.CandidateItems(u);

    // Candidate ranking.
    std::vector<double> cand_scores(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      cand_scores[i] = item_score(u, ids[i]);
    }
    std::vector<ItemId> cand_topk =
        TopKFromCandidates(ids, cand_scores, top_k);

    // Full ranking restricted to the candidate set.
    std::vector<double> full_scores(ds.num_items());
    for (size_t j = 0; j < ds.num_items(); ++j) {
      full_scores[j] = item_score(u, static_cast<ItemId>(j));
    }
    std::vector<bool> mask(ds.num_items(), false);
    for (ItemId i : ds.TrainItems(u)) mask[i] = true;
    std::vector<ItemId> full_rank =
        TopKItems(full_scores, mask, ds.num_items());
    std::unordered_set<ItemId> cand_set(ids.begin(), ids.end());
    std::vector<ItemId> restricted;
    for (ItemId i : full_rank) {
      if (cand_set.count(i)) restricted.push_back(i);
      if (restricted.size() == top_k) break;
    }
    ASSERT_EQ(cand_topk, restricted) << "user " << u;
  }
}

TEST(EvaluatorCandidateTest, CandidateEvalParallelBitIdenticalAndBounded) {
  std::vector<Interaction> xs;
  for (UserId u = 0; u < 48; ++u) {
    for (ItemId k = 0; k < 9; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 19 + k * 3) % 220)});
    }
  }
  Dataset ds = Dataset::FromInteractions(xs, 48, 220).value();
  GroupAssignment groups = AssignGroups(ds, {5, 3, 2}).value();
  Evaluator ev(ds, groups, 10, 0, 9177, /*candidate_sample=*/30);

  size_t max_ids_seen = 0;
  std::mutex mu;
  auto batch_fn = [&](UserId u, size_t, const std::vector<ItemId>& ids,
                      double* out) {
    {
      std::lock_guard<std::mutex> lock(mu);
      max_ids_seen = std::max(max_ids_seen, ids.size());
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] = std::sin(static_cast<double>(u * 131 + ids[i] * 17) * 0.01);
    }
  };
  GroupedEval serial = ev.Evaluate(Evaluator::BatchScoreFn(batch_fn),
                                   /*pool=*/nullptr);
  ThreadPool pool(3);
  GroupedEval parallel = ev.Evaluate(Evaluator::BatchScoreFn(batch_fn),
                                     &pool);
  EXPECT_EQ(serial.overall.recall, parallel.overall.recall);
  EXPECT_EQ(serial.overall.ndcg, parallel.overall.ndcg);
  EXPECT_EQ(serial.overall.users, parallel.overall.users);
  // Candidate slicing actually slices: no callback saw the catalogue.
  EXPECT_LT(max_ids_seen, ds.num_items());
}

TEST(EvaluatorTopKTest, HeapBitIdenticalToReferenceThroughBothOverloads) {
  // use_batched_topk on vs off, full catalogue and candidate slice, through
  // the id-list adapter and the stream overload: the bounded heap and the
  // partial_sort reference must produce identical metrics.
  std::vector<Interaction> xs;
  for (UserId u = 0; u < 48; ++u) {
    for (ItemId k = 0; k < 8; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 13 + k * 5) % 160)});
    }
  }
  Dataset ds = Dataset::FromInteractions(xs, 48, 160).value();
  GroupAssignment groups = AssignGroups(ds, {5, 3, 2}).value();
  // Quantized scores: heavy ties make the id tie-break load-bearing.
  auto item_score = [](UserId u, ItemId j) {
    return static_cast<double>((u * 31 + j * 17) % 13) / 13.0;
  };
  auto batch_fn = [&](UserId u, size_t, const std::vector<ItemId>& ids,
                      double* out) {
    for (size_t i = 0; i < ids.size(); ++i) out[i] = item_score(u, ids[i]);
  };
  // Pushes one id (or one catalogue item) at a time.
  auto stream_fn = [&](UserId u, size_t,
                       const std::vector<ItemId>* candidates,
                       TopKSelector* sink) {
    const size_t n = candidates != nullptr ? candidates->size()
                                           : ds.num_items();
    for (size_t i = 0; i < n; ++i) {
      const ItemId id = candidates != nullptr ? (*candidates)[i]
                                              : static_cast<ItemId>(i);
      const double score = item_score(u, id);
      if (candidates != nullptr) {
        sink->PushIds(&id, &score, 1);
      } else {
        sink->Push(id, &score, 1);
      }
    }
  };

  ThreadPool pool(3);
  for (size_t candidates : {size_t{0}, size_t{30}}) {
    SCOPED_TRACE(testing::Message() << "candidates " << candidates);
    Evaluator heap(ds, groups, 10, 0, 9177, candidates,
                   /*use_batched_topk=*/true);
    Evaluator reference(ds, groups, 10, 0, 9177, candidates,
                        /*use_batched_topk=*/false);
    const GroupedEval a = heap.Evaluate(Evaluator::BatchScoreFn(batch_fn),
                                        &pool);
    const GroupedEval b =
        reference.Evaluate(Evaluator::BatchScoreFn(batch_fn), &pool);
    const GroupedEval c =
        heap.Evaluate(Evaluator::StreamScoreFn(stream_fn), &pool);
    const GroupedEval d =
        reference.Evaluate(Evaluator::StreamScoreFn(stream_fn), nullptr);
    EXPECT_GT(a.overall.users, 0u);
    for (const GroupedEval* other : {&b, &c, &d}) {
      EXPECT_EQ(a.overall.recall, other->overall.recall);
      EXPECT_EQ(a.overall.ndcg, other->overall.ndcg);
      EXPECT_EQ(a.overall.users, other->overall.users);
      for (int g = 0; g < kNumGroups; ++g) {
        EXPECT_EQ(a.per_group[g].recall, other->per_group[g].recall);
        EXPECT_EQ(a.per_group[g].ndcg, other->per_group[g].ndcg);
      }
    }
  }
}

TEST(EvaluatorTopKTest, StreamOverloadMatchesBatchOverload) {
  // The stream overload (scores pushed block-wise into the top-K sink,
  // uneven block sizes) must reproduce the id-list adapter.
  std::vector<Interaction> xs;
  for (UserId u = 0; u < 32; ++u) {
    for (ItemId k = 0; k < 7; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 17 + k * 11) % 140)});
    }
  }
  Dataset ds = Dataset::FromInteractions(xs, 32, 140).value();
  GroupAssignment groups = AssignGroups(ds, {5, 3, 2}).value();
  Evaluator ev(ds, groups, 10);

  auto item_score = [](UserId u, ItemId j) {
    return std::sin(static_cast<double>(u * 53 + j * 29) * 0.017);
  };
  auto batch_fn = [&](UserId u, size_t, const std::vector<ItemId>& ids,
                      double* out) {
    for (size_t i = 0; i < ids.size(); ++i) out[i] = item_score(u, ids[i]);
  };
  auto stream_fn = [&](UserId u, size_t, const std::vector<ItemId>* candidates,
                       TopKSelector* sink) {
    ASSERT_EQ(candidates, nullptr);  // full-catalogue evaluator
    // Deliberately ragged blocks (1, 2, 4, 8, ... items).
    std::vector<double> block;
    size_t first = 0, bs = 1;
    while (first < ds.num_items()) {
      const size_t n = std::min(bs, ds.num_items() - first);
      block.resize(n);
      for (size_t i = 0; i < n; ++i) {
        block[i] = item_score(u, static_cast<ItemId>(first + i));
      }
      sink->Push(static_cast<ItemId>(first), block.data(), n);
      first += n;
      bs *= 2;
    }
  };

  ThreadPool pool(3);
  GroupedEval batch = ev.Evaluate(Evaluator::BatchScoreFn(batch_fn), &pool);
  GroupedEval stream =
      ev.Evaluate(Evaluator::StreamScoreFn(stream_fn), &pool);
  GroupedEval stream_serial =
      ev.Evaluate(Evaluator::StreamScoreFn(stream_fn), nullptr);
  for (const GroupedEval* other : {&stream, &stream_serial}) {
    EXPECT_EQ(batch.overall.recall, other->overall.recall);
    EXPECT_EQ(batch.overall.ndcg, other->overall.ndcg);
    EXPECT_EQ(batch.overall.users, other->overall.users);
    for (int g = 0; g < kNumGroups; ++g) {
      EXPECT_EQ(batch.per_group[g].recall, other->per_group[g].recall);
      EXPECT_EQ(batch.per_group[g].ndcg, other->per_group[g].ndcg);
    }
  }
}

TEST(EvaluatorTopKTest, StarvedCatalogueNdcgUsesRequestedK) {
  // Regression for the IDCG truncation fix at the evaluator level: user 0
  // has 4 train + 2 test items in an 8-item catalogue, so at top_k = 10
  // only 4 items are rankable. Both test items hit at ranks 1-2, but the
  // ideal@10 list also holds 2 hits at ranks 1-2 — so NDCG is 1.0 — while
  // a hit pushed to the list's tail must be graded against rank 2, not
  // against a shrunken 4-long ideal.
  std::vector<Interaction> xs;
  for (ItemId k = 0; k < 6; ++k) xs.push_back({0, k});
  for (ItemId k = 0; k < 6; ++k) xs.push_back({1, static_cast<ItemId>(7 - k)});
  Dataset ds = Dataset::FromInteractions(xs, 2, 8).value();
  GroupAssignment groups = AssignGroups(ds, {1, 1, 1}).value();
  Evaluator ev(ds, groups, 10);

  auto score_fn = [&](UserId u, std::vector<double>* scores) {
    scores->assign(ds.num_items(), 0.0);
    // User 0: test items ranked first; user 1: test items ranked last.
    double v = u == 0 ? 1.0 : -1.0;
    for (ItemId i : ds.TestItems(u)) (*scores)[i] = v;
  };
  GroupedEval r = ev.Evaluate(CatalogueScores(score_fn), nullptr);
  ASSERT_EQ(r.overall.users, 2u);

  auto hand_ndcg = [&](UserId u, const std::vector<ItemId>& topk) {
    std::unordered_set<ItemId> rel(ds.TestItems(u).begin(),
                                   ds.TestItems(u).end());
    return NdcgAtK(topk, rel, 10);
  };
  // Reconstruct each user's 4-item ranked list by brute force.
  double expect = 0.0;
  for (UserId u : {UserId{0}, UserId{1}}) {
    std::vector<double> scores;
    score_fn(u, &scores);
    std::vector<bool> mask(ds.num_items(), false);
    for (ItemId i : ds.TrainItems(u)) mask[i] = true;
    expect += hand_ndcg(u, TopKItems(scores, mask, 10));
  }
  expect /= 2.0;
  EXPECT_DOUBLE_EQ(r.overall.ndcg, expect);
  // The anti-oracle user's hits sit at the tail of a 4-item list; under
  // the old normalization the pair averaged higher.
  EXPECT_LT(r.overall.ndcg, 1.0);
  EXPECT_GT(r.overall.ndcg, 0.0);
}

TEST(EvaluatorTest, UsersWithoutTestItemsSkipped) {
  // One user with a single interaction has no test item.
  std::vector<Interaction> xs = {{0, 0}};
  for (ItemId k = 0; k < 5; ++k) xs.push_back({1, k});
  Dataset ds = Dataset::FromInteractions(xs, 2, 6).value();
  GroupAssignment groups = AssignGroups(ds, {1, 1, 1}).value();
  Evaluator ev(ds, groups, 3);
  auto zero = [&](UserId, std::vector<double>* scores) {
    scores->assign(ds.num_items(), 0.0);
  };
  GroupedEval r = ev.Evaluate(CatalogueScores(zero), nullptr);
  EXPECT_EQ(r.overall.users, 1u);
}

}  // namespace
}  // namespace hetefedrec
