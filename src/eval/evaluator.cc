#include "src/eval/evaluator.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "src/eval/metrics.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/thread_pool.h"

namespace hetefedrec {

Evaluator::Evaluator(const Dataset& ds, const GroupAssignment& assignment,
                     size_t top_k, size_t user_sample, uint64_t seed,
                     size_t candidate_sample, bool use_batched_topk)
    : ds_(ds),
      assignment_(assignment),
      top_k_(top_k),
      candidate_sample_(candidate_sample),
      use_batched_topk_(use_batched_topk),
      candidate_root_(seed ^ 0xca9d1da7e5ULL) {
  users_.resize(ds.num_users());
  std::iota(users_.begin(), users_.end(), 0);
  if (user_sample > 0 && user_sample < users_.size()) {
    Rng rng(seed);
    rng.Shuffle(&users_);
    users_.resize(user_sample);
  }
  all_items_.resize(ds.num_items());
  std::iota(all_items_.begin(), all_items_.end(), 0);
}

std::vector<ItemId> Evaluator::CandidateItems(UserId u) const {
  const auto& test_items = ds_.TestItems(u);
  std::vector<ItemId> ids(test_items.begin(), test_items.end());
  const size_t interacted = ds_.InteractionCount(u);
  const size_t never_seen =
      ds_.num_items() > interacted ? ds_.num_items() - interacted : 0;
  if (candidate_sample_ >= never_seen) {
    // Degenerate catalogue: every never-interacted item is a candidate.
    for (ItemId j = 0; j < static_cast<ItemId>(ds_.num_items()); ++j) {
      if (!ds_.HasInteracted(u, j)) ids.push_back(j);
    }
  } else {
    // Rejection-sample distinct never-interacted items. Forking per user
    // makes the draw independent of evaluation order and thread count.
    Rng rng = candidate_root_.Fork(u);
    // hfr-lint: iteration-order-safe(dedup guard only - ids are appended in rng draw order and sorted below, the set is never walked)
    std::unordered_set<ItemId> chosen;
    chosen.reserve(candidate_sample_);
    while (chosen.size() < candidate_sample_) {
      ItemId j = static_cast<ItemId>(rng.UniformInt(ds_.num_items()));
      if (ds_.HasInteracted(u, j)) continue;
      if (chosen.insert(j).second) ids.push_back(j);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

GroupedEval Evaluator::Evaluate(const StreamScoreFn& score_fn,
                                ThreadPool* pool) const {
  const bool full = candidate_sample_ == 0;
  std::vector<SlotScratch> scratch(pool != nullptr ? pool->num_slots() : 1);
  if (full) {
    for (auto& s : scratch) s.masked.resize(ds_.num_items());
  }
  // Per-user metrics land in per-index slots; the reduction below walks
  // them in user order, so sums (and therefore results) are bit-identical
  // for any thread count.
  std::vector<double> recall(users_.size(), 0.0);
  std::vector<double> ndcg(users_.size(), 0.0);
  std::vector<uint8_t> counted(users_.size(), 0);

  auto eval_user = [&](size_t k, size_t slot) {
    const UserId u = users_[k];
    const auto& test_items = ds_.TestItems(u);
    if (test_items.empty()) return;
    SlotScratch& s = scratch[slot];
    s.relevant.clear();
    s.relevant.insert(test_items.begin(), test_items.end());
    // Full mode masks the user's train items; the candidate slice excludes
    // them by construction.
    std::vector<ItemId> candidates;
    if (full) {
      for (ItemId i : ds_.TrainItems(u)) s.masked[i] = true;
    } else {
      candidates = CandidateItems(u);
    }
    s.selector.Begin(top_k_, full ? &s.masked : nullptr, !use_batched_topk_);
    {
      HFR_PROFILE("score");
      score_fn(u, slot, full ? nullptr : &candidates, &s.selector);
    }
    {
      HFR_PROFILE("topk");
      s.selector.Finish(&s.topk);
    }
    if (full) {
      // Restore the all-false invariant by clearing only this user's train
      // bits — not an O(items) refill per user.
      for (ItemId i : ds_.TrainItems(u)) s.masked[i] = false;
    }
    recall[k] = RecallAtK(s.topk, s.relevant);
    ndcg[k] = NdcgAtK(s.topk, s.relevant, top_k_);
    counted[k] = 1;
  };
  if (pool != nullptr) {
    pool->ParallelFor(users_.size(), eval_user);
  } else {
    for (size_t k = 0; k < users_.size(); ++k) eval_user(k, 0);
  }

  double sum_recall[1 + kNumGroups] = {0};
  double sum_ndcg[1 + kNumGroups] = {0};
  size_t counts[1 + kNumGroups] = {0};
  for (size_t k = 0; k < users_.size(); ++k) {
    if (!counted[k]) continue;
    int g = 1 + static_cast<int>(assignment_.of(users_[k]));
    sum_recall[0] += recall[k];
    sum_ndcg[0] += ndcg[k];
    counts[0]++;
    sum_recall[g] += recall[k];
    sum_ndcg[g] += ndcg[k];
    counts[g]++;
  }

  GroupedEval out;
  auto finalize = [&](int idx) {
    EvalResult r;
    r.users = counts[idx];
    if (counts[idx] > 0) {
      r.recall = sum_recall[idx] / static_cast<double>(counts[idx]);
      r.ndcg = sum_ndcg[idx] / static_cast<double>(counts[idx]);
    }
    return r;
  };
  out.overall = finalize(0);
  for (int g = 0; g < kNumGroups; ++g) out.per_group[g] = finalize(1 + g);
  return out;
}

GroupedEval Evaluator::Evaluate(const BatchScoreFn& score_fn,
                                ThreadPool* pool) const {
  std::vector<std::vector<double>> scores(
      pool != nullptr ? pool->num_slots() : 1);
  return Evaluate(
      StreamScoreFn([&](UserId u, size_t slot,
                        const std::vector<ItemId>* candidates,
                        TopKSelector* sink) {
        const std::vector<ItemId>& ids =
            candidates != nullptr ? *candidates : all_items_;
        std::vector<double>& out = scores[slot];
        out.resize(ids.size());
        score_fn(u, slot, ids, out.data());
        sink->PushIds(ids.data(), out.data(), ids.size());
      }),
      pool);
}

}  // namespace hetefedrec
