// Top-K ranking evaluation over the full catalogue or a candidate slice.
//
// Protocol (§V-A/B): for each user, score every item the user has not
// trained on, take the top-20, and compute Recall@20 / NDCG@20 against the
// held-out 20% test interactions. Reported overall and per client group
// (Fig. 6 breaks NDCG down by Us/Um/Ul).
//
// Users are independent, so evaluation parallelizes over them: both
// Evaluate overloads compute per-user metrics into per-index slots on the
// ThreadPool and reduce them serially in user order, making the result
// bit-identical for every thread count (asserted by
// tests/eval/evaluator_test.cc).
//
// Candidate-sliced evaluation (`candidate_sample > 0`) scores only each
// user's test items plus a seeded sample of never-interacted negative
// candidates (He et al.'s sampled-candidate protocol) instead of the whole
// catalogue — O(test + candidates) per user instead of O(items). It is off
// by default so the paper's full-ranking metrics are unchanged; when on,
// the candidate top-K equals the full top-K restricted to the candidate
// set (same ordering — pinned by tests/eval/evaluator_test.cc).
//
// Top-K selection runs through `TopKSelector` (src/eval/topk.h): a
// streaming bounded heap over the score blocks (full catalogue; fused
// with scoring via the StreamScoreFn overload) or a bucketed threshold
// cascade (candidate slice), both bit-identical to the partial_sort
// reference kept behind `use_batched_topk = false`. Per-user state lives
// in per-thread SlotScratch, so evaluation allocates nothing per user.
#ifndef HETEFEDREC_EVAL_EVALUATOR_H_
#define HETEFEDREC_EVAL_EVALUATOR_H_

#include <array>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/data/dataset.h"
#include "src/eval/topk.h"
#include "src/fed/group.h"
#include "src/fed/groups.h"
#include "src/util/rng.h"

namespace hetefedrec {

class ThreadPool;

/// \brief Mean metrics over a set of users.
struct EvalResult {
  double recall = 0.0;
  double ndcg = 0.0;
  size_t users = 0;  // users contributing (non-empty test set)
};

/// \brief Overall + per-group evaluation.
struct GroupedEval {
  EvalResult overall;
  std::array<EvalResult, kNumGroups> per_group;

  const EvalResult& group(Group g) const {
    return per_group[static_cast<int>(g)];
  }
};

/// \brief Runs the ranking protocol against a scoring callback.
class Evaluator {
 public:
  /// Scores an explicit item-id list for a user: writes ids.size() logits
  /// into `out`, out[i] scoring ids[i]. The evaluator passes the full
  /// catalogue span in full mode and the user's candidate slice in
  /// candidate mode, so one callback (typically Scorer::ScoreBatch) serves
  /// both. `thread_slot` is the executing thread's slot (<
  /// pool->num_slots(), or 0 when serial) so callers can keep per-thread
  /// scorer scratch; the callback must be safe to invoke concurrently for
  /// distinct users on distinct slots.
  using BatchScoreFn = std::function<void(
      UserId user, size_t thread_slot, const std::vector<ItemId>& ids,
      double* out)>;

  /// Streams one user's catalogue scores into a top-K sink instead of
  /// filling a score array: the callback calls `sink->Push(first, scores,
  /// n)` once per score block (contiguous spans covering [0, num_items),
  /// each item exactly once; train items are masked by the sink). This is
  /// the fused scoring+selection path — no O(items) score array or
  /// candidate vector is ever materialized. Full-catalogue mode only.
  /// Same concurrency contract as BatchScoreFn.
  using StreamScoreFn = std::function<void(UserId user, size_t thread_slot,
                                           TopKSelector* sink)>;

  /// \param ds dataset (test sets + train masks).
  /// \param assignment client group division (for the per-group breakdown).
  /// \param top_k recommendation list length (paper: 20).
  /// \param user_sample evaluate only this many users (0 = all); users are
  ///   drawn deterministically from `seed` so curves are comparable across
  ///   epochs and methods.
  /// \param candidate_sample negative candidates per user for
  ///   candidate-sliced evaluation; 0 = rank the full catalogue. Candidate
  ///   draws are seeded per user, independent of thread count.
  /// \param use_batched_topk select top-K via TopKSelector's streaming
  ///   heap / bucketed cascade (default) instead of the partial_sort
  ///   reference. Bit-identical either way (see src/eval/topk.h); false
  ///   keeps the reference for equivalence tests and benchmarks.
  Evaluator(const Dataset& ds, const GroupAssignment& assignment,
            size_t top_k = 20, size_t user_sample = 0, uint64_t seed = 9177,
            size_t candidate_sample = 0, bool use_batched_topk = true);

  /// Evaluates the (sampled) user population through the id-list
  /// callback: full-catalogue ranking when candidate_sample is 0, the
  /// candidate slice otherwise. `pool` may be null (serial); the result is
  /// bit-identical for any thread count.
  GroupedEval Evaluate(const BatchScoreFn& score_fn, ThreadPool* pool) const;

  /// Fused evaluation through the streaming callback: scoring and top-K
  /// selection interleave per block, so per-user cost is O(items) score
  /// compares with no O(items) buffer, sort, or memset. Full-catalogue
  /// mode only (CHECKs candidate_sample == 0); bit-identical to the
  /// BatchScoreFn overload given the same per-item scores.
  GroupedEval Evaluate(const StreamScoreFn& score_fn, ThreadPool* pool) const;

  /// The candidate id list for `u`: test items plus `candidate_sample`
  /// seeded never-interacted negatives, ascending and duplicate-free.
  /// Exposed for the candidate-vs-full pinning test.
  std::vector<ItemId> CandidateItems(UserId u) const;

  const std::vector<UserId>& eval_users() const { return users_; }
  size_t candidate_sample() const { return candidate_sample_; }
  bool use_batched_topk() const { return use_batched_topk_; }

 private:
  /// Per-thread evaluation scratch: every per-user buffer an Evaluate call
  /// reuses, so steady-state evaluation allocates nothing per user.
  struct SlotScratch {
    TopKSelector selector;
    std::vector<double> scores;
    std::vector<bool> masked;  // all-false between users (set/use/clear)
    std::vector<ItemId> topk;
    // hfr-lint: iteration-order-safe(membership tests only - metrics walk the ordered topk vector and probe this set via count)
    std::unordered_set<ItemId> relevant;
  };

  template <typename PerUserFn>
  GroupedEval Reduce(const PerUserFn& eval_user, ThreadPool* pool) const;

  /// Fills scratch->relevant from the user's test items and sets the
  /// user's train-item mask bits. Paired with FinishUser.
  void BeginUser(UserId u, SlotScratch* scratch) const;
  /// Computes recall/ndcg from scratch->topk and clears the train-item
  /// bits again — only the previously set bits, not an O(items) refill.
  void FinishUser(UserId u, SlotScratch* scratch, double* recall,
                  double* ndcg) const;

  const Dataset& ds_;
  const GroupAssignment& assignment_;
  size_t top_k_;
  size_t candidate_sample_;
  bool use_batched_topk_;
  Rng candidate_root_;  // forked per user for candidate draws
  std::vector<UserId> users_;
  std::vector<ItemId> all_items_;  // iota span for full-mode BatchScoreFn
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_EVAL_EVALUATOR_H_
