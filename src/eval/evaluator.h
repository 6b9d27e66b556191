// Top-K ranking evaluation over the full catalogue or a candidate slice.
//
// Protocol (§V-A/B): for each user, score every item the user has not
// trained on, take the top-20, and compute Recall@20 / NDCG@20 against the
// held-out 20% test interactions. Reported overall and per client group
// (Fig. 6 breaks NDCG down by Us/Um/Ul).
//
// Candidate-sliced evaluation (`candidate_sample > 0`) scores only each
// user's test items plus a seeded sample of never-interacted negative
// candidates (He et al.'s sampled-candidate protocol) instead of the whole
// catalogue — O(test + candidates) per user instead of O(items). It is off
// by default so the paper's full-ranking metrics are unchanged; when on,
// the candidate top-K equals the full top-K restricted to the candidate
// set (same ordering — pinned by tests/eval/evaluator_test.cc).
//
// One per-user loop serves both modes: it opens a `TopKSelector` session
// (src/eval/topk.h; train items masked in full mode, the heap or the
// partial_sort reference as `use_batched_topk` says), hands it to the
// StreamScoreFn, which pushes score blocks as it computes them (profile
// scope `eval/score`), and ranks with Finish (`eval/topk`). The
// BatchScoreFn overload adapts an id-list scorer to that loop. Users are
// independent, so the loop runs on the ThreadPool with per-user metrics in
// per-index slots, reduced serially in user order: the result is
// bit-identical for every thread count (tests/eval/evaluator_test.cc).
// Per-user state lives in per-thread SlotScratch, so evaluation allocates
// nothing per user in full mode.
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

  /// Streams one user's scores into a top-K sink: `candidates` is null in
  /// full mode, and the callback then calls `sink->Push(first, scores, n)`
  /// for contiguous blocks covering [0, num_items) (train items are masked
  /// by the sink); in candidate mode it calls `sink->PushIds` over the
  /// candidate list. Each item is pushed exactly once. Same concurrency
  /// contract as BatchScoreFn.
  using StreamScoreFn = std::function<void(
      UserId user, size_t thread_slot, const std::vector<ItemId>* candidates,
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
  /// \param use_batched_topk rank with TopKSelector's bounded heap
  ///   (default) instead of its partial_sort reference mode. Bit-identical
  ///   either way (see src/eval/topk.h).
  Evaluator(const Dataset& ds, const GroupAssignment& assignment,
            size_t top_k = 20, size_t user_sample = 0, uint64_t seed = 9177,
            size_t candidate_sample = 0, bool use_batched_topk = true);

  /// Evaluates the (sampled) user population: full-catalogue ranking when
  /// candidate_sample is 0, the candidate slice otherwise. `pool` may be
  /// null (serial); the result is bit-identical for any thread count.
  GroupedEval Evaluate(const StreamScoreFn& score_fn, ThreadPool* pool) const;

  /// Evaluate through an id-list scorer: each user's ids (the catalogue
  /// span or the candidate slice) are scored into per-thread scratch and
  /// pushed whole.
  GroupedEval Evaluate(const BatchScoreFn& score_fn, ThreadPool* pool) const;

  /// The candidate id list for `u`: test items plus `candidate_sample`
  /// seeded never-interacted negatives, ascending and duplicate-free.
  /// Exposed for the candidate-vs-full pinning test.
  std::vector<ItemId> CandidateItems(UserId u) const;

  const std::vector<UserId>& eval_users() const { return users_; }

 private:
  /// Per-thread evaluation scratch: every per-user buffer an Evaluate call
  /// reuses, so steady-state evaluation allocates nothing per user.
  struct SlotScratch {
    TopKSelector selector;
    std::vector<bool> masked;  // all-false between users (set/use/clear)
    std::vector<ItemId> topk;
    // hfr-lint: iteration-order-safe(membership tests only - metrics walk the ordered topk vector and probe this set via count)
    std::unordered_set<ItemId> relevant;
  };

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
