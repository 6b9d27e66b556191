// Top-K selection over score blocks — the one evaluation ranking path.
//
// Every ranking the evaluator makes, over the full catalogue or a
// candidate slice, is one session: `Begin(k, mask, reference)`, then score
// blocks as `Scorer::ScoreRange`/`ScoreBatch` produce them (`Push` for a
// contiguous id span, `PushIds` for an explicit id list), then `Finish`,
// which writes the ranked ids. No O(items) candidate vector or score array
// is needed by the caller. A session runs in one of two modes:
//
//   * Bounded min-heap (default): k entries of state; each pushed score
//     costs one compare against the current k-th best once the heap is
//     warm, so a user costs O(items + k·log k) compares.
//   * Reference (`reference = true`, selected by `use_batched_topk =
//     false`): buffers every (id, score) pushed and, at Finish,
//     `partial_sort`s an index over the unmasked entries — the oracle the
//     heap is pinned against.
//
// Both modes are *bit-identical*: the ordering (score descending, then item
// id ascending) is a strict total order over distinct ids, so the top-K
// list is unique and every correct selection returns the same ids in the
// same order (tests/eval/topk_test.cc pins this over randomized heavy-tie
// inputs). Scores must be NaN-free (NaN breaks any strict weak ordering);
// ±infinity and extreme magnitudes are handled.
//
// A selector owns its scratch, so one instance per evaluation thread makes
// per-user selection allocation-free. It is not safe for concurrent use.
#ifndef HETEFEDREC_EVAL_TOPK_H_
#define HETEFEDREC_EVAL_TOPK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/data/types.h"

namespace hetefedrec {

/// \brief Reusable top-K selection session with per-instance scratch.
class TopKSelector {
 public:
  /// Starts a top-`k` session. When `mask` is non-null it is indexed by
  /// absolute item id and masked items are skipped (the evaluator's
  /// train-item exclusion); it must stay valid until Finish(). `reference`
  /// selects the buffered partial_sort mode instead of the heap.
  void Begin(size_t k, const std::vector<bool>* mask = nullptr,
             bool reference = false);

  /// Feeds one contiguous score block: `scores[i]` scores item
  /// `first + i`. Blocks must be fed in disjoint spans (any order), each
  /// id at most once per session.
  void Push(ItemId first, const double* scores, size_t n);

  /// Like Push for an explicit id list: `scores[i]` scores `ids[i]`.
  void PushIds(const ItemId* ids, const double* scores, size_t n);

  /// Writes the ranked list (score descending, id ascending; at most k
  /// entries) into *out and resets the session.
  void Finish(std::vector<ItemId>* out);

 private:
  struct Entry {
    double score;
    ItemId id;
  };
  /// The ranking order: higher score first, lower id on ties. A strict
  /// total order (ids are distinct), hence the unique-top-K argument.
  static bool Better(const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }

  /// The loop behind Push and PushIds; `id_at(i)` is the id `scores[i]`
  /// scores.
  template <typename IdAt>
  void Feed(const IdAt& id_at, const double* scores, size_t n);
  /// Heapifies the warm-up entries once the k-th arrives (worst-at-front).
  void Heapify();
  /// Replaces the root (the worst retained entry) and restores the heap
  /// with one sift-down — half the work of a pop_heap/push_heap pair.
  void ReplaceRoot(double score, ItemId id);

  size_t k_ = 0;
  const std::vector<bool>* mask_ = nullptr;
  bool reference_ = false;
  // Heap mode. Until k entries arrive it is an unordered warm-up list;
  // from then on a heap with comparator Better-as-less whose front is the
  // *worst* retained entry — the replacement threshold, mirrored into
  // worst_ for a one-compare reject of the common case.
  std::vector<Entry> heap_;
  bool heapified_ = false;
  double worst_ = 0.0;
  ItemId worst_id_ = 0;

  // Reference mode: every id pushed and its score, in push order (masked
  // ones too; Finish leaves them out of the index order it sorts).
  std::vector<ItemId> ref_ids_;
  std::vector<double> ref_scores_;
  std::vector<uint32_t> ref_order_;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_EVAL_TOPK_H_
