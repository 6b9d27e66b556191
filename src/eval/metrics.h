// Ranking metrics: Recall@K and NDCG@K (§V-B).
#ifndef HETEFEDREC_EVAL_METRICS_H_
#define HETEFEDREC_EVAL_METRICS_H_

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "src/data/types.h"

namespace hetefedrec {

/// Recall@K = |topk ∩ relevant| / |relevant|. `topk` is the recommendation
/// list in rank order; `relevant` the user's held-out test items.
double RecallAtK(const std::vector<ItemId>& topk,
                 const std::unordered_set<ItemId>& relevant);

/// NDCG@K with binary relevance: DCG = Σ_{hit at rank p} 1/log2(p+1)
/// (1-indexed ranks), normalized by the ideal DCG for min(k, |relevant|).
/// `k` is the *requested* list length and must be passed explicitly:
/// `topk.size()` can be smaller than k (catalogue or candidate pool
/// smaller than K), and the ideal ranking is truncated at k, not at the
/// achievable list length — normalizing by min(topk.size(), |relevant|)
/// would silently inflate NDCG exactly when the ranking is starved.
/// Full-catalogue paper runs are unaffected (topk.size() == k there).
double NdcgAtK(const std::vector<ItemId>& topk,
               const std::unordered_set<ItemId>& relevant, size_t k);

/// Extracts the indices of the K largest scores in descending order.
/// `masked` entries (same length as scores) are skipped — used to exclude
/// a user's training items from ranking.
///
/// This is the partial_sort *reference* selection (routed through
/// TopKSelector's reference path so repeated calls reuse scratch); the
/// evaluator's hot path streams TopKSelector directly — see
/// src/eval/topk.h.
std::vector<ItemId> TopKItems(const std::vector<double>& scores,
                              const std::vector<bool>& masked, size_t k);

/// Top-K over an explicit candidate list: `scores[i]` is the score of
/// `ids[i]`. Uses the same (score descending, item id ascending) order as
/// TopKItems, so the result equals TopKItems' full ranking restricted to
/// the candidate set — the invariant behind candidate-sliced evaluation.
/// Reference path, like TopKItems.
std::vector<ItemId> TopKFromCandidates(const std::vector<ItemId>& ids,
                                       const std::vector<double>& scores,
                                       size_t k);

}  // namespace hetefedrec

#endif  // HETEFEDREC_EVAL_METRICS_H_
