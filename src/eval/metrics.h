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

}  // namespace hetefedrec

#endif  // HETEFEDREC_EVAL_METRICS_H_
