// Full-sort top-K oracles for tests: rank by (score descending, item id
// ascending) with one std::sort, independent of TopKSelector, so a test
// can check a session against a ranking that shares none of its code.
#ifndef HETEFEDREC_TESTS_EVAL_TOPK_ORACLE_H_
#define HETEFEDREC_TESTS_EVAL_TOPK_ORACLE_H_

#include <algorithm>
#include <vector>

#include "src/data/types.h"

namespace hetefedrec {

/// Top-`k` over an explicit id list: `scores[i]` scores `ids[i]`.
inline std::vector<ItemId> TopKFromCandidates(const std::vector<ItemId>& ids,
                                              const std::vector<double>& scores,
                                              size_t k) {
  std::vector<size_t> order(ids.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return ids[a] < ids[b];
  });
  order.resize(std::min(k, order.size()));
  std::vector<ItemId> out;
  for (size_t i : order) out.push_back(ids[i]);
  return out;
}

/// Top-`k` unmasked indices of a whole-catalogue score array; `masked`
/// has the same length (a user's train items).
inline std::vector<ItemId> TopKItems(const std::vector<double>& scores,
                                     const std::vector<bool>& masked,
                                     size_t k) {
  std::vector<ItemId> ids;
  std::vector<double> kept;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (masked[i]) continue;
    ids.push_back(static_cast<ItemId>(i));
    kept.push_back(scores[i]);
  }
  return TopKFromCandidates(ids, kept, k);
}

}  // namespace hetefedrec

#endif  // HETEFEDREC_TESTS_EVAL_TOPK_ORACLE_H_
