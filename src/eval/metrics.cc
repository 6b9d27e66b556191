#include "src/eval/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace hetefedrec {

double RecallAtK(const std::vector<ItemId>& topk,
                 const std::unordered_set<ItemId>& relevant) {
  if (relevant.empty()) return 0.0;
  size_t hits = 0;
  for (ItemId i : topk) hits += relevant.count(i);
  return static_cast<double>(hits) / static_cast<double>(relevant.size());
}

double NdcgAtK(const std::vector<ItemId>& topk,
               const std::unordered_set<ItemId>& relevant, size_t k) {
  HFR_CHECK_LE(topk.size(), k);
  if (relevant.empty()) return 0.0;
  double dcg = 0.0;
  for (size_t p = 0; p < topk.size(); ++p) {
    if (relevant.count(topk[p])) {
      dcg += 1.0 / std::log2(static_cast<double>(p) + 2.0);
    }
  }
  // The ideal ranking places min(k, |relevant|) hits at the head of a
  // length-k list — truncated at the *requested* k, not at topk.size():
  // a ranking starved of candidates (catalogue or candidate pool < K)
  // must not be graded against a correspondingly shrunken ideal.
  double idcg = 0.0;
  size_t ideal_hits = std::min(k, relevant.size());
  for (size_t p = 0; p < ideal_hits; ++p) {
    idcg += 1.0 / std::log2(static_cast<double>(p) + 2.0);
  }
  return idcg > 0.0 ? dcg / idcg : 0.0;
}

}  // namespace hetefedrec
