#include "src/eval/topk.h"

#include <algorithm>

namespace hetefedrec {

void TopKSelector::Begin(size_t k, const std::vector<bool>* mask,
                         bool reference) {
  k_ = k;
  mask_ = mask;
  reference_ = reference;
  heap_.clear();
  heapified_ = false;
  ref_ids_.clear();
  ref_scores_.clear();
  if (!reference && heap_.capacity() < k) heap_.reserve(k);
}

void TopKSelector::Heapify() {
  std::make_heap(heap_.begin(), heap_.end(), Better);
  heapified_ = true;
  worst_ = heap_.front().score;
  worst_id_ = heap_.front().id;
}

void TopKSelector::ReplaceRoot(double score, ItemId id) {
  const size_t size = heap_.size();
  size_t pos = 0;
  heap_[0] = Entry{score, id};
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= size) break;
    // Sift towards the *worse* child: the heap keeps the worst retained
    // entry at the front.
    const size_t right = child + 1;
    if (right < size && Better(heap_[child], heap_[right])) child = right;
    if (!Better(heap_[pos], heap_[child])) break;
    std::swap(heap_[pos], heap_[child]);
    pos = child;
  }
  worst_ = heap_.front().score;
  worst_id_ = heap_.front().id;
}

template <typename IdAt>
void TopKSelector::Feed(const IdAt& id_at, const double* scores, size_t n) {
  if (reference_) {
    // Buffer the whole block; Finish skips the masked entries.
    const size_t end = ref_ids_.size();
    ref_ids_.resize(end + n);
    for (size_t i = 0; i < n; ++i) ref_ids_[end + i] = id_at(i);
    ref_scores_.insert(ref_scores_.end(), scores, scores + n);
    return;
  }
  const std::vector<bool>* mask = mask_;
  size_t i = 0;
  // Warm-up: collect the first k entries unordered, heapify on the k-th.
  for (; !heapified_ && i < n; ++i) {
    const ItemId id = id_at(i);
    if (mask != nullptr && (*mask)[id]) continue;
    heap_.push_back(Entry{scores[i], id});
    if (heap_.size() == k_) Heapify();
  }
  for (; i < n; ++i) {
    const ItemId id = id_at(i);
    if (mask != nullptr && (*mask)[id]) continue;
    // Hot reject: almost every item scores strictly below the current
    // k-th best and costs exactly one compare.
    const double s = scores[i];
    if (s < worst_) continue;
    if (s == worst_ && id > worst_id_) continue;
    ReplaceRoot(s, id);
  }
}

void TopKSelector::Push(ItemId first, const double* scores, size_t n) {
  if (k_ == 0) return;
  Feed([first](size_t i) { return static_cast<ItemId>(first + i); }, scores,
       n);
}

void TopKSelector::PushIds(const ItemId* ids, const double* scores, size_t n) {
  if (k_ == 0) return;
  Feed([ids](size_t i) { return ids[i]; }, scores, n);
}

void TopKSelector::Finish(std::vector<ItemId>* out) {
  if (reference_) {
    // Index the unmasked entries, then partial_sort the index: moving
    // 4-byte indices is cheaper than moving (score, id) entries.
    const ItemId* ids = ref_ids_.data();
    const double* scores = ref_scores_.data();
    ref_order_.resize(ref_ids_.size());
    size_t n = 0;
    for (uint32_t i = 0; i < ref_ids_.size(); ++i) {
      ref_order_[n] = i;
      n += mask_ == nullptr || !(*mask_)[ids[i]];
    }
    ref_order_.resize(n);
    const size_t k = std::min(k_, n);
    auto better = [scores, ids](uint32_t a, uint32_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return ids[a] < ids[b];
    };
    std::partial_sort(ref_order_.begin(), ref_order_.begin() + k,
                      ref_order_.end(), better);
    out->resize(k);
    for (size_t i = 0; i < k; ++i) (*out)[i] = ids[ref_order_[i]];
  } else {
    std::sort(heap_.begin(), heap_.end(), Better);
    out->resize(heap_.size());
    for (size_t i = 0; i < heap_.size(); ++i) (*out)[i] = heap_[i].id;
  }
  heap_.clear();
  heapified_ = false;
  ref_ids_.clear();
  ref_scores_.clear();
  mask_ = nullptr;
  reference_ = false;
  k_ = 0;
}

}  // namespace hetefedrec
