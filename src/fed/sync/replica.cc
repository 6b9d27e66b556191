#include "src/fed/sync/replica.h"

#include <algorithm>

#include "src/util/logging.h"

namespace hetefedrec {

void ClientReplica::set_capacity(size_t capacity) {
  // Uncapped replicas skip all LRU bookkeeping, so a cap cannot be turned
  // on once rows are held — the recency order was never tracked. In
  // practice caps are fixed at SyncService construction.
  if (capacity_ == 0 && capacity > 0) HFR_CHECK(held_.empty());
  capacity_ = capacity;
  EvictOverCapacity();
}

void ClientReplica::Hold(uint32_t row, uint64_t version) {
  auto it = held_.find(row);
  if (it != held_.end()) {
    it->second.version = version;
    if (capacity_ > 0) lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  if (capacity_ == 0) {
    // No cap: skip the list node — the iterator field is never read.
    held_.emplace(row, Entry{version, lru_.end()});
    return;
  }
  lru_.push_front(row);
  held_.emplace(row, Entry{version, lru_.begin()});
  EvictOverCapacity();
}

void ClientReplica::Touch(uint32_t row) {
  if (capacity_ == 0) return;  // recency is meaningless without a cap
  auto it = held_.find(row);
  if (it == held_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
}

void ClientReplica::EvictOverCapacity() {
  if (capacity_ == 0) return;
  while (held_.size() > capacity_) {
    const uint32_t victim = lru_.back();
    lru_.pop_back();
    held_.erase(victim);
    auto vit = value_pos_.find(victim);
    if (vit != value_pos_.end()) {
      free_value_pos_.push_back(vit->second);
      value_pos_.erase(vit);
    }
  }
}

void ClientReplica::HoldValues(uint32_t row, const double* data,
                               size_t width) {
  auto it = value_pos_.find(row);
  size_t pos;
  if (it != value_pos_.end()) {
    pos = it->second;
  } else if (!free_value_pos_.empty()) {
    pos = free_value_pos_.back();
    free_value_pos_.pop_back();
    value_pos_.emplace(row, pos);
  } else {
    pos = values_.size();
    values_.resize(pos + width);
    value_pos_.emplace(row, pos);
  }
  std::copy(data, data + width, values_.begin() + pos);
}

const double* ClientReplica::Values(uint32_t row, size_t width) const {
  auto it = value_pos_.find(row);
  if (it == value_pos_.end()) return nullptr;
  (void)width;
  return values_.data() + it->second;
}

void ClientReplica::ExportRows(std::vector<uint32_t>* rows,
                               std::vector<uint64_t>* versions) const {
  if (capacity_ > 0) {
    rows->assign(lru_.rbegin(), lru_.rend());
  } else {
    rows->clear();
    rows->reserve(held_.size());
    // hfr-lint: iteration-order-safe(the rows are sorted before use, so the walk order never reaches the output)
    for (const auto& held : held_) rows->push_back(held.first);
    std::sort(rows->begin(), rows->end());
  }
  versions->clear();
  versions->reserve(rows->size());
  for (uint32_t row : *rows) versions->push_back(held_.at(row).version);
}

void ClientReplica::Invalidate() {
  held_.clear();
  lru_.clear();
  value_pos_.clear();
  free_value_pos_.clear();
  values_.clear();
}

}  // namespace hetefedrec
