#include "src/fed/scheduler.h"

#include <algorithm>
#include <numeric>

#include "src/util/logging.h"

namespace hetefedrec {

ClientQueue::ClientQueue(size_t num_users, size_t clients_per_round,
                         size_t over_selection)
    : num_users_(num_users),
      clients_per_round_(clients_per_round),
      over_selection_(over_selection) {
  HFR_CHECK_GT(num_users, 0u);
  HFR_CHECK_GT(clients_per_round, 0u);
}

void ClientQueue::BeginEpoch(Rng* rng) {
  queue_.resize(num_users_);
  std::iota(queue_.begin(), queue_.end(), 0);
  rng->Shuffle(&queue_);
  head_ = 0;
}

std::vector<UserId> ClientQueue::NextRound() {
  const size_t take =
      std::min(queue_.size() - head_, clients_per_round_ + over_selection_);
  std::vector<UserId> round(queue_.begin() + head_,
                            queue_.begin() + head_ + take);
  head_ += take;
  // Compact once the dead prefix dominates so long availability-requeue
  // chains stay O(num_users) memory.
  if (head_ > queue_.size() / 2 && head_ > clients_per_round_) {
    queue_.erase(queue_.begin(), queue_.begin() + head_);
    head_ = 0;
  }
  return round;
}

UserId ClientQueue::PopNext() {
  HFR_CHECK(!Exhausted());
  const UserId u = queue_[head_++];
  // Same compaction policy as NextRound: keep requeue chains O(num_users).
  if (head_ > queue_.size() / 2 && head_ > clients_per_round_) {
    queue_.erase(queue_.begin(), queue_.begin() + head_);
    head_ = 0;
  }
  return u;
}

size_t ClientQueue::rounds_per_epoch() const {
  return (num_users_ + clients_per_round_ - 1) / clients_per_round_;
}

}  // namespace hetefedrec
