// Client selection: the paper's shuffled-queue protocol (§V-D).
//
// "At the beginning of an epoch, the server shuffles the queue of clients.
//  Then, at each epoch, there are several rounds for the central server to
//  traverse the client queue. During each round, the central server selects
//  256 users for training."
#ifndef HETEFEDREC_FED_SCHEDULER_H_
#define HETEFEDREC_FED_SCHEDULER_H_

#include <vector>

#include "src/data/types.h"
#include "src/util/rng.h"

namespace hetefedrec {

/// \brief Stateful client queue for availability / over-selection rounds.
///
/// Generalizes the shuffled-queue protocol: `BeginEpoch` refills and
/// shuffles, `NextRound` pops the next `clients_per_round + over_selection`
/// clients, and `Requeue` re-enters a client at the tail — used when a
/// selected client was offline or straggled past the round cut. With
/// availability 1.0 and no over-selection, the popped rounds are exactly
/// one shuffle of every user cut into consecutive rounds (asserted in
/// tests/fed/scheduler_test.cc), which keeps the default path bit-identical
/// to the paper's protocol.
class ClientQueue {
 public:
  /// \param over_selection extra clients selected per round (straggler
  ///   slack); the round still merges at most clients_per_round updates.
  ClientQueue(size_t num_users, size_t clients_per_round,
              size_t over_selection = 0);

  /// Refills the queue with every user and shuffles it.
  void BeginEpoch(Rng* rng);

  bool Exhausted() const { return head_ >= queue_.size(); }

  /// Remaining clients in the queue (including requeued ones).
  size_t pending() const { return queue_.size() - head_; }

  /// Pops up to clients_per_round + over_selection clients in queue order.
  std::vector<UserId> NextRound();

  /// Pops the single next client in queue order — the asynchronous
  /// dispatcher's unit of selection. Requires !Exhausted().
  UserId PopNext();

  /// Re-enters a client at the queue tail (it will be selected again this
  /// epoch).
  void Requeue(UserId u) { queue_.push_back(u); }

  /// Nominal rounds per epoch with everyone online (the paper's count).
  size_t rounds_per_epoch() const;

  /// Pending clients in queue order (head..tail), for run checkpoints.
  std::vector<UserId> PendingSnapshot() const {
    return std::vector<UserId>(queue_.begin() + head_, queue_.end());
  }

  /// Replaces the queue with a snapshot taken by PendingSnapshot (the
  /// compaction offset resets; only the pending order matters).
  void RestorePending(const std::vector<UserId>& pending) {
    queue_ = pending;
    head_ = 0;
  }

 private:
  size_t num_users_;
  size_t clients_per_round_;
  size_t over_selection_;
  std::vector<UserId> queue_;
  size_t head_ = 0;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_SCHEDULER_H_
