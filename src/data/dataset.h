// In-memory implicit-feedback dataset with per-user train/test splits.
//
// Mirrors the paper's protocol (§V-A): per user, 80% of interactions train
// and 20% test; negatives are drawn 1:4 against items the user has never
// interacted with; a 10% validation carve-out of the training split is
// available to guide local training.
#ifndef HETEFEDREC_DATA_DATASET_H_
#define HETEFEDREC_DATA_DATASET_H_

#include <unordered_set>
#include <vector>

#include "src/data/types.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace hetefedrec {

/// \brief Split options for `Dataset::FromInteractions`.
struct SplitOptions {
  /// Fraction of each user's interactions assigned to the training split.
  double train_fraction = 0.8;
  /// Negative samples per positive during training (paper: 1:4).
  int negatives_per_positive = 4;
  /// Shuffle seed for the per-user split.
  uint64_t seed = 17;
};

/// \brief Holds all users' interactions partitioned into train/test.
///
/// The object is immutable after construction; clients hold const references
/// and only ever read their own user's rows, mirroring the federated privacy
/// boundary.
class Dataset {
 public:
  /// Builds a dataset from raw interactions. Duplicate (user,item) pairs are
  /// collapsed. Fails if any id is outside [0, num_users) / [0, num_items).
  static StatusOr<Dataset> FromInteractions(
      const std::vector<Interaction>& interactions, size_t num_users,
      size_t num_items, const SplitOptions& options = {});

  size_t num_users() const { return train_.size(); }
  size_t num_items() const { return num_items_; }
  int negatives_per_positive() const { return negatives_per_positive_; }

  /// Training items of user u.
  const std::vector<ItemId>& TrainItems(UserId u) const;

  /// Held-out test items of user u.
  const std::vector<ItemId>& TestItems(UserId u) const;

  /// Total interactions (train + test) across users.
  size_t TotalInteractions() const;

  /// Number of interactions (train + test) of user u — the quantity the
  /// paper uses to divide clients into Us/Um/Ul.
  size_t InteractionCount(UserId u) const;

  /// True if user u interacted with item i in either split.
  bool HasInteracted(UserId u, ItemId i) const;

  /// Draws `count` negative items for user u uniformly from items outside
  /// the user's *training* positives. Held-out test items are eligible,
  /// matching the standard NCF evaluation protocol: excluding them would
  /// leak the test set into training, because every non-test item would be
  /// pushed down by repeated negative sampling while test items stayed
  /// untouched.
  std::vector<ItemId> SampleNegatives(UserId u, size_t count, Rng* rng) const;

  /// Builds user u's local training mini-dataset for one epoch: every train
  /// positive plus `negatives_per_positive` fresh negatives each.
  std::vector<Sample> BuildLocalEpoch(UserId u, Rng* rng) const;

  /// Like BuildLocalEpoch but over an explicit positive list — used when a
  /// client carves a validation subset out of its training items (§III-A:
  /// 10% of local training data guides local training).
  std::vector<Sample> BuildEpochFromPositives(
      UserId u, const std::vector<ItemId>& positives, Rng* rng) const;

  /// Items with at least one interaction (used by popularity diagnostics).
  std::vector<size_t> ItemPopularity() const;

 private:
  Dataset() = default;

  size_t num_items_ = 0;
  int negatives_per_positive_ = 4;
  std::vector<std::vector<ItemId>> train_;
  std::vector<std::vector<ItemId>> test_;
  // hfr-lint: iteration-order-safe(membership tests only - insert/count, never walked; split order comes from the per_user vectors)
  std::vector<std::unordered_set<ItemId>> seen_;       // train ∪ test
  // hfr-lint: iteration-order-safe(membership tests only - negative-sample rejection via count, never walked)
  std::vector<std::unordered_set<ItemId>> train_set_;  // train only
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_DATA_DATASET_H_
