#include "src/data/dataset.h"

#include <algorithm>

#include "src/util/logging.h"

namespace hetefedrec {

StatusOr<Dataset> Dataset::FromInteractions(
    const std::vector<Interaction>& interactions, size_t num_users,
    size_t num_items, const SplitOptions& options) {
  if (num_users == 0 || num_items == 0) {
    return Status::InvalidArgument("num_users and num_items must be positive");
  }
  if (options.train_fraction <= 0.0 || options.train_fraction > 1.0) {
    return Status::InvalidArgument("train_fraction must be in (0, 1]");
  }
  if (options.negatives_per_positive < 0) {
    return Status::InvalidArgument("negatives_per_positive must be >= 0");
  }

  Dataset ds;
  ds.num_items_ = num_items;
  ds.negatives_per_positive_ = options.negatives_per_positive;
  ds.train_.resize(num_users);
  ds.test_.resize(num_users);
  ds.seen_.resize(num_users);

  // Collapse duplicates while collecting per-user item lists.
  std::vector<std::vector<ItemId>> per_user(num_users);
  for (const Interaction& x : interactions) {
    if (x.user < 0 || static_cast<size_t>(x.user) >= num_users) {
      return Status::OutOfRange("user id out of range: " +
                                std::to_string(x.user));
    }
    if (x.item < 0 || static_cast<size_t>(x.item) >= num_items) {
      return Status::OutOfRange("item id out of range: " +
                                std::to_string(x.item));
    }
    if (ds.seen_[x.user].insert(x.item).second) {
      per_user[x.user].push_back(x.item);
    }
  }

  Rng rng(options.seed);
  ds.train_set_.resize(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    auto& items = per_user[u];
    Rng user_rng = rng.Fork(u);
    user_rng.Shuffle(&items);
    // At least one item stays in train when the user has any data; a user
    // with >= 2 items keeps at least one test item only if the fraction
    // allows it (matching a plain 80/20 floor-based split).
    size_t n_train = static_cast<size_t>(
        options.train_fraction * static_cast<double>(items.size()));
    if (n_train == 0 && !items.empty()) n_train = 1;
    ds.train_[u].assign(items.begin(), items.begin() + n_train);
    ds.test_[u].assign(items.begin() + n_train, items.end());
    ds.train_set_[u].insert(ds.train_[u].begin(), ds.train_[u].end());
  }
  return ds;
}

const std::vector<ItemId>& Dataset::TrainItems(UserId u) const {
  HFR_CHECK_LT(static_cast<size_t>(u), train_.size());
  return train_[u];
}

const std::vector<ItemId>& Dataset::TestItems(UserId u) const {
  HFR_CHECK_LT(static_cast<size_t>(u), test_.size());
  return test_[u];
}

size_t Dataset::TotalInteractions() const {
  size_t total = 0;
  for (size_t u = 0; u < train_.size(); ++u) {
    total += train_[u].size() + test_[u].size();
  }
  return total;
}

size_t Dataset::InteractionCount(UserId u) const {
  return TrainItems(u).size() + TestItems(u).size();
}

bool Dataset::HasInteracted(UserId u, ItemId i) const {
  HFR_CHECK_LT(static_cast<size_t>(u), seen_.size());
  return seen_[u].count(i) > 0;
}

std::vector<ItemId> Dataset::SampleNegatives(UserId u, size_t count,
                                             Rng* rng) const {
  HFR_CHECK_LT(static_cast<size_t>(u), train_set_.size());
  const auto& positives = train_set_[u];
  std::vector<ItemId> out;
  out.reserve(count);
  // Rejection sampling; interaction lists are sparse relative to the
  // catalogue so this terminates quickly. Guard against pathological users
  // who interacted with (nearly) everything.
  if (positives.size() >= num_items_) return out;
  size_t attempts = 0;
  const size_t max_attempts = 50 * (count + 1);
  while (out.size() < count && attempts < max_attempts) {
    ++attempts;
    ItemId cand = static_cast<ItemId>(rng->UniformInt(num_items_));
    if (!positives.count(cand)) out.push_back(cand);
  }
  return out;
}

std::vector<Sample> Dataset::BuildLocalEpoch(UserId u, Rng* rng) const {
  return BuildEpochFromPositives(u, TrainItems(u), rng);
}

std::vector<Sample> Dataset::BuildEpochFromPositives(
    UserId u, const std::vector<ItemId>& positives, Rng* rng) const {
  std::vector<Sample> samples;
  samples.reserve(positives.size() * (1 + negatives_per_positive_));
  for (ItemId pos : positives) {
    samples.push_back(Sample{pos, 1.0});
    for (ItemId neg :
         SampleNegatives(u, static_cast<size_t>(negatives_per_positive_),
                         rng)) {
      samples.push_back(Sample{neg, 0.0});
    }
  }
  return samples;
}

std::vector<size_t> Dataset::ItemPopularity() const {
  std::vector<size_t> pop(num_items_, 0);
  for (size_t u = 0; u < train_.size(); ++u) {
    for (ItemId i : train_[u]) pop[i]++;
    for (ItemId i : test_[u]) pop[i]++;
  }
  return pop;
}

}  // namespace hetefedrec
