#include "src/fed/sync/sync_service.h"

#include "src/util/logging.h"

namespace hetefedrec {

SyncService::SyncService(size_t num_users)
    : SyncService(num_users, Options()) {}

SyncService::SyncService(size_t num_users, const Options& options)
    : options_(options), replicas_(num_users) {
  if (options_.replica_cap > 0) {
    for (ClientReplica& rep : replicas_) {
      rep.set_capacity(options_.replica_cap);
    }
  }
}

SyncPlan SyncService::Sync(UserId u, size_t slot,
                           const std::vector<uint32_t>& subscription,
                           const Matrix& table, const VersionedTable& versions,
                           size_t theta_params) {
  HFR_CHECK_LT(static_cast<size_t>(u), replicas_.size());
  ClientReplica& rep = replicas_[static_cast<size_t>(u)];
  if (rep.slot() == ClientReplica::kNoSlot) {
    rep.set_slot(slot);
  } else {
    // A client's model slot is fixed for the lifetime of a run.
    HFR_CHECK_EQ(rep.slot(), slot);
  }

  const size_t width = table.cols();
  SyncPlan plan;
  plan.subscribed_rows = subscription.size();
  for (uint32_t row : subscription) {
    HFR_CHECK_LT(static_cast<size_t>(row), table.rows());
    const uint64_t current = versions.Version(slot, row);
    if (rep.IsStale(row, current)) {
      plan.shipped_rows++;
      rep.Hold(row, current);
      if (options_.verify_values) {
        rep.HoldValues(row, table.Row(row), width);
      }
    } else {
      // An up-to-date subscription read still pins the row's recency:
      // under a capacity the working set a client keeps re-reading should
      // outlive rows it subscribed to once.
      rep.Touch(row);
      if (options_.verify_values) {
        // Losslessness: a row we decline to ship must still be
        // byte-for-byte what the client holds. A failure here means a
        // server mutation skipped its version stamp.
        const double* cached = rep.Values(row, width);
        HFR_CHECK(cached != nullptr);
        const double* live = table.Row(row);
        for (size_t d = 0; d < width; ++d) {
          HFR_CHECK(cached[d] == live[d]);
        }
      }
    }
  }
  plan.params = plan.shipped_rows * (width + 1) + theta_params + 1;
  return plan;
}

void SyncService::Invalidate(UserId u) {
  HFR_CHECK_LT(static_cast<size_t>(u), replicas_.size());
  replicas_[static_cast<size_t>(u)].Invalidate();
}

const ClientReplica& SyncService::replica(UserId u) const {
  HFR_CHECK_LT(static_cast<size_t>(u), replicas_.size());
  return replicas_[static_cast<size_t>(u)];
}

ClientReplica* SyncService::mutable_replica(UserId u) {
  HFR_CHECK_LT(static_cast<size_t>(u), replicas_.size());
  return &replicas_[static_cast<size_t>(u)];
}

}  // namespace hetefedrec
