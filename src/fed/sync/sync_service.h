// Row-subscription delta downloads (docs/SYNC.md).
//
// Protocol, per participating client per round:
//   1. The client announces its subscription — the rows it will read this
//      round (interacted items, the freshly drawn negative-candidate pool,
//      DDR sample rows, validation items) — together with the versions it
//      already holds (tracked server-side in its ClientReplica).
//   2. The server ships only the subscribed rows whose version advanced
//      since the client last held them, plus the (tiny, always-fresh) Θ
//      and a round header.
//   3. The replica record is updated to the shipped versions.
//
// `params_down` therefore scales with the client's data instead of the
// catalogue: shipped_rows × (width + 1 index) + |Θ| + 1, against the dense
// protocol's num_items × width + |Θ|.
//
// The simulation's clients read the live server table directly (the
// copy-on-write overlay in LocalTrainer), so delta sync changes no
// arithmetic — it is the bookkeeping a real deployment would need, and in
// `verify_values` mode it *proves* losslessness every round: any subscribed
// row the server decides not to ship is checked bit-identical against the
// replica's cached bytes.
#ifndef HETEFEDREC_FED_SYNC_SYNC_SERVICE_H_
#define HETEFEDREC_FED_SYNC_SYNC_SERVICE_H_

#include <cstdint>
#include <vector>

#include "src/data/types.h"
#include "src/fed/sync/replica.h"
#include "src/fed/sync/versioned_table.h"
#include "src/math/matrix.h"

namespace hetefedrec {

/// \brief What one delta download ships.
struct SyncPlan {
  size_t subscribed_rows = 0;  // rows the client asked for
  size_t shipped_rows = 0;     // subset that was stale (or never held)
  /// Scalars shipped down: shipped_rows × (width + 1) + theta_params + 1
  /// round-header scalar.
  size_t params = 0;
};

/// \brief Owns every client's replica and computes per-round deltas.
class SyncService {
 public:
  struct Options {
    /// Track shipped row bytes per replica and CHECK that every skipped
    /// (up-to-date) subscribed row is bit-identical to the live server row.
    /// O(rows held × width) memory per client — for tests and audits.
    bool verify_values = false;
    /// Per-client LRU cap on replica rows (0 = unlimited). Evicted rows
    /// read as never held and are simply re-shipped on the next
    /// subscription, so the protocol stays lossless; `params_down` rises
    /// with the miss rate (ExperimentConfig::sync_replica_cap).
    size_t replica_cap = 0;
  };

  explicit SyncService(size_t num_users);
  SyncService(size_t num_users, const Options& options);

  /// Plans and commits the download for client `u` reading `subscription`
  /// rows of `table` (the client's slot). `subscription` must be
  /// duplicate-free; order is irrelevant. Thread-compatible only under
  /// external serialization — call in deterministic merge order.
  SyncPlan Sync(UserId u, size_t slot,
                const std::vector<uint32_t>& subscription,
                const Matrix& table, const VersionedTable& versions,
                size_t theta_params);

  /// Drops one client's replica (it re-downloads everything next round).
  void Invalidate(UserId u);

  const ClientReplica& replica(UserId u) const;

  /// Mutable replica access for run-checkpoint restore.
  ClientReplica* mutable_replica(UserId u);

  size_t num_users() const { return replicas_.size(); }

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::vector<ClientReplica> replicas_;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_SYNC_SYNC_SERVICE_H_
