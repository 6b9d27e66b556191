// Asynchronous merge-on-arrival aggregation (docs/SYNC.md).
//
// The synchronous protocol merges a round's updates behind a barrier: the
// server waits for every selected client (PR 2's over-selection merely
// softens the tail), so one straggler sets the round's wall clock. This
// aggregator removes the barrier: every client's update merges the moment
// its *simulated completion time* arrives, weighted down by how stale the
// model it trained on has become.
//
// Determinism. Completions are held in a virtual-clock event queue ordered
// by (finish_seconds, submission sequence). Merges pop strictly in that
// order, so the merge sequence — and therefore every table, every staleness
// gap and every metric — is a pure function of the experiment seed: it does
// not depend on the thread count used to train clients, nor on the order in
// which completions were submitted.
//
// Staleness. Each ApplyUpdate advances the server's VersionedTable round,
// so the version gap s = round(merge) − round(download) counts exactly the
// merges that landed between a client's download and its arrival — the
// quantity the delta-sync machinery already tracks per row. The update is
// applied with FedAsync-style polynomial damping
//
//   w(s) = 1 / (1 + s)^alpha
//
// so a fresh arrival (s = 0) merges exactly like a synchronous one-client
// round (w = 1, pinned by tests) and a stale straggler fades smoothly
// instead of blocking anyone. Arrivals staler than `max_staleness` are
// dropped (the caller requeues the client, and CommStats counts the drop).
//
// Distillation. RESKD's per-round trigger has no round to hang off any
// more; the aggregator fires it every `distill_every` merged updates
// instead, which matches the synchronous cadence in expectation when
// distill_every == clients_per_round.
#ifndef HETEFEDREC_FED_SYNC_ASYNC_AGGREGATOR_H_
#define HETEFEDREC_FED_SYNC_ASYNC_AGGREGATOR_H_

#include <cstdint>
#include <vector>

#include "src/core/distillation.h"
#include "src/core/local_trainer.h"
#include "src/data/types.h"
#include "src/fed/shard/sharded_server.h"
#include "src/util/rng.h"

namespace hetefedrec {

/// \brief Event-queue server core for asynchronous aggregation.
class AsyncAggregator {
 public:
  struct Options {
    /// Staleness exponent of w(s) = 1/(1+s)^alpha. 0 = no damping.
    double staleness_alpha = 0.5;
    /// Drop arrivals with staleness > max_staleness (0 = no cap).
    size_t max_staleness = 0;
    /// Run server distillation every this many merged updates (0 = never).
    size_t distill_every = 0;
  };

  /// \brief What one MergeNext did, echoed for the caller's accounting.
  struct Outcome {
    UserId user = 0;
    /// Virtual clock after the event (the arrival's completion time).
    double finish_seconds = 0.0;
    /// Server versions advanced between the download and this merge.
    uint64_t staleness = 0;
    /// Weight the update merged with (0 when dropped).
    double weight = 0.0;
    bool merged = false;     // false = dropped or rejected
    bool distilled = false;  // a distillation fired after this merge
    /// The server's admission control rejected the update (merged = false;
    /// distinct from a staleness drop — the caller quarantines the client).
    bool rejected = false;
    bool rejected_nonfinite = false;  // which gate fired (else outlier)
    /// Rows norm-clipped by admission control on an accepted merge.
    size_t rows_clipped = 0;
    /// Echoed from the update so the caller can account without keeping it.
    double train_loss = 0.0;
    size_t params_up = 0;
  };

  /// The aggregator merges into `server`, which must outlive it.
  AsyncAggregator(ShardedServer* server, const Options& options);

  const Options& options() const { return options_; }

  /// w(s) = 1/(1+s)^alpha. w(0) == 1.0 exactly.
  double StalenessWeight(uint64_t staleness) const;

  /// Completions submitted but not yet merged.
  size_t in_flight() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Virtual time of the last popped event (0 before the first).
  double clock_seconds() const { return clock_; }

  size_t merged_updates() const { return merged_; }
  size_t dropped_updates() const { return dropped_; }
  uint64_t next_seq() const { return next_seq_; }

  /// Moves the virtual clock forward to `seconds` (never back). Only legal
  /// while no completions are in flight: the dispatcher waits out a
  /// backoff with nothing else to merge.
  void AdvanceClock(double seconds);

  /// Restores the scalar event-queue state from a run checkpoint. Only
  /// legal while no completions are in flight — run checkpoints are taken
  /// at epoch boundaries, where the queue has fully drained.
  void RestoreState(double clock_seconds, uint64_t next_seq, size_t merged,
                    size_t dropped);

  /// Enqueues one trained client: it downloaded the model at
  /// `download_version` (the VersionedTable round at dispatch) and its
  /// simulated completion arrives at absolute time `finish_seconds`, which
  /// must not precede the current clock. `tasks` must outlive the merge.
  void Submit(UserId user, const std::vector<LocalTaskSpec>* tasks,
              LocalUpdateResult update, uint64_t download_version,
              double finish_seconds);

  /// Pops the earliest completion (ties broken by submission order),
  /// advances the virtual clock, and merges the update with its staleness
  /// weight — or drops it when past the cap. Fires distillation every
  /// `distill_every` merges when `kd_rng` is non-null. Requires !empty().
  Outcome MergeNext(const DistillationOptions& kd_options, Rng* kd_rng);

 private:
  struct Event {
    double finish = 0.0;
    uint64_t seq = 0;
    uint64_t download_version = 0;
    UserId user = 0;
    const std::vector<LocalTaskSpec>* tasks = nullptr;
    LocalUpdateResult update;
  };

  /// Min-heap order on (finish, seq).
  static bool Later(const Event& a, const Event& b);

  ShardedServer* server_;
  Options options_;
  std::vector<Event> events_;  // heap via push_heap/pop_heap
  uint64_t next_seq_ = 0;
  double clock_ = 0.0;
  size_t merged_ = 0;
  size_t dropped_ = 0;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_SYNC_ASYNC_AGGREGATOR_H_
