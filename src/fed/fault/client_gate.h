// Retry/quarantine gating on the virtual clock.
//
// The gate tracks, per client, when it is next eligible for selection.
// Failed transfers (lost uploads/downloads, crashes) schedule a retry after
// a capped exponential backoff with deterministic jitter; updates rejected
// by admission control quarantine the client with a second, longer backoff
// schedule. All delays are simulated seconds — the gate never sleeps.
//
// Determinism: jitter is a pure hash draw keyed by (client, cumulative
// failure index), so a resumed run replays identical delays given the
// exported state.
#ifndef HETEFEDREC_FED_FAULT_CLIENT_GATE_H_
#define HETEFEDREC_FED_FAULT_CLIENT_GATE_H_

#include <cstdint>
#include <vector>

#include "src/data/types.h"
#include "src/util/rng.h"

namespace hetefedrec {

struct BackoffOptions {
  double retry_base_seconds = 1.0;        ///< first-failure retry delay
  double retry_cap_seconds = 60.0;        ///< retry delay ceiling
  double quarantine_base_seconds = 5.0;   ///< first-rejection quarantine
  double quarantine_cap_seconds = 300.0;  ///< quarantine ceiling
  double multiplier = 2.0;                ///< backoff growth per failure
  double jitter = 0.5;                    ///< delay *= 1 + jitter * U[0,1)
  size_t retry_max = 5;  ///< consecutive failures before giving up
  uint64_t seed = 1;
};

class ClientGate {
 public:
  ClientGate(size_t num_users, const BackoffOptions& options);

  /// True when client `u` may be selected at virtual time `now`.
  bool Ready(UserId u, double now) const;

  /// Earliest virtual time at which client `u` is Ready.
  double ReadyAt(UserId u) const { return ready_[static_cast<size_t>(u)]; }

  /// Records a failed transfer at time `now` and schedules the retry:
  /// delay = min(cap, base * multiplier^(fails-1)) * (1 + jitter * U).
  /// Returns false once `retry_max` consecutive failures accumulate — the
  /// caller then drops the client until the next epoch refill (the failure
  /// streak resets so the client starts fresh).
  bool RetryAfterFailure(UserId u, double now);

  /// Records an admission rejection at time `now`: same exponential shape
  /// but on the quarantine base/cap, which are typically much longer.
  /// Quarantines never give up — a diverging client keeps re-entering with
  /// ever-longer delays up to the cap.
  void Quarantine(UserId u, double now);

  /// A successful merge clears the client's failure streak.
  void OnSuccess(UserId u);

  size_t num_users() const { return static_cast<size_t>(fails_.size()); }

  /// Serializes the per-client (fails, draws, ready) state as flat u64
  /// triples (ready encoded as a double bit pattern) for run checkpoints.
  std::vector<uint64_t> Export() const;

  /// Restores state exported by `Export`. Client count must match.
  void Restore(const std::vector<uint64_t>& packed);

 private:
  double Delay(UserId u, double base, double cap);

  BackoffOptions options_;
  Rng base_;
  std::vector<uint32_t> fails_;    // consecutive failure streak
  std::vector<uint64_t> draws_;    // cumulative jitter draws (monotone)
  std::vector<double> ready_;      // earliest eligible virtual time
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_FAULT_CLIENT_GATE_H_
