// Communication accounting for Table III.
//
// The simulation never serializes bytes; instead every download/upload of
// public parameters is recorded as a scalar count, which is exactly the
// quantity Table III compares (size(V_a + Θ...) per client per round).
// Byte-level views multiply by the wire format's scalar size
// (`set_wire_scalar_bytes`: 8 = fp64, 4 = fp32, 2 = fp16) so deployment
// budgets can be read off directly; row indices in sparse/delta payloads
// are counted as one scalar each, a deliberate simplification documented in
// docs/SYNC.md.
#ifndef HETEFEDREC_FED_COMM_H_
#define HETEFEDREC_FED_COMM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/fed/group.h"

namespace hetefedrec {

/// \brief Fault-injection and admission-control counters (one per run).
///
/// Everything the robustness layer drops, rejects, or repairs is counted
/// here so tests and the CLI can assert on the fault mix. All zero when
/// fault injection and admission control are off.
struct FaultStats {
  size_t download_lost = 0;   ///< model never reached the client
  size_t upload_lost = 0;     ///< update trained but lost in flight
  size_t crashed = 0;         ///< client died mid-local-epoch
  size_t duplicates = 0;      ///< redundant deliveries deduped by the server
  size_t corrupted = 0;       ///< updates corrupted in flight
  size_t rejected_nonfinite = 0;  ///< admission: NaN/Inf scan rejections
  size_t rejected_outlier = 0;    ///< admission: robust z-score rejections
  size_t rows_clipped = 0;        ///< admission: rows norm-clipped on accept
  size_t quarantines = 0;         ///< clients quarantined after rejection
  size_t retries = 0;             ///< transfer-failure retries scheduled
  size_t gave_up = 0;             ///< clients dropped after retry_max fails
  size_t nonfinite_grad_steps = 0;  ///< local Adam steps skipped (NaN grad)

  size_t TotalInjected() const {
    return download_lost + upload_lost + crashed + duplicates + corrupted;
  }
  size_t TotalRejected() const {
    return rejected_nonfinite + rejected_outlier;
  }
};

/// One FaultStats counter and its name in the metrics stream.
struct FaultCounter {
  const char* metric;
  size_t FaultStats::*member;
};

/// Every FaultStats counter, in the order of the run checkpoint's fault
/// segment (CommStats::ExportCounters) and of the metrics stream.
inline constexpr std::array<FaultCounter, 12> kFaultCounters = {{
    {"fault.download_lost", &FaultStats::download_lost},
    {"fault.upload_lost", &FaultStats::upload_lost},
    {"fault.crashed", &FaultStats::crashed},
    {"fault.duplicates", &FaultStats::duplicates},
    {"fault.corrupted", &FaultStats::corrupted},
    {"admission.rejected_nonfinite", &FaultStats::rejected_nonfinite},
    {"admission.rejected_outlier", &FaultStats::rejected_outlier},
    {"admission.rows_clipped", &FaultStats::rows_clipped},
    {"gate.quarantines", &FaultStats::quarantines},
    {"gate.retries", &FaultStats::retries},
    {"gate.gave_up", &FaultStats::gave_up},
    {"train.nonfinite_grad_steps", &FaultStats::nonfinite_grad_steps},
}};

/// Words in CommStats::ExportCounters: five per group, then the faults.
inline constexpr size_t kCommCounterWords =
    kNumGroups * 5 + kFaultCounters.size();

/// \brief One round's worth of traffic: the delta between two consecutive
/// CommStats::SnapshotRound() calls.
///
/// Cumulative totals hide how traffic evolves — e.g. delta sync ships the
/// whole subscription on a client's first participation and only stale rows
/// afterwards, so the downlink cost falls over rounds toward the DDR
/// correlation-row floor (docs/SYNC.md "Measuring it"). Per-round snapshots
/// make that curve observable in bench_table3 and the metrics JSONL stream.
struct CommRound {
  struct PerGroup {
    size_t uploads = 0;
    size_t downloads = 0;
    size_t dropped = 0;
    size_t up_params = 0;
    size_t down_params = 0;
  };
  std::array<PerGroup, kNumGroups> groups;

  size_t Uploads() const;
  size_t Downloads() const;
  size_t Dropped() const;
  size_t UpParams() const;
  size_t DownParams() const;
  /// Mean scalars downloaded per download this round (0 if none).
  double AvgDownload(Group g) const;
};

/// \brief Accumulates per-group transmission counts.
class CommStats {
 public:
  /// Records one client download of `params` scalars.
  void RecordDownload(Group g, size_t params);

  /// Records one client upload of `params` scalars.
  void RecordUpload(Group g, size_t params);

  /// Records one async arrival discarded by the staleness cap
  /// (`async_max_staleness`): the download was delivered and is counted,
  /// but the update never merges, so no upload is recorded — the same
  /// accepted-traffic-only convention over-selection stragglers follow.
  void RecordDropped(Group g);

  /// Number of *merged* participations (uploads accepted by the server).
  /// Under over-selection this is smaller than Downloads(): stragglers
  /// receive their download but their upload is cancelled at round close
  /// and never recorded — CommStats counts accepted traffic only, a
  /// conservative lower bound on wire bytes (docs/SYNC.md).
  size_t Participations(Group g) const;

  /// Number of downloads recorded for the group (>= Participations under
  /// over-selection / deadlines).
  size_t Downloads(Group g) const;

  /// Async arrivals dropped by the staleness cap for the group.
  size_t Dropped(Group g) const;

  /// Total dropped arrivals across all groups.
  size_t TotalDropped() const;

  /// Mean scalars uploaded per participation for the group (0 if none).
  double AvgUpload(Group g) const;

  /// Mean scalars downloaded per participation for the group.
  double AvgDownload(Group g) const;

  /// Raw per-group totals (scalars) — the down/up split of Table III.
  size_t DownParams(Group g) const;
  size_t UpParams(Group g) const;

  /// Total scalars transmitted either direction across all groups.
  size_t TotalTransmitted() const;

  /// Wire format: bytes per transmitted scalar (default 8, fp64).
  void set_wire_scalar_bytes(size_t bytes) { wire_scalar_bytes_ = bytes; }
  size_t wire_scalar_bytes() const { return wire_scalar_bytes_; }

  /// Total bytes transmitted under the configured wire format.
  size_t TotalBytes() const;

  /// Robustness counters (fault injection / admission control).
  const FaultStats& faults() const { return faults_; }
  FaultStats* mutable_faults() { return &faults_; }

  /// Flattens every counter (per-group + faults) into a fixed-layout u64
  /// vector for run checkpoints. `wire_scalar_bytes` is configuration, not
  /// a counter, so it is excluded (Reset preserves it for the same reason).
  std::vector<uint64_t> ExportCounters() const;

  /// Restores counters exported by `ExportCounters`. Rebaselines the round
  /// snapshot: the first SnapshotRound() after a restore covers only traffic
  /// recorded since the restore.
  void RestoreCounters(const std::vector<uint64_t>& packed);

  void Reset();

  /// Returns the traffic recorded since the previous SnapshotRound() (or
  /// since construction / Reset / RestoreCounters) and advances the
  /// baseline. Call once per round to get per-round deltas.
  CommRound SnapshotRound();

 private:
  using PerGroup = CommRound::PerGroup;
  std::array<PerGroup, kNumGroups> groups_;
  /// Totals at the last SnapshotRound() — the subtrahend for round deltas.
  std::array<PerGroup, kNumGroups> round_base_;
  FaultStats faults_;
  size_t wire_scalar_bytes_ = 8;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_COMM_H_
